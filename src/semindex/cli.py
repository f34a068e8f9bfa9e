"""Command-line frontend: index, cluster, export, eval, pipeline."""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter
from pathlib import Path

from . import agents, kb as kbmod, lexicon, metrics
from .corpus import ingest
from .errors import MalformedIndexStore, MissingIndexStore, SemindexError, read_text, write_text


@dataclass(frozen=True)
class Config:
    kb_path: str = ""
    corpus_dir: str = ""
    tau: float = 0.2
    reference_year: int = 0
    threshold_mode: str = "min_count:2"
    k: int = 2
    seed: int = 0
    refine_passes: int = 1
    level: str = "lexical"
    out_dir: str = "out"
    gold_path: str = ""


def load_config(path) -> Config:
    values = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SemindexError(f"{path}:{lineno}: expected key = value")
        values[key.strip()] = value.strip()
    return _apply(Config(), values)


def _apply(config: Config, values: dict) -> Config:
    fields = {}
    for key, value in values.items():
        if value is None:
            continue
        if key not in Config.__dataclass_fields__:
            raise SemindexError(f"unknown config key {key!r}")
        try:
            # each value takes the type of its default: str, int or float
            fields[key] = type(getattr(config, key))(value)
        except ValueError:
            raise SemindexError(f"{key} must be a number, got {value!r}") from None
    config = replace(config, **fields)
    if not 0.0 <= config.tau <= 1.0:
        raise SemindexError(f"tau must lie in [0,1], got {config.tau}")
    if config.k < 1:
        raise SemindexError(f"k must be >= 1, got {config.k}")
    if config.refine_passes < 1:
        raise SemindexError(f"refine_passes must be >= 1, got {config.refine_passes}")
    if config.seed < 0:
        raise SemindexError(f"seed must be >= 0, got {config.seed}")
    if config.level.lower() != "lexical":
        raise SemindexError(f"level {config.level!r} is not implemented; only lexical is")
    parse_threshold(config.threshold_mode)  # a bad mode fails before any command runs
    return config


def parse_threshold(text: str):
    kind, sep, value = text.partition(":")
    modes = {"min_count": lexicon.MinCount, "top_n": lexicon.TopN}
    if sep and kind in modes:
        try:
            count = int(value)
        except ValueError:
            count = -1
        if count >= 0:
            return modes[kind](count)
    raise SemindexError(f"bad threshold_mode {text!r}, use min_count:N or top_n:N with N >= 0")


STATUS_CODES = frozenset(s.value for s in agents.TermStatus)
ROUTING_CODES = frozenset(r.value for r in agents.Routing)


def _braced(members: str, indent: int) -> str:
    """An object around its members, as json.dumps(..., indent=2) writes it."""
    return f"{{\n{members}\n{' ' * indent}}}" if members else "{}"


def write_index_store(indexed_docs, years: dict, path) -> None:
    """Write json.dumps(store, indent=2, ensure_ascii=False, sort_keys=True) + "\n".

    The store's fixed layout is written directly, because with `indent` set
    json uses its pure-Python encoder; strings go through json's own escaper.
    """
    quote = json.encoder.encode_basestring
    docs = []
    for doc in sorted(indexed_docs, key=lambda d: d.doc_id):
        terms = ",\n".join(
            f'        {quote(t)}: {{\n          "n": {n},\n          "status": {quote(s.value)}\n        }}'
            for t, (n, s) in sorted(doc.terms.items())
        )
        docs.append(
            f"    {quote(doc.doc_id)}: {{\n"
            f'      "routing": {quote(doc.routing.value)},\n'
            f'      "terms": {_braced(terms, 6)},\n'
            f'      "year": {years[doc.doc_id]}\n'
            f"    }}"
        )
    documents = _braced(",\n".join(docs), 2)
    write_text(path, f'{{\n  "documents": {documents}\n}}\n')


_N, _STATUS = itemgetter("n"), itemgetter("status")


def _index_columns(documents):
    """(doc ids, lengths, terms, counts, status codes) of the Index documents,
    in doc_id order; the last three run over all their postings.  One pass
    checks every document, whatever its routing, as it takes its postings,
    and raises the first fault in doc_id order, naming the document."""
    if not isinstance(documents, dict):
        raise ValueError("documents is not an object")
    docs, lengths, terms, counts, statuses = [], [], [], [], []
    for doc_id, entry in sorted(documents.items()):
        if not isinstance(entry, dict):
            raise ValueError(f"document {doc_id!r} is not an object")
        try:
            routing, doc_terms = entry["routing"], entry["terms"]
            if not isinstance(doc_terms, dict):
                raise ValueError("terms is not an object")
            for term, value in doc_terms.items():
                if not isinstance(value, dict):
                    raise ValueError(f"term {term!r} is not an object")
            ns, codes = [*map(_N, doc_terms.values())], [*map(_STATUS, doc_terms.values())]
            bad = [n for n in ns if type(n) is not int]
            if bad:
                raise ValueError(f"n = {bad[0]!r} is not an integer")
            # a code of another type, unhashable ones too, is named like a bad string
            bad = [s for s in codes if type(s) is not str or s not in STATUS_CODES]
            if bad:
                raise ValueError(f"unknown term status {bad[0]!r}")
            if type(routing) is not str or routing not in ROUTING_CODES:
                raise ValueError(f"unknown routing {routing!r}")
        except (KeyError, ValueError) as exc:
            missing = "missing key " if isinstance(exc, KeyError) else ""
            raise ValueError(f"document {doc_id!r}: {missing}{exc}") from None
        if routing == agents.Routing.INDEX.value:
            docs.append(doc_id)
            lengths.append(len(ns))
            terms += doc_terms
            counts += ns
            statuses += codes
    return docs, lengths, terms, counts, statuses


def read_index_store(path) -> lexicon.Postings:
    """The postings of the store's Index documents, in doc_id order."""
    if not os.path.exists(path):  # False too for a name the OS rejects
        raise MissingIndexStore(f"{path} not found; run `semindex index` first")
    gc.disable()  # the parse makes many small dicts and no cycle: collecting is wasted work
    try:
        store = json.loads(read_text(path))
        if not isinstance(store, dict):
            raise ValueError("the top level is not an object")
        # popped, so the parsed tree is freed as the check returns
        columns = _index_columns(store.pop("documents"))
    except KeyError as exc:
        raise MalformedIndexStore(f"{path}: missing key {exc}") from None
    except (RecursionError, ValueError) as exc:
        raise MalformedIndexStore(f"{path}: {exc}") from None
    finally:
        gc.enable()
    try:
        return lexicon.Postings.build(*columns)
    except OverflowError:
        raise MalformedIndexStore(f"{path}: a term count is too large for a float") from None


def index_postings(indexed_docs) -> lexicon.Postings:
    """The postings of the Index documents among `indexed_docs`."""
    docs = sorted(
        (doc for doc in indexed_docs if doc.routing is agents.Routing.INDEX),
        key=attrgetter("doc_id"),
    )
    return lexicon.Postings.build(
        [doc.doc_id for doc in docs],
        [len(doc.terms) for doc in docs],
        [t for doc in docs for t in doc.terms],
        [n for doc in docs for n, _ in doc.terms.values()],
        [s.value for doc in docs for _, s in doc.terms.values()],
    )


def _load_corpus(config: Config):
    paths = sorted(Path(config.corpus_dir).glob("*.txt"), key=str)
    if not paths:
        raise SemindexError(f"no .txt documents under {config.corpus_dir!r}")
    return ingest(paths)


def cmd_index(config: Config) -> list:
    """Index the corpus; return the indexed documents."""
    kb = kbmod.load_kb(config.kb_path)
    corpus = _load_corpus(config)
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SemindexError(f"cannot create out_dir {out}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL byte in the path
        raise SemindexError(f"cannot create out_dir {out}: {exc}") from None
    indexed, entries = agents.run_pipeline(kb, corpus, config.tau, config.reference_year)
    years = {doc.id: doc.year for doc in corpus}
    agents.write_blackboard(entries, out / "blackboard.xml", years)
    write_index_store(indexed, years, out / "index_store.json")
    return indexed


def _postings(config: Config, postings=None) -> lexicon.Postings:
    """`postings` when given, else those of out_dir's index store."""
    if postings is None:
        postings = read_index_store(Path(config.out_dir) / "index_store.json")
    return postings


def _matrix(config: Config, postings):
    from . import cocluster as cc  # already loaded by cmd_cluster or cmd_export

    vocab = lexicon.build_vocabulary(postings, parse_threshold(config.threshold_mode))
    return vocab, cc.build_matrix(vocab, postings)


def cmd_cluster(config: Config, postings=None):
    """Co-cluster the documents; return the (matrix, clustering) it wrote."""
    # deferred: cocluster loads numpy, about 0.15 s that index never uses
    from . import cocluster as cc

    out = Path(config.out_dir)
    vocab, matrix = _matrix(config, _postings(config, postings))
    lexicon.save_vocabulary(vocab, out / "vocabulary.tsv")
    clustering = cc.cocluster(matrix, config.k, config.seed, config.refine_passes)
    cc.write_cluster_report(clustering, matrix, out / "clusters.json")
    return matrix, clustering


def cmd_export(config: Config, term: str = "", clustered=None) -> None:
    """Write an ego network or the cluster graph; `clustered` is cmd_cluster's result."""
    # deferred: both load numpy, about 0.15 s that index never uses
    from . import cocluster as cc, graphs

    if "/" in term or term in (".", ".."):
        raise SemindexError(f"--term {term!r} cannot be part of a file name")
    out = Path(config.out_dir)
    if clustered is None:
        clustered = _matrix(config, _postings(config))[1], None
    matrix, clustering = clustered
    if term:
        graph = graphs.ego_network(matrix, term)
        graphs.export_pajek(graph, out / f"ego_{term}.net")
    else:
        if clustering is None:
            clustering = cc.cocluster(matrix, config.k, config.seed, config.refine_passes)
        graph = graphs.cluster_graph(matrix, clustering)
        graphs.export_pajek(graph, out / "clusters.net")


def cmd_eval(config: Config, postings=None) -> None:
    if not config.gold_path:
        raise SemindexError("eval requires gold_path")
    produced = _postings(config, postings).accepted_sets()
    gold = metrics.load_gold(config.gold_path)
    precision, recall = metrics.precision_recall(produced, gold)
    print(f"precision\t{precision:.12f}")
    print(f"recall\t{recall:.12f}")


def cmd_pipeline(config: Config) -> None:
    """index, cluster, export and eval, each stage fed from the last in memory."""
    postings = index_postings(cmd_index(config))
    cmd_export(config, clustered=cmd_cluster(config, postings))
    if config.gold_path:
        cmd_eval(config, postings)


def _one_line(message: str) -> str:
    """`message` with each unprintable character (\\n, ESC, NUL, U+2028 ...) as its escape."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)


class _Parser(argparse.ArgumentParser):  # one escaped error line; subparsers inherit the class
    def error(self, message):
        super().error(_one_line(message))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    for name in Config.__dataclass_fields__:
        common.add_argument(f"--{name}")
    parser = _Parser(prog="semindex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("index", parents=[common])
    sub.add_parser("cluster", parents=[common])
    export = sub.add_parser("export", parents=[common])
    export.add_argument("--term", default="", help="center an ego network on this term")
    sub.add_parser("eval", parents=[common])
    sub.add_parser("pipeline", parents=[common])
    return parser


def main(argv=None) -> int:
    # Before numpy and scipy load: each starts an OpenBLAS pool whose idle
    # workers spin after every call, and these matrices are too small to
    # gain from it.  A value the user set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else Config()
        overrides = {
            name: getattr(args, name) for name in Config.__dataclass_fields__
        }
        config = _apply(config, overrides)
        if args.command == "index":
            cmd_index(config)
        elif args.command == "cluster":
            cmd_cluster(config)
        elif args.command == "export":
            cmd_export(config, args.term)
        elif args.command == "eval":
            cmd_eval(config)
        else:
            cmd_pipeline(config)
    except SemindexError as exc:
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print(_one_line(f"error: {module}.{type(exc).__name__}: {exc}"), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
