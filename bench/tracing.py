"""Spans around semindex's public functions, recorded from outside the program.

`Tracer.install()` replaces each function listed in `WRAPPED` by a timing
wrapper, in the module where its caller looks it up (`agents.tokenize`, not
`corpus.tokenize`, because agents imported the name).  Every call records a
span (name, start, end, parent span) in memory; `uninstall()` puts the
original functions back.  Self time is a span's duration less the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter

# (module, attribute, span name): the attribute is looked up by the caller
WRAPPED = (
    ("kb", "load_kb", "kb.load_kb"),
    ("agents", "quasi_synonyms", "kb.quasi_synonyms"),
    ("cli", "ingest", "corpus.ingest"),
    ("agents", "tokenize", "corpus.tokenize"),
    ("agents", "process_document", "agents.process_document"),
    ("agents", "run_pipeline", "agents.run_pipeline"),
    ("agents", "write_blackboard", "agents.write_blackboard"),
    ("cli", "write_index_store", "cli.write_index_store"),
    ("cli", "read_index_store", "cli.read_index_store"),
    ("lexicon", "build_vocabulary", "lexicon.build_vocabulary"),
    ("lexicon", "save_vocabulary", "lexicon.save_vocabulary"),
    ("cocluster", "build_matrix", "cocluster.build_matrix"),
    ("cocluster", "cocluster", "cocluster.cocluster"),
    ("cocluster", "normalize_matrix", "cocluster.normalize_matrix"),
    ("cocluster", "spectral_embed", "cocluster.spectral_embed"),
    ("cocluster", "kmeans_partition", "cocluster.kmeans_partition"),
    ("cocluster", "assign_word_clusters", "cocluster.assign"),
    ("cocluster", "assign_doc_clusters", "cocluster.assign"),
    ("cocluster", "write_cluster_report", "cocluster.write_cluster_report"),
    ("graphs", "ego_network", "graphs.ego_network"),
    ("graphs", "cluster_graph", "graphs.cluster_graph"),
    ("graphs", "export_pajek", "graphs.export_pajek"),
    ("metrics", "load_gold", "metrics.eval"),
    ("metrics", "precision_recall", "metrics.eval"),
)

ROOT = "cli.main"

# per-layer metric -> unit; a name ending in _s is a self time
PER_LAYER = {
    "kb.load_kb_s": "s",
    "kb.quasi_synonyms_s": "s",
    "kb.quasi_synonyms_calls": "count",
    "corpus.ingest_s": "s",
    "corpus.tokenize_s": "s",
    "corpus.tokens": "count",
    "agents.process_document_s": "s",
    "agents.run_pipeline_s": "s",
    "agents.write_blackboard_s": "s",
    "agents.write_blackboard_calls": "count",
    "agents.blackboard_bytes_written": "B",
    "agents.blackboard_amplification": "ratio",
    "agents.docs_index": "count",
    "agents.docs_store_only": "count",
    "agents.docs_discard": "count",
    "cli.write_index_store_s": "s",
    "cli.read_index_store_s": "s",
    "cli.read_index_store_calls": "count",
    "cli.index_store_bytes": "B",
    "lexicon.build_vocabulary_s": "s",
    "lexicon.build_vocabulary_calls": "count",
    "lexicon.vocab_terms": "count",
    "cocluster.build_matrix_s": "s",
    "cocluster.matrix_nnz": "count",
    "cocluster.normalize_matrix_s": "s",
    "cocluster.spectral_embed_s": "s",
    "cocluster.spectral_embed_failed": "count",
    "cocluster.kmeans_partition_s": "s",
    "cocluster.assign_s": "s",
    "cocluster.cocluster_calls": "count",
    "cocluster.write_cluster_report_s": "s",
    "graphs.ego_network_s": "s",
    "graphs.cluster_graph_s": "s",
    "graphs.export_pajek_s": "s",
    "graphs.pajek_bytes": "B",
    "metrics.eval_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
}


def _size(path) -> int:
    return os.stat(path).st_size


_ROUTING_COUNTS = {
    "Index": "agents.docs_index",
    "StoreOnly": "agents.docs_store_only",
    "Discard": "agents.docs_discard",
}


def _count_routing(tracer, args, result):
    for doc in result[0]:
        tracer.counts[_ROUTING_COUNTS[doc.routing.value]] += 1


def _blackboard_written(tracer, args, result):
    size = _size(args[1])
    tracer.counts["agents.blackboard_bytes_written"] += size
    tracer.blackboard_sizes[str(args[1])] = size


# span name -> what to count from a call's arguments and result
_AFTER = {
    "corpus.tokenize": lambda tr, a, r: tr.counts.update({"corpus.tokens": len(r)}),
    "agents.run_pipeline": _count_routing,
    "agents.write_blackboard": _blackboard_written,
    "cli.write_index_store": lambda tr, a, r: tr.counts.update(
        {"cli.index_store_bytes": _size(a[2])}),
    "lexicon.build_vocabulary": lambda tr, a, r: tr.counts.update(
        {"lexicon.vocab_terms": len(r)}),
    "cocluster.build_matrix": lambda tr, a, r: tr.counts.update(
        {"cocluster.matrix_nnz": int(r.A.nnz)}),
    "graphs.export_pajek": lambda tr, a, r: tr.counts.update(
        {"graphs.pajek_bytes": _size(a[1])}),
}


class Tracer:
    """In-memory spans and counts for the calls made while installed."""

    def __init__(self, package: dict):
        self.package = package  # module short name -> module
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.blackboard_sizes = {}
        self._stack = []
        self._originals = []

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span named `name`."""
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self.counts[name + "_calls"] += 1
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + "_failed"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            mod = self.package[module]
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self.span(name, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def reset(self) -> None:
        """Start a new round: counts restart, spans are kept."""
        self.counts.clear()
        self.blackboard_sizes.clear()

    def self_times(self, first: int = 0) -> Counter:
        """Self time by span name, over the spans from index `first` on."""
        spans = self.spans
        out = Counter()
        for span in spans[first:]:
            out[span[0]] += span[2] - span[1]
        for span in spans[first:]:
            parent = span[3]
            if parent >= first:
                out[spans[parent][0]] -= span[2] - span[1]
        return out

    def write(self, path) -> None:
        """Every span recorded, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps([i, name, start, end, parent]) + "\n")


def round_metrics(tracer: Tracer, first: int, wall: float) -> dict:
    """Per-layer metrics of one traced round: the spans from `first` on."""
    self_times = tracer.self_times(first)
    out = {}
    for name, unit in PER_LAYER.items():
        out[name] = self_times.get(name[:-2], 0.0) if unit == "s" else tracer.counts[name]
    final = sum(tracer.blackboard_sizes.values())
    written = out["agents.blackboard_bytes_written"]
    out["agents.blackboard_amplification"] = written / final if final else 0.0
    out["trace.wall_s"] = wall
    out["trace.coverage"] = sum(t for n, t in self_times.items() if n != ROOT) / wall
    return out


class CountsDiffer(Exception):
    pass


def summarize(rounds: list) -> dict:
    """Median of each time over the rounds; counts must agree exactly."""
    out = {}
    for name, unit in PER_LAYER.items():
        values = [r[name] for r in rounds]
        if unit in ("count", "B"):
            if len(set(values)) != 1:
                raise CountsDiffer(f"{name} differs between rounds: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out
