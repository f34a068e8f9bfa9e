"""Test-only code: the brute-force ratio-cut oracle, a matrix builder by label, a KB writer,
a Pajek reader, and reference versions of the tokenizer, the proposition agent and the
index store check."""

import json
import re
import string
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from semindex.agents import Routing, TermStatus
from semindex.cocluster import Counts, TermDocMatrix
from semindex.errors import EmptyMatrix
from semindex.graphs import TermGraph


@dataclass(frozen=True)
class BipartiteGraph:
    term_vertices: tuple
    doc_vertices: tuple
    edges: tuple  # (term label, doc label, weight)

    @property
    def vertices(self) -> tuple:
        return self.term_vertices + self.doc_vertices


def matrix_from_counts(counts: dict, terms, docs) -> TermDocMatrix:
    """The matrix of {(term, doc): count}; the labels give the order."""
    terms = tuple(terms)
    docs = tuple(docs)
    ti = {t: i for i, t in enumerate(terms)}
    dj = {d: j for j, d in enumerate(docs)}
    cells = np.array([(ti[t], dj[d], c) for (t, d), c in counts.items() if c], float).reshape(-1, 3)
    A = Counts(cells[:, 0].astype(np.intp), cells[:, 1].astype(np.intp), cells[:, 2])
    row_deg = np.bincount(A.row, A.count, len(terms))
    col_deg = np.bincount(A.col, A.count, len(docs))
    if (row_deg == 0).any() or (col_deg == 0).any():
        raise EmptyMatrix("zero row or column in explicit count matrix")
    return TermDocMatrix(A, terms, docs, row_deg, col_deg)


def graph_from_matrix(m: TermDocMatrix) -> BipartiteGraph:
    A = m.A
    edges = tuple(
        (m.terms[i], m.docs[j], w)
        for i, j, w in zip(A.row.tolist(), A.col.tolist(), A.count.tolist())
    )
    return BipartiteGraph(tuple(m.terms), tuple(m.docs), edges)


def ratio_cut(g: BipartiteGraph, v1, v2) -> float:
    """cut(V1,V2)/|V1| + cut(V1,V2)/|V2| for a bipartition of the vertices."""
    v1, v2 = set(v1), set(v2)
    if not v1 or not v2:
        raise ValueError("both sides of the partition must be nonempty")
    if v1 | v2 != set(g.vertices) or v1 & v2:
        raise ValueError("V1 and V2 must partition the vertex set")
    cut = sum(w for a, b, w in g.edges if (a in v1) != (b in v1))
    return cut / len(v1) + cut / len(v2)


def brute_force_min_ratio_cut(g: BipartiteGraph):
    """Exhaustive minimum ratio-cut bipartition; oracle for graphs of 2 to 20 vertices."""
    vertices = list(g.vertices)
    n = len(vertices)
    if n > 20:
        raise ValueError(f"{n} vertices exceeds the brute-force limit of 20")
    if n < 2:
        raise ValueError("need at least two vertices to bipartition")
    best = None
    for mask in range(0, 1 << (n - 1)):
        side = {vertices[i] for i in range(n) if mask & (1 << i)} | {vertices[n - 1]}
        other = set(vertices) - side
        if not other:
            continue
        cut = sum(w for a, b, w in g.edges if (a in side) != (b in side))
        value = cut / len(side) + cut / len(other)
        a, b = sorted(side), sorted(other)
        key = (value, min(a, b))
        if best is None or key < best:
            best = key
    value, v1 = best
    return set(v1), value


def save_kb(kb, path) -> None:
    """Write a KB back out in key order, one class per canonical and named by it;
    load_kb(save_kb(x)) == x."""
    members = {}
    for surface, canonical in sorted(kb.canonical.items()):
        members.setdefault(canonical, []).append(surface)
    data = {
        "classes": [
            {"id": c, "canonical": c, "members": members[c], "quasi": sorted(kb.quasi_links[c])}
            for c in sorted(members)
        ],
        "categories": [{"surface": s, "category": "noun"} for s in sorted(kb.canonical)],
        "stop_words": sorted(kb.stop_words),
        "abbreviations": {k: kb.abbreviations[k] for k in sorted(kb.abbreviations)},
    }
    Path(path).write_text(json.dumps(data, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def parse_pajek(path) -> TermGraph:
    """Read back a file as export_pajek writes it, vertices numbered 1..n; ValueError on other text."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = re.fullmatch(r"\*Vertices (\d+)", lines[0]) if lines else None
    if not header:
        raise ValueError("missing or bad *Vertices header")
    count = int(header.group(1))
    labels = []
    for number, line in enumerate(lines[1:count + 1], 1):
        match = re.fullmatch(r'(\d+) "(.*)"', line)
        if not match or match.group(1) != str(number):
            raise ValueError(f"bad vertex line {line!r}")
        labels.append(match.group(2))
    if lines[count + 1:count + 2] != ["*Edges"]:  # also when vertex lines are missing
        raise ValueError("missing *Edges section")
    edges = []
    for line in lines[count + 2:]:
        match = re.fullmatch(r"(\d+) (\d+) (\S+)", line)
        if not match:
            raise ValueError(f"bad edge line {line!r}")
        u, v, w = int(match.group(1)) - 1, int(match.group(2)) - 1, float(match.group(3))
        if not (0 <= u < count and 0 <= v < count):
            raise ValueError(f"edge {line!r} names a vertex outside 1..{count}")
        edges.append((u, v, w))
    return TermGraph(tuple(labels), tuple(edges))


def recursive_tokenize(kb, text: str):
    """tokenize written as a recursion over each expansion, with no bound on its
    steps: (the words, the most expansion parts taken for one whitespace-split
    word).  Python's recursion limit bounds the chain depth it can take."""
    out = []
    steps = [0]

    def clean(word, seen):
        stripped = word.strip(string.punctuation)
        for form in (word, stripped):
            if form in kb.abbreviations and form not in seen:
                for part in kb.abbreviations[form].split():
                    steps[-1] += 1
                    clean(part, seen | {form})
                return
        if stripped and not (any(c.isalpha() for c in stripped)
                             and any(c.isdigit() for c in stripped)):
            out.append(stripped)

    for raw in text.split():
        clean(raw.lower(), frozenset())
        steps.append(0)
    return out, max(steps)


def set_proposition(kb, term_map: dict) -> dict:
    """proposition_agent through the set of the map's Accepted terms: a MorphError
    term is rescued when that set meets its quasi-synonym links."""
    accepted = {term for term, (_, status) in term_map.items() if status is TermStatus.ACCEPTED}
    return term_map | {
        term: (n, TermStatus.ACCEPTED)
        for term, (n, status) in term_map.items()
        if status is TermStatus.MORPH_ERROR
        and term in kb.quasi_links
        and not accepted.isdisjoint(kb.quasi_links[term])
    }


STATUS_CODES = frozenset(s.value for s in TermStatus)
ROUTING_CODES = frozenset(r.value for r in Routing)
_N, _STATUS = itemgetter("n"), itemgetter("status")


def reference_index_columns(documents):
    """The index store check in two passes: the columns of the Index documents
    after a check of the whole store at once, or, when that check fails, the
    fault of the first malformed document in store order as a ValueError with
    the message the store reader gave after the path (a missing key is not
    named by its document)."""
    try:
        try:
            return _whole_store_columns(documents)
        except (AttributeError, KeyError, TypeError, ValueError):
            _first_fault(documents)
            raise
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from None
    except (AttributeError, TypeError) as exc:
        raise ValueError(str(exc)) from None


def _whole_store_columns(documents):
    routings, docs, lengths, terms, values, other = [], [], [], [], [], []
    for doc_id, entry in sorted(documents.items()):
        routing, doc_terms = entry["routing"], entry["terms"]
        routings.append(routing)
        if routing == Routing.INDEX.value:
            docs.append(doc_id)
            lengths.append(len(doc_terms))
            terms += doc_terms
            values += doc_terms.values()
        else:
            other += doc_terms.values()
    counts, statuses = list(map(_N, values)), list(map(_STATUS, values))
    if not (
        set(map(type, chain(counts, map(_N, other)))) <= {int}
        and STATUS_CODES.issuperset(chain(statuses, map(_STATUS, other)))
        and ROUTING_CODES.issuperset(routings)
    ):
        raise ValueError("malformed index store")
    return docs, lengths, terms, counts, statuses


def _first_fault(documents) -> None:
    if not isinstance(documents, dict):
        raise ValueError("documents is not an object")
    for doc_id, entry in documents.items():
        if not isinstance(entry, dict):
            raise ValueError(f"document {doc_id!r} is not an object")
        routing, terms = entry["routing"], entry["terms"]
        if not isinstance(terms, dict):
            raise ValueError(f"document {doc_id!r}: terms is not an object")
        for term, value in terms.items():
            if not isinstance(value, dict):
                raise ValueError(f"document {doc_id!r}: term {term!r} is not an object")
        counts = [value["n"] for value in terms.values()]
        statuses = [value["status"] for value in terms.values()]
        if not set(map(type, counts)) <= {int}:
            bad = next(n for n in counts if type(n) is not int)
            raise ValueError(f"document {doc_id!r}: n = {bad!r} is not an integer")
        bad = [s for s in statuses if type(s) is not str or s not in STATUS_CODES]
        if bad:
            raise ValueError(f"document {doc_id!r}: unknown term status {bad[0]!r}")
        if type(routing) is not str or routing not in ROUTING_CODES:
            raise ValueError(f"document {doc_id!r}: unknown routing {routing!r}")
