"""Checks of semindex's outputs, computed apart from semindex.

Each check raises `CheckFailed` with a one-line reason.  The references
come from the generator (`expected.json`); the vocabulary, the matrix and
every number recomputed from a store use only json and numpy/scipy.
"""

from __future__ import annotations

import itertools
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import scipy.sparse as sp

RECOVERY = 0.95  # acceptance criterion 2's agreement with the planted topics


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def load_store(path) -> dict:
    """doc id -> {"routing", "year", "terms": {term: (n, status)}}."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        doc_id: {
            "routing": entry["routing"],
            "year": entry["year"],
            "terms": {t: (v["n"], v["status"]) for t, v in entry["terms"].items()},
        }
        for doc_id, entry in data["documents"].items()
    }


def check_store(store: dict, expected: dict) -> None:
    """Every document is stored with its predicted routing, year and terms."""
    docs = expected["documents"]
    _require(sorted(store) == sorted(d["id"] for d in docs),
             "index store does not hold exactly the generated documents")
    for doc in docs:
        got = store[doc["id"]]
        _require(got["routing"] == doc["routing"],
                 f"{doc['id']}: routed {got['routing']}, expected {doc['routing']}")
        _require(got["year"] == doc["year"], f"{doc['id']}: wrong year {got['year']}")
        want = {t: tuple(v) for t, v in doc["terms"].items()}
        _require(got["terms"] == want, f"{doc['id']}: terms differ from the placed words")


def check_blackboard(path, expected: dict) -> None:
    """The blackboard lists the non-discarded documents, in corpus order,
    with their routing, year and accepted-term counts."""
    root = ET.parse(path).getroot()
    _require(root.tag == "blackboard", "blackboard root element is not <blackboard>")
    got = [
        (e.get("id"), e.get("routing"), int(e.get("year")),
         {t.get("c"): int(t.get("n")) for t in e})
        for e in root
    ]
    want = [
        (d["id"], d["routing"], d["year"],
         {t: n for t, (n, s) in d["terms"].items() if s == "T"})
        for d in expected["documents"] if d["routing"] != "Discard"
    ]
    _require(got == want, f"blackboard lists {len(got)} entries, expected {len(want)} "
             "or different contents")


def check_eval(stdout: str) -> None:
    """`eval` against the generator's gold gives precision 1 and recall 1."""
    lines = stdout.splitlines()[-2:]
    _require(lines == ["precision\t1.000000000000", "recall\t1.000000000000"],
             f"eval printed {lines!r}, expected precision 1 and recall 1")


class Matrix:
    """The term-document count matrix of a store, built with numpy/scipy.

    Vocabulary: terms scored by their total count over Index documents,
    Rejected entries left out, kept when the score reaches 2, ordered by
    descending score then term.  Columns: Index documents in id order that
    hold a vocabulary term.
    """

    def __init__(self, store: dict, min_count: int = 2):
        index_ids = sorted(d for d, e in store.items() if e["routing"] == "Index")
        scores = {}
        for doc_id in index_ids:
            for term, (n, status) in store[doc_id]["terms"].items():
                if status != "F":
                    scores[term] = scores.get(term, 0) + n
        self.vocab = sorted((t for t, n in scores.items() if n >= min_count),
                            key=lambda t: (-scores[t], t))
        self.scores = {t: scores[t] for t in self.vocab}
        row = {t: i for i, t in enumerate(self.vocab)}
        rows, cols, vals = [], [], []
        for j, doc_id in enumerate(index_ids):
            for term, (n, status) in store[doc_id]["terms"].items():
                if status != "F" and term in row and n > 0:
                    rows.append(row[term])
                    cols.append(j)
                    vals.append(n)
        A = sp.csc_matrix((vals, (rows, cols)), shape=(len(self.vocab), len(index_ids)),
                          dtype=np.int64)
        keep = np.flatnonzero(np.diff(A.indptr) > 0)
        self.A = A[:, keep].tocsr()
        self.terms = list(self.vocab)
        self.docs = [index_ids[j] for j in keep]
        self.term_pos = {t: i for i, t in enumerate(self.terms)}
        self.doc_pos = {d: j for j, d in enumerate(self.docs)}

    def block_mass(self, words, docs) -> int:
        rows = [self.term_pos[t] for t in words]
        cols = [self.doc_pos[d] for d in docs]
        if not rows or not cols:
            return 0
        return int(self.A[rows][:, cols].sum())


def check_vocabulary(path, m: Matrix) -> None:
    want = "".join(f"{t}\t{m.scores[t]:g}\n" for t in m.vocab)
    _require(Path(path).read_text(encoding="utf-8") == want,
             "vocabulary.tsv differs from the recomputed vocabulary")


def load_clusters(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_partition(report: dict, m: Matrix) -> None:
    """The clusters partition the matrix's terms and its documents."""
    clusters = report["clusters"]
    _require(report["k"] == len(clusters) >= 1, "k does not match the cluster list")
    _require([c["id"] for c in clusters] == list(range(1, len(clusters) + 1)),
             "cluster ids are not 1..k")
    for key, labels in (("words", m.terms), ("docs", m.docs)):
        members = [x for c in clusters for x in c[key]]
        _require(len(members) == len(set(members)), f"a {key[:-1]} sits in two clusters")
        _require(set(members) == set(labels), f"clusters do not cover the matrix {key}")


def cross_mass(report: dict, m: Matrix, a: int, b: int) -> int:
    """Matrix mass between word cluster a and doc cluster b, and b and a."""
    ca, cb = report["clusters"][a], report["clusters"][b]
    return m.block_mass(ca["words"], cb["docs"]) + m.block_mass(cb["words"], ca["docs"])


def check_ratio_cut(report: dict, m: Matrix) -> None:
    """ratio_cut_2way equals cut/|V1| + cut/|V2| recomputed from the matrix."""
    if report["k"] != 2:
        _require("ratio_cut_2way" not in report, "ratio_cut_2way reported for k != 2")
        return
    c1, c2 = report["clusters"]
    cut = cross_mass(report, m, 0, 1)
    n1 = len(c1["words"]) + len(c1["docs"])
    n2 = len(c2["words"]) + len(c2["docs"])
    _require(report.get("ratio_cut_2way") == cut / n1 + cut / n2,
             f"ratio_cut_2way {report.get('ratio_cut_2way')} != {cut / n1 + cut / n2}")


_VERTEX = re.compile(r'^(\d+) "(.*)"$')


def parse_net(path):
    """(vertex labels, [(u, v, weight)]) of a Pajek file, checked strictly."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    _require(lines[-1] == "", f"{path}: no final newline")
    lines = lines[:-1]
    head = re.fullmatch(r"\*Vertices (\d+)", lines[0])
    _require(head is not None, f"{path}: bad *Vertices line")
    n = int(head.group(1))
    labels = []
    for i, line in enumerate(lines[1:n + 1], start=1):
        match = _VERTEX.match(line)
        _require(match is not None and int(match.group(1)) == i, f"{path}: bad vertex {line!r}")
        labels.append(match.group(2))
    _require(lines[n + 1] == "*Edges", f"{path}: missing *Edges")
    edges = []
    for line in lines[n + 2:]:
        u, v, w = line.split(" ")
        edges.append((int(u), int(v), float(w)))
    return labels, edges


def check_cluster_net(path, report: dict, m: Matrix) -> None:
    """One vertex per cluster; each edge weight is the cross-cluster mass."""
    labels, edges = parse_net(path)
    k = report["k"]
    _require(labels == [f"cluster-{i}" for i in range(1, k + 1)], f"{path}: wrong vertices")
    want = []
    for a, b in itertools.combinations(range(k), 2):
        mass = cross_mass(report, m, a, b)
        if mass > 0:
            want.append((a + 1, b + 1, float(mass)))
    _require(edges == want, f"{path}: edges {edges} != recomputed {want}")


def check_ego(path, term: str, m: Matrix) -> None:
    """The terms sharing a document with `term`, in matrix order, each
    weighted by the number of documents shared."""
    labels, edges = parse_net(path)
    B = (m.A > 0).astype(np.int64)
    shared = np.asarray((B @ B[m.term_pos[term]].T).todense()).ravel()
    others = [i for i in np.flatnonzero(shared) if m.terms[i] != term]
    _require(labels == [term] + [m.terms[i] for i in others], f"{path}: wrong vertices")
    want = [(1, n, float(shared[i])) for n, i in enumerate(others, start=2)]
    _require(edges == want, f"{path}: wrong edge weights")


def recovery(groups, topics: dict) -> float:
    """Best share of labels whose group matches their planted topic,
    over every matching of groups to topics."""
    labels = [x for g in groups for x in g]
    n_topics = max(topics[x] for x in labels) + 1
    best = 0
    for perm in itertools.permutations(range(max(n_topics, len(groups))), len(groups)):
        hits = sum(topics[x] == perm[g] for g, members in enumerate(groups) for x in members)
        best = max(best, hits)
    return best / len(labels)


def check_recovery(report: dict, expected: dict, k: int) -> None:
    """At the planted k, words and documents land in their planted topics."""
    _require(report["k"] == k, f"{report['k']} clusters at the planted k={k}")
    term_topics = expected["term_topics"]
    doc_topics = {d["id"]: d["topic"] for d in expected["documents"]}
    for key, topics in (("words", term_topics), ("docs", doc_topics)):
        rate = recovery([c[key] for c in report["clusters"]], topics)
        _require(rate >= RECOVERY, f"planted {key} recovered at {rate:.3f} < {RECOVERY}")
