import json
from pathlib import Path

import numpy as np
import pytest

from semindex.agents import IndexedDocument, Routing, TermStatus
from semindex.cocluster import assign_doc_clusters, assign_word_clusters
from semindex.kb import load_kb

from oracles import matrix_from_counts

REPO = Path(__file__).resolve().parent.parent
MINI = REPO / "data" / "mini_corpus"


@pytest.fixture(scope="session")
def mini_kb():
    return load_kb(MINI / "kb.json")


@pytest.fixture(scope="session")
def mini_doc_paths():
    return sorted((MINI / "docs").glob("*.txt"))


def kb_file(tmp_path, data):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def make_kb(tmp_path, **data):
    return load_kb(kb_file(tmp_path, data))


def make_doc(doc_id, counts, routing=Routing.INDEX, status=TermStatus.ACCEPTED):
    return IndexedDocument(doc_id, {t: (n, status) for t, n in counts.items()}, routing)


def mstar():
    """The 4x3 block matrix used across the numeric tests."""
    return matrix_from_counts(
        {
            ("w1", "d1"): 2,
            ("w2", "d1"): 1,
            ("w3", "d2"): 3,
            ("w3", "d3"): 1,
            ("w4", "d2"): 1,
            ("w4", "d3"): 2,
        },
        ["w1", "w2", "w3", "w4"],
        ["d1", "d2", "d3"],
    )


def dense(m):
    """The counts of a TermDocMatrix as a dense terms x documents array."""
    A = np.zeros(m.shape)
    A[m.A.row, m.A.col] = m.A.count
    return A


def _labels(parts, names):
    return np.array([next(g for g, part in enumerate(parts) if x in part) for x in names])


def _parts(labels, names, k):
    return tuple(frozenset(x for x, g in zip(names, labels) if g == c) for c in range(k))


def cluster_sets(m, cc):
    """The word and the document clusters of a CoClustering, each a tuple of label sets."""
    return _parts(cc.word_labels, m.terms, cc.k), _parts(cc.doc_labels, m.docs, cc.k)


def assign_words(m, doc_parts):
    """assign_word_clusters with the clusters given and returned as sets of labels."""
    k = len(doc_parts)
    return _parts(assign_word_clusters(m, _labels(doc_parts, m.docs), k), m.terms, k)


def assign_docs(m, word_parts):
    """assign_doc_clusters with the clusters given and returned as sets of labels."""
    k = len(word_parts)
    return _parts(assign_doc_clusters(m, _labels(word_parts, m.terms), k), m.docs, k)
