import json
from pathlib import Path

import pytest

from semindex.agents import IndexedDocument, Routing, TermStatus
from semindex.cocluster import matrix_from_counts
from semindex.kb import load_kb

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
