import collections
import hashlib
import json

import pytest

import generate

SMALL = {
    "intake": {"n_docs": 40},
    "archive": {"n_docs": 200, "n_classes": 60},
    "recluster": {"n_docs": 300, "n_terms": 90},
}


def _tree(path):
    return {
        str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.rglob("*")) if f.is_file()
    }


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_bytes(workload, root, tmp_path):
    make = generate.GENERATORS[workload]
    make(root, 5, tmp_path / "a", **SMALL[workload])
    make(root, 5, tmp_path / "b", **SMALL[workload])
    make(root, 6, tmp_path / "c", **SMALL[workload])
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_writing_over_a_larger_input_leaves_no_trace(workload, root, tmp_path):
    make = generate.GENERATORS[workload]
    make(root, 5, tmp_path / "fresh", **SMALL[workload])
    make(root, 6, tmp_path / "reused", **{k: 2 * n for k, n in SMALL[workload].items()})
    make(root, 5, tmp_path / "reused", **SMALL[workload])
    assert _tree(tmp_path / "fresh") == _tree(tmp_path / "reused")


def test_every_word_is_lowercase_alphabetic(root, tmp_path):
    generate.generate_archive(root, 1, tmp_path / "w", **SMALL["archive"])
    for doc in (tmp_path / "w" / "docs").iterdir():
        body = doc.read_text().partition("\n\n")[2]
        assert all(w.isalpha() and w.islower() for w in body.split())


def test_archive_routes_to_every_outcome(root, tmp_path):
    generate.generate_archive(root, 1, tmp_path / "w", **SMALL["archive"])
    docs = json.loads((tmp_path / "w" / "expected.json").read_text())["documents"]
    routings = collections.Counter(d["routing"] for d in docs)
    assert routings["Index"] == 6 and routings["StoreOnly"] == 6
    old = sum(generate.REFERENCE_YEAR - d["year"] > generate.OBSOLESCENCE_YEARS for d in docs)
    assert old == 68 and routings["Discard"] == 188


def test_predict_routing_rules():
    def doc(year, **terms):
        return {"id": "x", "year": year, "terms": {t: v for t, v in terms.items()}}

    docs = [
        doc(2010, port=[2, "T"], zuma=[1, "J"]),  # unseen word: Index
        doc(2010, port=[1, "T"]),  # same term as the last kept: StoreOnly
        doc(2010, ship=[3, "T"]),  # cosine 0 against the last kept: Discard
        doc(2004, gulo=[1, "J"]),  # too old, whatever it holds
        doc(2009, zuma=[1, "J"], port=[1, "T"]),  # zuma is known now
    ]
    assert generate.predict_routing(docs, {"port", "ship"}) == [
        "Index", "StoreOnly", "Discard", "Discard", "StoreOnly"]
