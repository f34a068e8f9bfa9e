import pytest

from semindex.errors import MalformedGold, NoOverlap
from semindex.metrics import load_gold, precision_recall


def test_half_and_half():
    p, r = precision_recall({"d1": {"a", "b"}}, {"d1": {"a", "c"}})
    assert (p, r) == (0.5, 0.5)


def test_identity():
    gold = {"d1": {"a"}, "d2": {"b", "c"}}
    assert precision_recall(dict(gold), gold) == (1.0, 1.0)


def test_empty_produced_convention():
    assert precision_recall({"d1": set()}, {"d1": {"a"}}) == (0.0, 0.0)


def test_no_overlap():
    with pytest.raises(NoOverlap):
        precision_recall({"d1": {"a"}}, {"d2": {"a"}})


def test_doc_order_invariant():
    produced = {"d1": {"a"}, "d2": {"b"}}
    gold = {"d2": {"b"}, "d1": {"x"}}
    assert precision_recall(produced, gold) == precision_recall(
        dict(reversed(list(produced.items()))), gold
    )


def test_adding_correct_term_never_lowers_recall():
    produced = {"d1": {"a"}}
    gold = {"d1": {"a", "b"}}
    _, r0 = precision_recall(produced, gold)
    _, r1 = precision_recall({"d1": {"a", "b"}}, gold)
    assert r1 >= r0


def test_adding_wrong_term_never_raises_precision():
    gold = {"d1": {"a"}}
    p0, _ = precision_recall({"d1": {"a"}}, gold)
    p1, _ = precision_recall({"d1": {"a", "zzz"}}, gold)
    assert p1 <= p0


def test_bounds():
    p, r = precision_recall({"d1": {"a", "b", "c"}}, {"d1": {"z"}})
    assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0


def test_load_gold(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("d1\tport\nd1\tcargo\nd2\tsea\n", encoding="utf-8")
    assert load_gold(path) == {"d1": {"port", "cargo"}, "d2": {"sea"}}


def test_load_gold_line_without_tab(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("d1\tport\nd2 sea\n", encoding="utf-8")
    with pytest.raises(MalformedGold, match=r"gold\.tsv:2: expected doc_id<TAB>term"):
        load_gold(path)
