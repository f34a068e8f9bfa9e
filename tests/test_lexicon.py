import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semindex.cli import index_postings
from semindex.errors import EmptyVocabulary
from semindex.lexicon import MinCount, TopN, build_vocabulary, stem

from conftest import make_doc


@pytest.mark.parametrize(
    "word,expected",
    [
        ("cities", "city"),
        ("ss", "ss"),
        ("port", "port"),
        ("harbors", "harbor"),
        ("classes", "class"),
        ("operations", "operate"),
        ("loading", "load"),
        ("crossed", "cross"),
        ("sing", "sing"),  # -ing guard keeps the short stem intact
    ],
)
def test_stem_rule_table(word, expected):
    assert stem(word) == expected


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=15))
def test_stem_idempotent(word):
    assert stem(stem(word)) == stem(word)


def test_build_vocabulary_min_count():
    docs = [make_doc("d1", {"port": 5, "quay": 1})]
    vocab = build_vocabulary(index_postings(docs), MinCount(2))
    assert vocab.terms == ("port",)


def test_build_vocabulary_top_n_tie_break():
    docs = [make_doc("d1", {"a": 3, "b": 3, "c": 1})]
    vocab = build_vocabulary(index_postings(docs), TopN(2))
    assert vocab.terms == ("a", "b")


def test_build_vocabulary_empty():
    with pytest.raises(EmptyVocabulary):
        build_vocabulary(index_postings([make_doc("d1", {"x": 1})]), MinCount(5))


def test_build_vocabulary_ignores_non_index_docs():
    from semindex.agents import Routing

    docs = [
        make_doc("d1", {"port": 2}),
        make_doc("d2", {"port": 9, "quay": 9}, routing=Routing.STORE_ONLY),
    ]
    vocab = build_vocabulary(index_postings(docs), MinCount(1))
    assert vocab.terms == ("port",)
    assert vocab.scores["port"] == 2


def test_build_vocabulary_order_invariant():
    docs = [make_doc("d1", {"a": 1, "b": 4}), make_doc("d2", {"a": 2})]
    assert build_vocabulary(index_postings(docs), MinCount(1)) == build_vocabulary(
        index_postings(list(reversed(docs))), MinCount(1)
    )


def test_top_n_size_is_min_of_n_and_survivors():
    docs = [make_doc("d1", {"a": 1, "b": 2})]
    assert len(build_vocabulary(index_postings(docs), TopN(10))) == 2
