import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semindex.corpus import Document, ingest, tokenize
from semindex.errors import DuplicateId, MissingMetadata, SemindexError

from semindex.kb import KnowledgeBase


@pytest.fixture(scope="module")
def kb():
    return KnowledgeBase(
        canonical={},
        quasi_links={},
        stop_words=frozenset({"the"}),
        abbreviations={"intl.": "international"},
    )


def write_doc(path, doc_id, title="t", year=2009, body="some text"):
    path.write_text(f"id: {doc_id}\ntitle: {title}\nyear: {year}\n\n{body}\n", encoding="utf-8")
    return path


def test_ingest_preserves_order(tmp_path):
    a = write_doc(tmp_path / "a.txt", "a")
    b = write_doc(tmp_path / "b.txt", "b")
    corpus = ingest([a, b])
    assert [d.id for d in corpus] == ["a", "b"]
    assert corpus[0] == Document("a", 2009, "some text\n")


def test_ingest_duplicate_id(tmp_path):
    a = write_doc(tmp_path / "a.txt", "a")
    with pytest.raises(DuplicateId):
        ingest([a, a])


def test_ingest_missing_year(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("id: a\ntitle: t\n\nbody", encoding="utf-8")
    with pytest.raises(MissingMetadata):
        ingest([path])


def test_ingest_missing_title(tmp_path):
    # the title is checked, though no Document keeps it
    path = tmp_path / "a.txt"
    path.write_text("id: a\nyear: 2009\n\nbody", encoding="utf-8")
    with pytest.raises(MissingMetadata, match=r"a\.txt: missing 'title' header$"):
        ingest([path])


def test_tokenize_lowercase_and_full_stop(kb):
    assert tokenize(kb, "The Port. arrived") == ["the", "port", "arrived"]


def test_tokenize_drops_mixed_alnum(kb):
    assert tokenize(kb, "cargo X9 dock") == ["cargo", "dock"]


def test_tokenize_keeps_pure_digits(kb):
    assert tokenize(kb, "in 1492 Columbus") == ["in", "1492", "columbus"]


def test_tokenize_expands_abbreviations(kb):
    assert tokenize(kb, "Intl. trade") == ["international", "trade"]


text_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs")),
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(text_strategy)
def test_token_invariants_hold(kb, text):
    for word in tokenize(kb, text):
        assert word
        assert word == word.lower()
        assert not word.endswith(".")
        assert not (any(c.isalpha() for c in word) and any(c.isdigit() for c in word))


@settings(max_examples=200, deadline=None)
@given(text_strategy)
def test_tokenize_idempotent_on_joined_output(kb, text):
    once = tokenize(kb, text)
    twice = tokenize(kb, " ".join(once))
    assert once == twice


header_values = st.sampled_from(["a", "2009", "0", "-5", " 12 ", "1e3", "9" * 5000]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=8
)
header_lines = st.builds(
    "{}:{}".format, st.sampled_from(["id", "title", "year", " year ", "other"]), header_values
) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(headers=st.lists(st.lists(header_lines, max_size=5), min_size=1, max_size=3))
def test_any_headers_ingest_or_are_one_line_error(tmp_path_factory, headers):
    work = tmp_path_factory.mktemp("docs")
    paths = []
    for i, lines in enumerate(headers):
        paths.append(work / f"{i}.txt")
        paths[-1].write_bytes(("\n".join(lines) + "\n\nbody text\n").encode("utf-8"))
    try:
        docs = ingest(paths)
    except SemindexError as exc:
        assert len(str(exc).splitlines()) == 1
    else:
        assert len({doc.id for doc in docs}) == len(paths) and all(doc.year > 0 for doc in docs)
