"""The index store's writer and reader, and the postings that feed the matrix."""

import contextlib
import gc
import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semindex import cli
from semindex.agents import IndexedDocument, Routing, TermStatus
from semindex.cocluster import build_matrix
from semindex.errors import EmptyMatrix, EmptyVocabulary, MalformedIndexStore
from semindex.lexicon import MinCount, TopN, Vocabulary, build_vocabulary

from conftest import dense
from oracles import reference_index_columns

# any Unicode but lone surrogates, which UTF-8 cannot encode
any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
few_terms = st.sampled_from(["a", "b", "c", "d", "e", "port", "quay"])


def documents(ids, terms, counts=st.integers(0, 4)):
    """Lists of IndexedDocument with distinct ids and every routing and status."""
    doc = st.tuples(
        ids,
        st.dictionaries(terms, st.tuples(counts, st.sampled_from(TermStatus)), max_size=6),
        st.sampled_from(Routing),
    )
    return st.lists(doc, max_size=8, unique_by=lambda d: d[0]).map(
        lambda docs: [IndexedDocument(*d) for d in docs]
    )


stores = st.tuples(
    documents(any_text, any_text, st.integers(-(2**63), 2**63)),
    st.integers(-(10**6), 10**6),
)


def reference_store_text(docs, year) -> str:
    data = {
        "documents": {
            d.doc_id: {
                "routing": d.routing.value,
                "year": year,
                "terms": {t: {"n": n, "status": s.value} for t, (n, s) in d.terms.items()},
            }
            for d in docs
        }
    }
    return json.dumps(data, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


@settings(max_examples=150, deadline=None)
@given(store=stores)
@example(store=([], 2010))
@example(store=([IndexedDocument('"\\\x00\x1f\U0001f600', {}, Routing.DISCARD)], 0))
def test_writer_matches_json_dumps(tmp_path_factory, store):
    docs, year = store
    path = tmp_path_factory.mktemp("store") / "index_store.json"
    cli.write_index_store(docs, {d.doc_id: year for d in docs}, path)
    assert path.read_bytes() == reference_store_text(docs, year).encode("utf-8")


def canonical(postings):
    """The postings as documents plus a sorted list of labelled entries."""
    entries = zip(
        (postings.docs[j] for j in postings.doc),
        (postings.terms[i] for i in postings.term),
        postings.count.tolist(),
        postings.accepted.tolist(),
    )
    return postings.docs, sorted(entries)


@settings(max_examples=150, deadline=None)
@given(store=stores)
def test_read_back_postings_equal_in_memory_postings(tmp_path_factory, store):
    docs, year = store
    path = tmp_path_factory.mktemp("store") / "index_store.json"
    cli.write_index_store(docs, {d.doc_id: year for d in docs}, path)
    read = cli.read_index_store(path)
    built = cli.index_postings(docs)
    assert canonical(read) == canonical(built)
    index_docs = [d for d in docs if d.routing is Routing.INDEX]
    assert read.docs == tuple(sorted(d.doc_id for d in index_docs))
    assert len(set(read.terms)) == len(read.terms)
    kept = sum(s is not TermStatus.REJECTED for d in index_docs for _, s in d.terms.values())
    assert len(read.term) == len(read.doc) == len(read.count) == len(read.accepted) == kept


def old_build_vocabulary(indexed_docs, threshold_mode) -> Vocabulary:
    """build_vocabulary as it was, over IndexedDocument lists."""
    counts = Counter()
    for doc in indexed_docs:
        if doc.routing is not Routing.INDEX:
            continue
        for term, (count, status) in doc.terms.items():
            if status is TermStatus.REJECTED:
                continue
            counts[term] += count
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    if isinstance(threshold_mode, MinCount):
        kept = [t for t in ranked if counts[t] >= threshold_mode.count]
    else:
        kept = ranked[: threshold_mode.n]
    if not kept:
        raise EmptyVocabulary("no term survives the threshold")
    return Vocabulary(tuple(kept), {t: float(counts[t]) for t in kept})


def old_build_matrix(vocab, indexed_docs):
    """build_matrix as it was: (dense A, terms, docs)."""
    index_docs = [d for d in indexed_docs if d.routing is Routing.INDEX]
    A = np.zeros((len(vocab.terms), len(index_docs)))
    for j, doc in enumerate(index_docs):
        for term, (count, status) in doc.terms.items():
            if status is not TermStatus.REJECTED and term in vocab.terms and count > 0:
                A[vocab.terms.index(term), j] = count
    if not A.any():
        raise EmptyMatrix("no vocabulary term occurs in any Index document")
    rows, cols = A.any(axis=1), A.any(axis=0)
    return (
        A[rows][:, cols],
        tuple(t for t, r in zip(vocab.terms, rows) if r),
        tuple(d.doc_id for d, c in zip(index_docs, cols) if c),
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except (EmptyVocabulary, EmptyMatrix) as exc:
        return type(exc)


# totals: c 3, then a, b and d tied at 2
TIED_TOTALS = [
    IndexedDocument("d1", {"d": (1, TermStatus.ACCEPTED), "c": (3, TermStatus.MORPH_ERROR),
                           "a": (2, TermStatus.ACCEPTED), "b": (1, TermStatus.ACCEPTED)},
                    Routing.INDEX),
    IndexedDocument("d2", {"b": (1, TermStatus.MORPH_ERROR), "d": (1, TermStatus.ACCEPTED),
                           "e": (1, TermStatus.ACCEPTED)}, Routing.INDEX),
]
thresholds = st.one_of(st.builds(MinCount, st.integers(0, 5)), st.builds(TopN, st.integers(0, 6)))


@settings(max_examples=150, deadline=None)
@given(
    docs=documents(st.sampled_from([f"d{i}" for i in range(10)]), few_terms),
    other=documents(st.sampled_from(["x1", "x2"]), few_terms),
    threshold=thresholds,
)
@example(docs=TIED_TOTALS, other=[], threshold=MinCount(2))
@example(docs=TIED_TOTALS, other=[], threshold=TopN(2))
def test_vocabulary_and_matrix_match_old_formulas(docs, other, threshold):
    postings = cli.index_postings(docs)
    docs.sort(key=lambda d: d.doc_id)  # the order the old formulas were given
    vocab = outcome(build_vocabulary, postings, threshold)
    assert vocab == outcome(old_build_vocabulary, docs, threshold)
    # a vocabulary from other documents leaves some rows and columns empty
    for v in (vocab, outcome(build_vocabulary, cli.index_postings(other), MinCount(0))):
        if not isinstance(v, Vocabulary):
            continue
        m = outcome(build_matrix, v, postings)
        old = outcome(old_build_matrix, v, docs)
        if m is EmptyMatrix or old is EmptyMatrix:
            assert m is old
            continue
        A, *labels = old
        assert np.array_equal(dense(m), A)
        assert [m.terms, m.docs] == labels
        assert m.row_degrees.tolist() == A.sum(axis=1).tolist()
        assert m.col_degrees.tolist() == A.sum(axis=0).tolist()


def test_accepted_sets_keep_index_documents_without_accepted_terms():
    docs = [
        IndexedDocument("d2", {"port": (2, TermStatus.ACCEPTED), "x": (1, TermStatus.MORPH_ERROR)},
                        Routing.INDEX),
        IndexedDocument("d1", {"quay": (1, TermStatus.REJECTED)}, Routing.INDEX),
        IndexedDocument("d3", {"sea": (4, TermStatus.ACCEPTED)}, Routing.STORE_ONLY),
    ]
    assert cli.index_postings(docs).accepted_sets() == {"d1": set(), "d2": {"port"}}


def valid_store() -> dict:
    term = {"n": 2, "status": "T"}
    return {
        "documents": {
            "d1": {"routing": "Index", "terms": {"port": dict(term)}, "year": 2009},
            "d2": {"routing": "Discard", "terms": {"quay": dict(term)}, "year": 1990},
        }
    }


_DROP = object()


def _edit(path, value=_DROP):
    """A mutation that sets, or by default deletes, the key at `path`; it returns the store.

    The empty path replaces the whole store by `value`.
    """
    def mutate(store):
        if not path:
            return value
        *parents, last = path
        parent = store
        for key in parents:
            parent = parent[key]
        if value is _DROP:
            del parent[last]
        else:
            parent[last] = value
        return store
    return mutate


D1, D2 = ("documents", "d1"), ("documents", "d2")


@pytest.mark.parametrize("mutate, detail", [
    (_edit((*D1, "terms", "port", "status"), "X"), "unknown term status 'X'"),
    (_edit((*D2, "terms", "quay", "status"), "X"), "unknown term status 'X'"),
    (_edit((*D1, "routing"), "Maybe"), "unknown routing 'Maybe'"),
    (_edit((*D1, "terms", "port", "status"), []), "document 'd1': unknown term status []"),
    (_edit((*D1, "routing"), {}), "document 'd1': unknown routing {}"),
    (_edit(("documents",)), "missing key 'documents'"),
    (_edit((*D1, "terms")), "document 'd1': missing key 'terms'"),
    (_edit((*D2, "routing")), "document 'd2': missing key 'routing'"),
    (_edit((*D1, "terms", "port", "n")), "document 'd1': missing key 'n'"),
    (_edit((*D2, "terms", "quay", "n")), "document 'd2': missing key 'n'"),
    (_edit((*D1, "terms", "port", "n"), 1.5), "n = 1.5 is not an integer"),
    (_edit((*D1, "terms", "port", "n"), "2"), "n = '2' is not an integer"),
    (_edit((*D2, "terms", "quay", "n"), True), "n = True is not an integer"),
    (_edit((), []), ": the top level is not an object"),
    (_edit(("documents",), []), ": documents is not an object"),
    (_edit(D2, []), "document 'd2' is not an object"),
    (_edit((*D1, "terms"), []), "document 'd1': terms is not an object"),
    (_edit((*D2, "terms", "quay"), []), "document 'd2': term 'quay' is not an object"),
    (_edit((*D1, "terms", "port", "n"), 10**400), "a term count is too large for a float"),
    (None, "(char "),
], ids=[
    "status", "status-discarded", "routing", "status-list", "routing-object", "no-documents", "no-terms", "no-routing", "no-n",
    "no-n-discarded", "float-n", "string-n", "bool-n", "top-level-list", "documents-list",
    "document-list", "terms-list", "term-list", "huge-n", "truncated",
])
def test_malformed_index_store_is_domain_error(tmp_path, capsys, mutate, detail):
    out = tmp_path / "out"
    out.mkdir()
    store = valid_store()
    if mutate is not None:
        store = mutate(store)
    text = json.dumps(store, indent=2)
    if mutate is None:
        text = text[: len(text) // 2]
    path = out / "index_store.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["cluster", "--out_dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: errors.MalformedIndexStore: {path}: ")
    assert detail in err[0]
    assert not (out / "clusters.json").exists()


def test_deeply_nested_index_store_is_domain_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "index_store.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert cli.main(["cluster", "--out_dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: errors.MalformedIndexStore: {path}: ") and err.count("\n") == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | any_text
    | st.sampled_from(["Index", "StoreOnly", "Discard", "T", "F", "I", "J"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["documents", "routing", "terms", "year", "n", "status", "port"]) | any_text,
        inner, max_size=4),
    max_leaves=10,
)

# where the value goes: the top level, a document, its terms, a term and each key below them
STORE_PATHS = [()] + [
    (*doc, *keys)
    for doc, term in ((D1, "port"), (D2, "quay"))
    for keys in [(), ("terms",), ("terms", term), ("terms", term, "n"), ("terms", term, "status"),
                 ("routing",), ("year",)]
]


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(STORE_PATHS), value=json_values)
@example(path=(*D1, "terms", "port", "n"), value=10**400)
@example(path=(*D2, "terms", "quay", "n"), value=10**400)
def test_any_value_in_store_clusters_or_is_one_line_error(tmp_path_factory, path, value):
    out = tmp_path_factory.mktemp("out")
    text = json.dumps(_edit(path, value)(valid_store()))
    (out / "index_store.json").write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(["cluster", "--out_dir", str(out)])
    err = err.getvalue()
    assert (status, err) == (0, "") or (
        status == 1 and err.startswith("error: errors.") and err.count("\n") == 1)


def test_valid_index_store_is_read(tmp_path):
    path = tmp_path / "index_store.json"
    path.write_text(json.dumps(valid_store()), encoding="utf-8")
    postings = cli.read_index_store(path)
    assert canonical(postings) == (("d1",), [("d1", "port", 2.0, True)])


def test_read_leaves_the_cyclic_gc_enabled(tmp_path):
    path = tmp_path / "index_store.json"
    path.write_text(json.dumps(valid_store()), encoding="utf-8")
    cli.read_index_store(path)
    assert gc.isenabled()
    for text in ("{", json.dumps(_edit((*D2, "routing"), "Maybe")(valid_store()))):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedIndexStore):
            cli.read_index_store(path)
        assert gc.isenabled()


stored_docs = st.fixed_dictionaries({
    "routing": st.sampled_from(sorted(cli.ROUTING_CODES)),
    "terms": st.dictionaries(few_terms, st.fixed_dictionaries({
        "n": st.integers(0, 4), "status": st.sampled_from(sorted(cli.STATUS_CODES))}), max_size=4),
    "year": st.integers(1990, 2010),
})


def _paths(node, path=()):
    """The key path of `node` and of every value below it, through objects."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))


@st.composite
def documents_objects(draw):
    """A store's documents object, valid or with up to three values set or
    deleted anywhere in it; its keys are in doc_id order."""
    documents = draw(st.dictionaries(st.sampled_from(["d0", "d1", "d2", "d3"]), stored_docs,
                                     max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(documents))))
        value = draw(json_values | st.just(_DROP)) if path else draw(json_values)
        documents = _edit(path, value)(documents)
    return dict(sorted(documents.items())) if isinstance(documents, dict) else documents


def columns_or_message(check, documents):
    try:
        return check(documents)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(documents=documents_objects())
@example(documents={"d0": {"routing": "Discard", "terms": {"a": {"n": 1}}},
                    "d1": {"routing": "Index", "terms": {"b": {"n": 1.5, "status": "T"}}}})
@example(documents={"d0": {"routing": "Index", "terms": {"a": {"status": "T"}, "b": []}}})
@example(documents={"d0": {"routing": "Maybe", "terms": {"a": {"n": "1", "status": "X"}}}})
@example(documents={"d0": {"routing": "Maybe", "terms": {"a": {"n": 1, "status": "X"}}}})
def test_one_pass_check_matches_two_pass_reference(documents):
    new = columns_or_message(cli._index_columns, documents)
    old = columns_or_message(reference_index_columns, documents)
    if isinstance(old, str) and old.startswith("missing key "):
        # the reference names no document: it is the first that faults on its own
        doc_id = next(d for d in documents
                      if isinstance(columns_or_message(reference_index_columns, {d: documents[d]}), str))
        old = f"document {doc_id!r}: {old}"
    assert new == old


def test_store_out_of_doc_id_order_is_read_and_checked_in_doc_id_order(tmp_path):
    path = tmp_path / "index_store.json"
    term = {"port": {"n": 2, "status": "T"}}
    documents = {"d2": {"routing": "Index", "terms": term, "year": 2009},
                 "d1": {"routing": "Index", "terms": term, "year": 2009}}
    path.write_text(json.dumps({"documents": documents}), encoding="utf-8")
    assert cli.read_index_store(path).docs == ("d1", "d2")
    documents["d2"]["routing"], documents["d1"]["routing"] = "Maybe", "Perhaps"
    path.write_text(json.dumps({"documents": documents}), encoding="utf-8")
    with pytest.raises(MalformedIndexStore, match="document 'd1': unknown routing 'Perhaps'"):
        cli.read_index_store(path)
