import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semindex import agents, corpus
from semindex.agents import (
    IndexedDocument,
    Routing,
    TermStatus,
    process_document,
    proposition_agent,
    query_agent,
    reading_agent,
    relevance_agent,
    run_pipeline,
    standardizing_agent,
    write_blackboard,
)
from semindex.corpus import Document, tokenize
from semindex.errors import InconsistentKb
from semindex.kb import load_kb, quasi_synonyms

from conftest import REPO, kb_file, make_kb
from oracles import recursive_tokenize, set_proposition

I = TermStatus.INITIAL
T = TermStatus.ACCEPTED
F = TermStatus.REJECTED
J = TermStatus.MORPH_ERROR


@pytest.fixture()
def kb(tmp_path):
    return make_kb(
        tmp_path,
        classes=[
            {"id": "cp", "canonical": "port", "members": ["port", "harbor"], "quasi": []},
            {"id": "cw", "canonical": "wharf", "members": ["wharf"], "quasi": []},
            {"id": "cd", "canonical": "dock", "members": ["dock"], "quasi": ["cw"]},
        ],
        categories=[
            {"surface": "port", "category": "noun"},
            {"surface": "harbor", "category": "noun"},
            {"surface": "wharf", "category": "noun"},
            {"surface": "dock", "category": "noun"},
        ],
        stop_words=["the", "a"],
    )


def merged(pairs) -> dict:
    """The term map of (term, status) pairs: counts summed, first occurrence
    first, Accepted winning when a term arrives with both statuses."""
    term_map = {}
    for term, status in pairs:
        if term in term_map:
            n, old = term_map[term]
            term_map[term] = (n + 1, T if T in (old, status) else old)
        else:
            term_map[term] = (1, status)
    return term_map


def propose_per_token_then_merge(kb, pairs) -> dict:
    """proposition on every (term, status) pair, then the merge: the order of
    the chain before it built one term map per document."""
    reachable = set()
    for term, status in pairs:
        if status is T and term in kb.quasi_links:
            reachable |= quasi_synonyms(kb, term)
    return merged((t, T if s is J and t in reachable else s) for t, s in pairs)


def test_query_agent():
    assert query_agent({"port": (1, T), "quay": (1, J)}, {"port"}) is True
    assert query_agent({"port": (2, T)}, {"port", "quay"}) is False
    assert query_agent({}, set()) is False


def test_reading_agent_excludes_stop_words(kb):
    assert reading_agent(kb, ["the", "port"]) == ["port"]


def test_reading_agent_keeps_unknown_candidates(kb):
    assert reading_agent(kb, ["containerization"]) == ["containerization"]
    assert reading_agent(kb, []) == []


def test_standardizing_agent_stems_into_kb(kb):
    assert standardizing_agent(kb, ["harbors"]) == [("port", T)]


def test_standardizing_agent_morph_error_fallthrough(kb):
    assert standardizing_agent(kb, ["containerization"]) == [("containerization", J)]


def test_standardizing_agent_drops_stop_and_short(kb):
    assert standardizing_agent(kb, ["the", "x"]) == []


def test_proposition_agent_rescues_quasi_synonym(kb):
    term_map = {"wharf": (1, J), "dock": (1, T)}
    out = proposition_agent(kb, term_map)
    assert list(out.items()) == [("wharf", (1, T)), ("dock", (1, T))]
    assert term_map == {"wharf": (1, J), "dock": (1, T)}  # a new map: the argument is kept


def test_proposition_agent_no_links(kb):
    # with nothing rescued the argument itself comes back, not a copy
    for term_map in ({"xyz": (1, J)}, {"wharf": (1, J), "port": (2, T)}, {}):
        expected = dict(term_map)
        assert proposition_agent(kb, term_map) is term_map
        assert term_map == expected


def test_term_map_merges_then_rescues(kb):
    # the memo hands process_document each word's terms: "dock" arrives only
    # as MorphError and is rescued through the accepted "wharf", which itself
    # arrives as MorphError, then Accepted
    words = {
        "a": [("dock", J)],
        "b": [("wharf", J), ("port", T)],
        "c": [("wharf", T)],
        "d": [("mystery", J)],
    }
    pairs = [pair for word in "a b c a d".split() for pair in words[word]]
    term_map = process_document(kb, doc_from_text("d1", "a b c A d"), words)
    expected = [("dock", (2, T)), ("wharf", (2, T)), ("port", (1, T)), ("mystery", (1, J))]
    assert list(term_map.items()) == expected
    assert list(propose_per_token_then_merge(kb, pairs).items()) == expected


def test_relevance_agent_empty_board_relevant():
    assert relevance_agent(None, {"port": 1}, 0.2) is True


def test_relevance_agent_orthogonal_is_irrelevant():
    assert relevance_agent({"ship": 3}, {"port": 2}, 0.2) is False


def doc_from_text(doc_id, text, year=2010):
    return Document(doc_id, year, text)


def test_pipeline_first_document_indexed(kb):
    docs, entries = run_pipeline(kb, [doc_from_text("d1", "port saturation")], 0.2, 2010)
    assert docs[0].routing is Routing.INDEX
    assert len(entries) == 1


def test_pipeline_duplicate_stored_only(kb):
    corpus = [
        doc_from_text("d1", "port wharf saturation"),
        doc_from_text("d2", "port wharf saturation"),
    ]
    docs, entries = run_pipeline(kb, corpus, 0.2, 2010)
    assert docs[0].routing is Routing.INDEX
    assert docs[1].routing is Routing.STORE_ONLY
    assert [e.doc_id for e in entries] == ["d1", "d2"]


def test_entries_are_the_kept_documents(kb):
    corpus = [
        doc_from_text("d1", "port wharf saturation"),  # Index: every term is new
        doc_from_text("d2", "port freight", year=2001),  # Discard: too old, though freight is new
        doc_from_text("d3", "port wharf saturation"),  # StoreOnly: relevant to d1
        doc_from_text("d4", "dock"),  # Discard: orthogonal to d3
        doc_from_text("d5", "wharf port"),  # StoreOnly: compared with d3, not d4
        doc_from_text("d6", "dock cargo"),  # Index: cargo is new
    ]
    docs, entries = run_pipeline(kb, corpus, 0.2, 2010)
    routings = [d.routing for d in docs]
    assert routings == [Routing.INDEX, Routing.DISCARD, Routing.STORE_ONLY,
                        Routing.DISCARD, Routing.STORE_ONLY, Routing.INDEX]
    kept = [d for d in docs if d.routing is not Routing.DISCARD]
    assert len(entries) == len(kept) and all(e is d for e, d in zip(entries, kept))


def test_pipeline_obsolete_discarded(kb):
    docs, entries = run_pipeline(kb, [doc_from_text("d1", "port dock", year=2004)], 0.2, 2010)
    assert docs[0].routing is Routing.DISCARD
    assert entries == []
    # five years old is not yet obsolete: the same document is relevant to the empty board
    docs, entries = run_pipeline(kb, [doc_from_text("d1", "port dock", year=2005)], 0.2, 2010)
    assert docs[0].routing is Routing.STORE_ONLY
    assert [e.doc_id for e in entries] == ["d1"]


def test_pipeline_never_leaves_initial_status(kb):
    docs, _ = run_pipeline(kb, [doc_from_text("d1", "the port harbors unknownthing")], 0.2, 2010)
    for doc in docs:
        assert all(s is not I for _, s in doc.terms.values())


def test_candidate_order_does_not_matter(kb):
    words = ["harbors", "dock", "wharf", "unknownthing", "port"]
    base = None
    for _ in range(5):
        random.shuffle(words)
        out = proposition_agent(kb, merged(standardizing_agent(kb, words)))
        counted = sorted((term, n, status.value) for term, (n, status) in out.items())
        if base is None:
            base = counted
        assert counted == base


def test_blackboard_xml_format(tmp_path):
    # only Accepted terms are written, sorted; the year comes from `years`
    terms = {"port": (2, T), "mystery": (3, J), "quay": (1, F), "cargo": (1, T)}
    entries = [IndexedDocument("d1", terms, Routing.INDEX)]
    path = tmp_path / "board.xml"
    write_blackboard(entries, path, {"d1": 2009, "d2": 2001})
    assert path.read_bytes() == (
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        b"<blackboard>\n"
        b'  <doc id="d1" routing="Index" year="2009">\n'
        b'    <term c="cargo" n="1"/>\n'
        b'    <term c="port" n="2"/>\n'
        b"  </doc>\n"
        b"</blackboard>\n"
    )


def test_blackboard_write_is_deterministic(kb, tmp_path):
    corpus = [doc_from_text("d1", "port dock cargo mystery"), doc_from_text("d2", "harbor wharf")]
    years = {doc.id: doc.year for doc in corpus}
    outputs = []
    for name in ("a.xml", "b.xml"):
        _, entries = run_pipeline(kb, corpus, 0.2, 2010)
        write_blackboard(entries, tmp_path / name, years)
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_import_defers_xml():
    code = "import sys, semindex.cli; print(sorted({'xml.sax', 'urllib.request'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# --- the per-word memo ----------------------------------------------------

CLASS_WORDS = ["port", "harbor", "dock", "docking", "wharf", "quay", "sea", "cargo", "box", "ship"]
STOP_WORDS = ["the", "a", "of", "x", "boxes", "ships"]
# "ab" and "ba" may expand into each other; "hbr," and "(u.s.)" reach theirs
# only once edge punctuation is stripped, while "u.s." matches unstripped
ABBREVIATIONS = ["hbr", "u.s.", "intl.", "ab", "ba"]
EXPANSIONS = ["harbor", "ab", "ba dock", "the port", "united states", "hbr.", "x1 docks", "ba"]
# abbreviations without their dots, mixed letter-digit words, digits, one letter
OTHER_WORDS = ["intl", "u.s", "b2b", "x9", "1492", "7", "q", "Z", "harbors", "quays", "and/or"]
PUNCTUATION = ["", "", ".", ",", "(", ")", "'", '"', "...", "!", "-"]


@st.composite
def word_kbs(draw):
    """KB JSON over CLASS_WORDS: random classes, quasi links, stop words and
    abbreviations, cycles included."""
    words = draw(st.permutations(CLASS_WORDS))
    cuts = sorted(draw(st.sets(st.integers(1, len(words) - 1), max_size=5)))
    groups = [words[i:j] for i, j in zip([0, *cuts], [*cuts, len(words)])]
    links = draw(st.sets(st.tuples(st.integers(0, len(groups) - 1),
                                   st.integers(0, len(groups) - 1)), max_size=6))
    classes = [
        {"id": f"c{i}", "canonical": group[0], "members": group,
         "quasi": sorted({f"c{j}" for a, j in links if a == i and j != i})}
        for i, group in enumerate(groups)
    ]
    canonicals = {group[0] for group in groups}
    stop_words = [w for w in draw(st.sets(st.sampled_from(STOP_WORDS + CLASS_WORDS)))
                  if w not in canonicals]
    abbreviations = draw(st.dictionaries(st.sampled_from(ABBREVIATIONS),
                                         st.sampled_from(EXPANSIONS), min_size=2))
    return {
        "classes": classes,
        "categories": [{"surface": w, "category": "noun"} for w in CLASS_WORDS],
        "stop_words": sorted(stop_words),
        "abbreviations": abbreviations,
    }


def _recase(word, how):
    return {"lower": word, "upper": word.upper(), "title": word.title(),
            "mixed": "".join(c.upper() if i % 2 else c for i, c in enumerate(word))}[how]


raw_words = st.builds(
    lambda word, how, left, right: left + _recase(word, how) + right,
    st.sampled_from(CLASS_WORDS + STOP_WORDS + 2 * ABBREVIATIONS + OTHER_WORDS),
    st.sampled_from(["lower", "upper", "title", "mixed"]),
    st.sampled_from(PUNCTUATION),
    st.sampled_from(PUNCTUATION),
)
texts = st.lists(st.tuples(raw_words, st.sampled_from([" ", "  ", "\n", "\t"])), max_size=40).map(
    lambda pairs: "".join(w + sep for w, sep in pairs)
)
corpora = st.lists(st.tuples(texts, st.integers(2002, 2010)), min_size=1, max_size=6).map(
    lambda docs: [Document(f"d{i}", year, text) for i, (text, year) in enumerate(docs)]
)


def per_token_chain(kb, doc, words):
    """process_document as it was before the memo and the one-pass term map:
    every stage on every token, proposition included, then the merge."""
    standardized = standardizing_agent(kb, reading_agent(kb, tokenize(kb, doc.text)))
    return propose_per_token_then_merge(kb, standardized)


def _observable(result):
    docs, entries = result
    return (
        [(d.doc_id, list(d.terms.items()), d.routing) for d in docs],
        [(e.doc_id, list(e.terms.items()), e.routing) for e in entries],
    )


@settings(max_examples=300, deadline=None)
@given(data=word_kbs(), corpus=corpora, tau=st.sampled_from([0.0, 0.2, 0.6, 1.0]))
@example(
    data={
        "classes": [{"id": "c0", "canonical": "port", "members": ["port", "harbor"], "quasi": []}],
        "categories": [{"surface": "port", "category": "noun"},
                       {"surface": "harbor", "category": "noun"}],
        "stop_words": ["the"],
        "abbreviations": {"intl.": "harbor", "hbr": "harbor", "ab": "ba dock", "ba": "ab"},
    },
    corpus=[Document("d0", 2010, "Intl. intl (hbr), HBR ab BA! b2b 1492 q The harbors."),
            Document("d1", 2009, "intl INTL. ab ba")],
    tau=0.2,
)
def test_memo_matches_per_token_chain(tmp_path_factory, data, corpus, tau):
    kb = load_kb(kb_file(tmp_path_factory.mktemp("kb"), data))
    memoized = run_pipeline(kb, corpus, tau, 2010)
    with mock.patch.object(agents, "process_document", per_token_chain):
        reference = run_pipeline(kb, corpus, tau, 2010)
    assert _observable(memoized) == _observable(reference)
    docs, entries = memoized
    kept = [d for d in docs if d.routing is not Routing.DISCARD]
    assert len(entries) == len(kept) and all(e is d for e, d in zip(entries, kept))


def test_memo_is_scoped_to_one_run(tmp_path):
    categories = [{"surface": s, "category": "noun"} for s in ("port", "haven", "harbor")]
    kbs = []
    for name, canonical in (("a", "port"), ("b", "haven")):
        (tmp_path / name).mkdir()
        classes = [{"id": "c", "canonical": canonical, "members": [canonical, "harbor"], "quasi": []}]
        kbs.append(make_kb(tmp_path / name, classes=classes, categories=categories))
    corpus = [doc_from_text("d1", "Harbor harbors HARBOR.")]
    for kb, canonical in zip(kbs + kbs, ["port", "haven"] * 2):
        docs, entries = run_pipeline(kb, corpus, 0.2, 2010)
        assert docs[0].terms == {canonical: (3, T)}
        assert [(e.doc_id, e.terms) for e in entries] == [("d1", {canonical: (3, T)})]


@st.composite
def kbs_and_candidates(draw):
    """A random KB over short words, and candidates built from its surfaces,
    their inflections and unknown words."""
    letters = "abdeginsy"
    surfaces = draw(st.lists(st.text(letters, min_size=1, max_size=6), min_size=1,
                             max_size=10, unique=True))
    n = draw(st.integers(1, len(surfaces)))
    owner = draw(st.lists(st.integers(0, n - 1), min_size=len(surfaces), max_size=len(surfaces)))
    groups = [[s for s, o in zip(surfaces, owner) if o == i] for i in range(n)]
    groups = [g for g in groups if g]
    links = draw(st.sets(st.tuples(st.integers(0, len(groups) - 1),
                                   st.integers(0, len(groups) - 1)), max_size=10))
    classes = [
        {"id": f"c{i}", "canonical": draw(st.sampled_from(group)), "members": group,
         "quasi": sorted({f"c{j}" for a, j in links if a == i and j != i})}
        for i, group in enumerate(groups)
    ]
    canonicals = {c["canonical"] for c in classes}
    stop_words = [w for w in draw(st.lists(st.sampled_from(surfaces))) if w not in canonicals]
    data = {
        "classes": classes,
        "categories": [{"surface": s, "category": "noun"} for s in surfaces],
        "stop_words": sorted(set(stop_words)),
    }
    stems = st.sampled_from(surfaces) | st.text(letters, max_size=6)
    suffixes = st.sampled_from(["", "s", "es", "ed", "ing", "ies", "sses", "ations"])
    candidates = draw(st.lists(st.builds(str.__add__, stems, suffixes), max_size=20))
    return data, candidates


@settings(max_examples=200, deadline=None)
@given(case=kbs_and_candidates())
def test_proposition_agent_never_rescues_standardized_terms(tmp_path_factory, case):
    data, candidates = case
    kb = load_kb(kb_file(tmp_path_factory.mktemp("kb"), data))
    term_map = merged(standardizing_agent(kb, candidates))
    assert proposition_agent(kb, term_map) is term_map


@settings(max_examples=300, deadline=None)
@given(data=word_kbs(), text=texts, bound=st.integers(0, 4) | st.just(corpus.MAX_EXPANSION_STEPS))
@example(
    data={"abbreviations": {"ab": "ba dock", "ba": "ab", "(u.s.)": "intl.", "intl.": "intl. ab",
                            "intl": "hbr, x1"}},
    text="AB (ba) (U.S.) u.s. Intl. intl hbr.",
    bound=corpus.MAX_EXPANSION_STEPS,
)  # "intl." reappears inside its own expansion, where its stripped form "intl" expands
@example(  # 3 parts: 2 for "ab", 1 for "ba", none for "ab" inside its own expansion
    data={"abbreviations": {"ab": "ba dock", "ba": "ab"}}, text="x ab", bound=2)
@example(data={"abbreviations": {"ab": "ba dock", "ba": "ab"}}, text="x ab", bound=3)
def test_tokenize_matches_recursive_reference(tmp_path_factory, data, text, bound):
    kb = load_kb(kb_file(tmp_path_factory.mktemp("kb"), data))
    words, steps = recursive_tokenize(kb, text)
    with mock.patch.object(corpus, "MAX_EXPANSION_STEPS", bound):
        if steps > bound:
            with pytest.raises(InconsistentKb, match="expanding abbreviation"):
                tokenize(kb, text)
        else:
            assert tokenize(kb, text) == words


term_maps = st.dictionaries(
    st.sampled_from(CLASS_WORDS + OTHER_WORDS),
    st.tuples(st.integers(1, 3), st.sampled_from([T, J])),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(data=word_kbs(), term_map=term_maps)
@example(  # "dock" is rescued through "wharf"; "port" links only to a MorphError term
    data={
        "classes": [
            {"id": "cd", "canonical": "dock", "members": ["dock"], "quasi": ["cw"]},
            {"id": "cw", "canonical": "wharf", "members": ["wharf", "quay"], "quasi": []},
            {"id": "cp", "canonical": "port", "members": ["port"], "quasi": ["cs"]},
            {"id": "cs", "canonical": "sea", "members": ["sea"], "quasi": []},
        ],
        "categories": [{"surface": w, "category": "noun"}
                       for w in ("dock", "wharf", "quay", "port", "sea")],
    },
    term_map={"dock": (2, J), "quay": (1, J), "wharf": (1, T), "port": (1, J), "sea": (3, J)},
)
def test_proposition_agent_matches_set_formula(tmp_path_factory, data, term_map):
    kb = load_kb(kb_file(tmp_path_factory.mktemp("kb"), data))
    proposed = proposition_agent(kb, term_map)
    assert list(proposed.items()) == list(set_proposition(kb, term_map).items())
