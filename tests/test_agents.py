import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semindex import agents
from semindex.agents import (
    Blackboard,
    BlackboardEntry,
    Dispatch,
    PipelineConfig,
    Routing,
    TermStatus,
    Verdict,
    proposition_agent,
    query_agent,
    reading_agent,
    relevance_agent,
    run_pipeline,
    standardizing_agent,
    write_blackboard,
)
from semindex.corpus import Document, Token, tokenize
from semindex.kb import load_kb

from conftest import REPO, kb_file, make_doc, make_kb

I = TermStatus.INITIAL
T = TermStatus.ACCEPTED
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


def toks(*words):
    return [Token(w, i) for i, w in enumerate(words)]


def test_query_agent():
    assert query_agent({"port", "quay"}, {"port"}) is Dispatch.TO_READING
    assert query_agent({"port"}, {"port", "quay"}) is Dispatch.TO_RELEVANCE
    assert query_agent(set(), set()) is Dispatch.TO_RELEVANCE


def test_reading_agent_excludes_stop_words(kb):
    assert reading_agent(kb, toks("the", "port")) == [("port", I)]


def test_reading_agent_keeps_unknown_candidates(kb):
    assert reading_agent(kb, toks("containerization")) == [("containerization", I)]
    assert reading_agent(kb, []) == []


def test_standardizing_agent_stems_into_kb(kb):
    assert standardizing_agent(kb, [("harbors", I)]) == [("port", T)]


def test_standardizing_agent_morph_error_fallthrough(kb):
    assert standardizing_agent(kb, [("containerization", I)]) == [("containerization", J)]


def test_standardizing_agent_drops_stop_and_short(kb):
    assert standardizing_agent(kb, [("the", I), ("x", I)]) == []


def test_proposition_agent_rescues_quasi_synonym(kb):
    out = proposition_agent(kb, [("wharf", J), ("dock", T)])
    assert out == [("wharf", T), ("dock", T)]


def test_proposition_agent_no_links(kb):
    assert proposition_agent(kb, [("xyz", J)]) == [("xyz", J)]
    assert proposition_agent(kb, []) == []


def test_relevance_agent_obsolete():
    board = Blackboard()
    doc = make_doc("d1", {"port": 1})
    assert relevance_agent(board, doc, 2003, 2010, 0.2) is Verdict.OBSOLETE


def test_relevance_agent_empty_board_relevant():
    board = Blackboard()
    doc = make_doc("d1", {"port": 1})
    assert relevance_agent(board, doc, 2010, 2010, 0.2) is Verdict.RELEVANT


def test_relevance_agent_orthogonal_is_irrelevant():
    board = Blackboard()
    board.append(BlackboardEntry("prev", Routing.INDEX, 2010, {"ship": 3}))
    doc = make_doc("d1", {"port": 2})
    assert relevance_agent(board, doc, 2010, 2010, 0.2) is Verdict.IRRELEVANT


def doc_from_text(doc_id, text, year=2010):
    return Document(doc_id, doc_id, year, text)


def test_pipeline_first_document_indexed(kb):
    config = PipelineConfig(tau=0.2, reference_year=2010)
    docs, board = run_pipeline(kb, [doc_from_text("d1", "port saturation")], config)
    assert docs[0].routing is Routing.INDEX
    assert len(board.entries) == 1


def test_pipeline_duplicate_stored_only(kb):
    config = PipelineConfig(tau=0.2, reference_year=2010)
    corpus = [
        doc_from_text("d1", "port wharf saturation"),
        doc_from_text("d2", "port wharf saturation"),
    ]
    docs, board = run_pipeline(kb, corpus, config)
    assert docs[0].routing is Routing.INDEX
    assert docs[1].routing is Routing.STORE_ONLY
    assert [e.doc_id for e in board.entries] == ["d1", "d2"]


def test_pipeline_obsolete_discarded(kb):
    config = PipelineConfig(tau=0.2, reference_year=2010)
    docs, board = run_pipeline(kb, [doc_from_text("d1", "port dock", year=2004)], config)
    assert docs[0].routing is Routing.DISCARD
    assert board.entries == []


def test_pipeline_never_leaves_initial_status(kb):
    config = PipelineConfig(tau=0.2, reference_year=2010)
    docs, _ = run_pipeline(kb, [doc_from_text("d1", "the port harbors unknownthing")], config)
    for doc in docs:
        assert all(s is not I for _, s in doc.terms.values())


def test_candidate_order_does_not_matter(kb):
    words = ["harbors", "dock", "wharf", "unknownthing", "port"]
    base = None
    for _ in range(5):
        random.shuffle(words)
        out = proposition_agent(kb, standardizing_agent(kb, [(w, I) for w in words]))
        counted = sorted((term, status.value) for term, status in out)
        if base is None:
            base = counted
        assert counted == base


def test_blackboard_xml_format(tmp_path):
    board = Blackboard()
    board.append(BlackboardEntry("d1", Routing.INDEX, 2009, {"port": 2, "cargo": 1}))
    path = tmp_path / "board.xml"
    write_blackboard(board, path)
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
    outputs = []
    for name in ("a.xml", "b.xml"):
        _, board = run_pipeline(kb, corpus, PipelineConfig(tau=0.2, reference_year=2010))
        write_blackboard(board, tmp_path / name)
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
    lambda docs: [Document(f"d{i}", "t", year, text) for i, (text, year) in enumerate(docs)]
)


def per_token_chain(kb, doc, words=None):
    """process_document as it was before the memo: every stage on every token."""
    tokens = tokenize(kb, doc.text)
    standardized = standardizing_agent(kb, reading_agent(kb, tokens))
    return agents._aggregate(proposition_agent(kb, standardized))


def _observable(result):
    docs, board = result
    return (
        [(d.doc_id, list(d.terms.items()), d.routing) for d in docs],
        [(e.doc_id, e.routing, e.year, list(e.terms.items())) for e in board.entries],
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
    corpus=[Document("d0", "t", 2010, "Intl. intl (hbr), HBR ab BA! b2b 1492 q The harbors."),
            Document("d1", "t", 2009, "intl INTL. ab ba")],
    tau=0.2,
)
def test_memo_matches_per_token_chain(tmp_path_factory, data, corpus, tau):
    kb = load_kb(kb_file(tmp_path_factory.mktemp("kb"), data))
    config = PipelineConfig(tau=tau, reference_year=2010)
    memoized = run_pipeline(kb, corpus, config)
    with mock.patch.object(agents, "process_document", per_token_chain):
        reference = run_pipeline(kb, corpus, config)
    assert _observable(memoized) == _observable(reference)


def test_memo_is_scoped_to_one_run(tmp_path):
    categories = [{"surface": s, "category": "noun"} for s in ("port", "haven", "harbor")]
    kbs = []
    for name, canonical in (("a", "port"), ("b", "haven")):
        (tmp_path / name).mkdir()
        classes = [{"id": "c", "canonical": canonical, "members": [canonical, "harbor"], "quasi": []}]
        kbs.append(make_kb(tmp_path / name, classes=classes, categories=categories))
    corpus = [doc_from_text("d1", "Harbor harbors HARBOR.")]
    config = PipelineConfig(tau=0.2, reference_year=2010)
    for kb, canonical in zip(kbs + kbs, ["port", "haven"] * 2):
        docs, board = run_pipeline(kb, corpus, config)
        assert docs[0].terms == {canonical: (3, T)}
        assert board.entries[0].terms == {canonical: 3}


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
    return data, [(c, I) for c in candidates]


@settings(max_examples=200, deadline=None)
@given(case=kbs_and_candidates())
def test_proposition_agent_never_rescues_standardized_terms(tmp_path_factory, case):
    data, candidates = case
    kb = load_kb(kb_file(tmp_path_factory.mktemp("kb"), data))
    standardized = standardizing_agent(kb, candidates)
    assert proposition_agent(kb, standardized) == standardized
