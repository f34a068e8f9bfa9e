import os
import random
import subprocess
import sys

import pytest

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
from semindex.corpus import Document, Token

from conftest import REPO, make_doc, make_kb

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
