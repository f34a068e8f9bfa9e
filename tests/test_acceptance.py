"""Acceptance suite: one test per release criterion, with a pass/fail line each."""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from semindex import cli
from semindex.agents import Routing, TermStatus, run_pipeline, write_blackboard
from semindex.cocluster import _singular_pairs, cocluster, normalize_matrix
from semindex.corpus import Document, tokenize
from semindex.graphs import TermGraph, export_pajek
from semindex.kb import load_kb
from semindex.lexicon import stem
from semindex.metrics import load_gold, precision_recall

from conftest import MINI, REPO, assign_docs, assign_words, cluster_sets, dense, mstar
from oracles import brute_force_min_ratio_cut, graph_from_matrix, matrix_from_counts, parse_pajek, ratio_cut

CONFIG = str(MINI / "config.ini")
GOLDEN = REPO / "tests" / "golden"

# hand-computed against the committed gold file: 42 hits over 56 produced
# terms and 50 gold terms
EXPECTED_PRECISION = 42 / 56
EXPECTED_RECALL = 42 / 50


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert cli.main(["pipeline", "--config", CONFIG, "--out_dir", str(out)]) == 0
    return out


def test_criterion_1_mini_corpus_eval(pipeline_out):
    with criterion(1, "mini-corpus eval matches hand-computed micro P/R"):
        start = time.perf_counter()
        produced = cli.read_index_store(pipeline_out / "index_store.json").accepted_sets()
        gold = load_gold(MINI / "gold.tsv")
        precision, recall = precision_recall(produced, gold)
        elapsed = time.perf_counter() - start
        assert abs(precision - EXPECTED_PRECISION) <= 1e-12
        assert abs(recall - EXPECTED_RECALL) <= 1e-12
        assert elapsed < 1.0


def _planted_matrix(rng):
    blocks = [range(0, 10), range(10, 20), range(20, 30)]
    counts = {}
    for b, rows in enumerate(blocks):
        for i in rows:
            for j in blocks[b]:
                counts[(f"w{i}", f"d{j}")] = int(rng.integers(1, 6))
    total = sum(counts.values())
    noise_budget = int(0.05 * total)
    spent = 0
    while spent + 1 <= noise_budget and spent < 30:
        i = int(rng.integers(30))
        j = int(rng.integers(30))
        if i // 10 == j // 10:
            continue
        key = (f"w{i}", f"d{j}")
        counts[key] = counts.get(key, 0) + 1
        spent += 1
    terms = [f"w{i}" for i in range(30)]
    docs = [f"d{j}" for j in range(30)]
    return matrix_from_counts(counts, terms, docs), terms, docs


def _recovery_rate(clusters, labels, planted):
    best = 0.0
    for perm in itertools.permutations(range(3)):
        hits = 0
        for m, members in enumerate(clusters):
            for label in members:
                if planted[label] == perm[m]:
                    hits += 1
        best = max(best, hits / len(labels))
    return best


def test_criterion_2_planted_block_recovery():
    with criterion(2, "planted 3-block matrix recovered on every seed"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        m, terms, docs = _planted_matrix(rng)
        planted = {label: i // 10 for i, label in enumerate(terms)}
        planted.update({label: j // 10 for j, label in enumerate(docs)})
        for seed in range(20):
            clus = cocluster(m, 3, seed=seed)
            assert clus.k == 3
            words, doc_sets = cluster_sets(m, clus)
            assert _recovery_rate(words, terms, planted) >= 0.95
            assert _recovery_rate(doc_sets, docs, planted) >= 0.95
        assert time.perf_counter() - start < 5.0


def _zero_cut_graph(rng):
    r1, r2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    c1, c2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    counts = {}
    for i in range(r1):
        for j in range(c1):
            counts[(f"w{i}", f"d{j}")] = int(rng.integers(1, 5))
    for i in range(r1, r1 + r2):
        for j in range(c1, c1 + c2):
            counts[(f"w{i}", f"d{j}")] = int(rng.integers(1, 5))
    terms = [f"w{i}" for i in range(r1 + r2)]
    docs = [f"d{j}" for j in range(c1 + c2)]
    return matrix_from_counts(counts, terms, docs)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "spectral bipartition matches brute-force ratio-cut oracle"):
        rng = np.random.default_rng(7)
        for trial in range(50):
            m = _zero_cut_graph(rng)
            g = graph_from_matrix(m)
            _, best_value = brute_force_min_ratio_cut(g)
            assert best_value == 0.0
            clus = cocluster(m, 2, seed=trial)
            assert clus.k == 2
            (w1, w2), (d1, d2) = cluster_sets(m, clus)
            assert ratio_cut(g, w1 | d1, w2 | d2) == best_value
        # worked example: cluster sets equal the oracle's zero-cut partition
        m = mstar()
        clus = cocluster(m, 2, seed=0)
        v1, value = brute_force_min_ratio_cut(graph_from_matrix(m))
        assert value == 0.0
        sides = {w | d for w, d in zip(*cluster_sets(m, clus))}
        assert frozenset(v1) in sides


def _random_sparse(rng):
    w = int(rng.integers(5, 51))
    d = int(rng.integers(4, 41))
    dense = np.where(rng.random((w, d)) < 0.15, rng.integers(1, 10, size=(w, d)), 0)
    for i in range(w):
        if dense[i].sum() == 0:
            dense[i, int(rng.integers(d))] = int(rng.integers(1, 10))
    for j in range(d):
        if dense[:, j].sum() == 0:
            dense[int(rng.integers(w)), j] = int(rng.integers(1, 10))
    counts = {
        (f"w{i}", f"d{j}"): int(dense[i, j])
        for i in range(w)
        for j in range(d)
        if dense[i, j]
    }
    return matrix_from_counts(counts, [f"w{i}" for i in range(w)], [f"d{j}" for j in range(d)])


def test_criterion_4_numerics():
    with criterion(4, "singular residuals <= 1e-8 and normalization matches formula"):
        rng = np.random.default_rng(123)
        for _ in range(100):
            m = _random_sparse(rng)
            An = normalize_matrix(m)
            expected = dense(m) / np.sqrt(np.outer(m.row_degrees, m.col_degrees))
            assert np.max(np.abs(An - expected)) <= 1e-12
            sigmas, U, V = _singular_pairs(An, m.row_degrees, m.col_degrees, 3)
            for p in range(3):
                assert np.max(np.abs(An @ V[:, p] - sigmas[p] * U[:, p])) <= 1e-8
                assert np.max(np.abs(An.T @ U[:, p] - sigmas[p] * V[:, p])) <= 1e-8


def test_criterion_5_formula_fidelity():
    with criterion(5, "dual assignment formulas on worked example + scale invariance"):
        m = mstar()
        words = assign_words(m, ({"d1"}, {"d2", "d3"}))
        assert words == (frozenset({"w1", "w2"}), frozenset({"w3", "w4"}))
        docs = assign_docs(m, words)
        assert docs == (frozenset({"d1"}), frozenset({"d2", "d3"}))
        rng = np.random.default_rng(5)
        for _ in range(100):
            w = int(rng.integers(3, 9))
            d = int(rng.integers(3, 8))
            dense = rng.integers(0, 6, size=(w, d)).astype(float)
            dense[dense.sum(axis=1) == 0, 0] = 1
            dense[0, dense.sum(axis=0) == 0] = 1
            terms = [f"w{i}" for i in range(w)]
            docs_l = [f"d{j}" for j in range(d)]
            m1 = matrix_from_counts(
                {(terms[i], docs_l[j]): dense[i, j] for i in range(w) for j in range(d) if dense[i, j]},
                terms,
                docs_l,
            )
            # exactly representable scalars keep tied sums tied in float
            scale = float(rng.choice([0.25, 0.5, 2.0, 3.0, 4.0, 7.0, 8.0]))
            m2 = matrix_from_counts(
                {(terms[i], docs_l[j]): dense[i, j] * scale for i in range(w) for j in range(d) if dense[i, j]},
                terms,
                docs_l,
            )
            split = int(rng.integers(1, d))
            doc_part = (set(docs_l[:split]), set(docs_l[split:]))
            w1 = assign_words(m1, doc_part)
            w2 = assign_words(m2, doc_part)
            assert w1 == w2
            wsplit = int(rng.integers(1, w))
            word_part = (set(terms[:wsplit]), set(terms[wsplit:]))
            assert assign_docs(m1, word_part) == assign_docs(m2, word_part)


def _random_documents(kb, count, rng):
    pool = (
        sorted(kb.canonical)
        + sorted(kb.stop_words)
        + ["Port.", "Intl.", "X9", "1492", "cargo-bay", "-", "..", "HARBOR"]
        + ["".join(rng.choice(list("abcdefghij"), size=rng.integers(2, 9))) for _ in range(40)]
    )
    docs = []
    for n in range(count):
        words = rng.choice(pool, size=int(rng.integers(3, 25)))
        year = int(rng.integers(1998, 2011))
        docs.append(Document(f"r{n:04d}", year, " ".join(words)))
    return docs


def test_criterion_6_pipeline_invariants(tmp_path):
    with criterion(6, "pipeline invariants over 1,000 random documents"):
        kb = load_kb(MINI / "kb.json")
        rng = np.random.default_rng(99)
        docs = _random_documents(kb, 1000, rng)
        for doc in docs[:200]:
            for word in tokenize(kb, doc.text):
                assert word and word == word.lower()
                assert not word.endswith(".")
                assert not (any(c.isalpha() for c in word) and any(c.isdigit() for c in word))
                assert stem(stem(word)) == stem(word)
        indexed, entries = run_pipeline(kb, docs, 0.2, 2010)
        for doc, result in zip(docs, indexed):
            assert all(s is not TermStatus.INITIAL for _, s in result.terms.values())
            if 2010 - doc.year > 5:
                assert result.routing is Routing.DISCARD
        kept = [r for r in indexed if r.routing is not Routing.DISCARD]
        assert len(entries) == len(kept) and all(e is r for e, r in zip(entries, kept))
        indexed2, entries2 = run_pipeline(kb, docs, 0.2, 2010)
        years = {doc.id: doc.year for doc in docs}
        a, b = tmp_path / "a.xml", tmp_path / "b.xml"
        write_blackboard(entries, a, years)
        write_blackboard(entries2, b, years)
        assert a.read_bytes() == b.read_bytes()


def test_criterion_7_pajek_goldens(tmp_path):
    with criterion(7, "Pajek exports match goldens; export/parse fixed point"):
        ego = TermGraph(
            ("america", "columbus", "voyage", "sea"),
            ((0, 1, 2.0), (0, 2, 3.0), (0, 3, 1.5), (2, 3, 1.0)),
        )
        clusters = TermGraph(("cluster-1", "cluster-2", "cluster-3"), ((0, 1, 4.0), (1, 2, 0.25)))
        for graph, golden in ((ego, "ego_fixture.net"), (clusters, "cluster_fixture.net")):
            path = tmp_path / golden
            export_pajek(graph, path)
            assert path.read_bytes() == (GOLDEN / golden).read_bytes()
        rng = np.random.default_rng(31)
        for trial in range(100):
            n = int(rng.integers(0, 10))
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.3:
                        if rng.random() < 0.5:
                            weight = float(rng.integers(1, 9))
                        else:
                            weight = float(np.round(rng.random() * 10, 4)) or 0.5
                        edges.append((u, v, weight))
            g = TermGraph(tuple(f"v{i}" for i in range(n)), tuple(edges))
            p1 = tmp_path / "r1.net"
            p2 = tmp_path / "r2.net"
            export_pajek(g, p1)
            export_pajek(parse_pajek(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "pipeline command is byte-deterministic"):
        artifacts = (
            "index_store.json",
            "blackboard.xml",
            "vocabulary.tsv",
            "clusters.json",
            "clusters.net",
        )
        snapshots = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["pipeline", "--config", CONFIG, "--out_dir", str(out)]) == 0
            assert cli.main(
                ["export", "--config", CONFIG, "--out_dir", str(out), "--term", "america"]
            ) == 0
            snapshot = {f: (out / f).read_bytes() for f in artifacts}
            snapshot["ego_america.net"] = (out / "ego_america.net").read_bytes()
            snapshots.append(snapshot)
        assert snapshots[0] == snapshots[1]
