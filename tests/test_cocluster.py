import json

import numpy as np
import pytest
import scipy.sparse as sp

from semindex import cocluster as cc
from semindex.cli import index_postings
from semindex.cocluster import (
    TermDocMatrix,
    build_matrix,
    cocluster,
    kmeans_partition,
    normalize_matrix,
    spectral_embed,
)
from semindex.errors import BadClusterCount, EmptyMatrix, SemindexError
from semindex.lexicon import MinCount, build_vocabulary

from conftest import assign_docs, assign_words, cluster_sets, dense, make_doc, mstar
from oracles import (
    BipartiteGraph,
    brute_force_min_ratio_cut,
    graph_from_matrix,
    matrix_from_counts,
    ratio_cut,
)


def test_build_matrix_single_cell():
    docs = index_postings([make_doc("d1", {"port": 2})])
    vocab = build_vocabulary(docs, MinCount(1))
    m = build_matrix(vocab, docs)
    assert dense(m).tolist() == [[2.0]]
    assert m.row_degrees.tolist() == [2.0]
    assert m.col_degrees.tolist() == [2.0]


def test_build_matrix_prunes_zero_rows():
    docs = index_postings([make_doc("d1", {"port": 2})])
    vocab = build_vocabulary(index_postings([make_doc("dx", {"port": 2, "quay": 1})]), MinCount(1))
    m = build_matrix(vocab, docs)
    assert m.terms == ("port",)
    assert "quay" not in m.terms


def test_build_matrix_empty():
    docs = index_postings([make_doc("d1", {"port": 2})])
    vocab = build_vocabulary(index_postings([make_doc("dx", {"quay": 3})]), MinCount(1))
    with pytest.raises(EmptyMatrix):
        build_matrix(vocab, docs)


def test_mstar_degrees():
    m = mstar()
    assert m.row_degrees.tolist() == [2.0, 1.0, 4.0, 3.0]
    assert m.col_degrees.tolist() == [3.0, 4.0, 3.0]


def test_normalize_matrix_entries():
    m = mstar()
    An = normalize_matrix(m)
    assert An[0, 0] == pytest.approx(2 / np.sqrt(2 * 3), abs=1e-5)
    assert An[2, 2] == pytest.approx(1 / np.sqrt(4 * 3), abs=1e-5)
    for i in range(4):
        for j in range(3):
            expected = dense(m)[i, j] / np.sqrt(m.row_degrees[i] * m.col_degrees[j])
            assert An[i, j] == pytest.approx(expected, abs=1e-12)
    assert ((An >= 0) & (An <= 1)).all()


def test_normalize_matrix_above_dense_cutoff_is_canonical_csr():
    terms, docs = 1025, 1030  # each document holds three terms, out of row order
    postings = index_postings([
        make_doc(f"d{j}", {f"t{(a * j + b) % terms}": 1 for a, b in ((13, 5), (1, 0), (7, 3))})
        for j in range(docs)
    ])
    m = build_matrix(build_vocabulary(postings, MinCount(1)), postings)
    assert m.shape == (terms, docs) and terms * docs > cc._DENSE_ENTRIES
    An = normalize_matrix(m)
    assert An.format == "csr" and An.has_canonical_format
    d1, d2 = 1 / np.sqrt(m.row_degrees), 1 / np.sqrt(m.col_degrees)
    assert np.array_equal(An.toarray(), dense(m) * d1[:, None] * d2)


def test_normalize_single_cell_is_one():
    m = matrix_from_counts({("w", "d"): 7}, ["w"], ["d"])
    assert normalize_matrix(m)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_spectral_embed_separates_blocks_by_sign():
    m = mstar()
    Z = spectral_embed(normalize_matrix(m), m.row_degrees, m.col_degrees, 2).ravel()
    # joint order: w1..w4, d1..d3
    first = {0, 1, 4}  # w1, w2, d1
    signs = np.sign(Z)
    assert len({signs[i] for i in first}) == 1
    assert len({signs[i] for i in range(7) if i not in first}) == 1
    assert signs[0] != signs[2]


def test_spectral_embed_matches_dense_svd():
    m = mstar()
    An = normalize_matrix(m)
    sigmas, U, V = cc._singular_pairs(An, m.row_degrees, m.col_degrees, 3)
    svd = np.linalg.svd(An, compute_uv=False)
    assert sigmas == pytest.approx(svd[:3], abs=1e-8)


def test_spectral_embed_k_too_large():
    m = mstar()
    with pytest.raises(BadClusterCount):
        spectral_embed(normalize_matrix(m), m.row_degrees, m.col_degrees, 4)


def test_singular_pairs_residuals_and_orthogonality():
    rng = np.random.default_rng(3)
    A = rng.integers(1, 6, size=(8, 6)).astype(float)
    m = matrix_from_counts(
        {(f"w{i}", f"d{j}"): A[i, j] for i in range(8) for j in range(6)},
        [f"w{i}" for i in range(8)],
        [f"d{j}" for j in range(6)],
    )
    An = normalize_matrix(m)
    sigmas, U, V = cc._singular_pairs(An, m.row_degrees, m.col_degrees, 3)
    for p in range(3):
        assert np.max(np.abs(An @ V[:, p] - sigmas[p] * U[:, p])) <= 1e-8
        assert np.max(np.abs(An.T @ U[:, p] - sigmas[p] * V[:, p])) <= 1e-8
    gram_u = U.T @ U - np.eye(3)
    gram_v = V.T @ V - np.eye(3)
    assert np.max(np.abs(gram_u)) <= 1e-8
    assert np.max(np.abs(gram_v)) <= 1e-8


def _assert_singular_pairs(An, sigmas, U, V):
    assert sigmas[0] == 1.0
    assert (np.diff(sigmas) <= 1e-12).all()  # largest first
    assert np.max(np.abs(An @ V - U * sigmas)) <= 1e-8
    assert np.max(np.abs(An.T @ U - V * sigmas)) <= 1e-8
    n = len(sigmas)
    assert np.max(np.abs(U.T @ U - np.eye(n))) <= 1e-8
    assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-8


def _cyclic_copies():
    """Four term-renamed copies of one block, each linked to the next by one
    count, with one entry nudged by 1e-3: sigma3 / sigma2 = 1 - 2e-7."""
    rng = np.random.default_rng(8)
    block = rng.integers(1, 5, size=(5, 4))
    counts = {}
    for c in range(4):
        for i in range(5):
            for j in range(4):
                counts[(f"t{c}_{i}", f"d{c}_{j}")] = float(block[i, j])
        counts[(f"t{(c + 1) % 4}_0", f"d{c}_0")] = 1.0
    counts[("t0_1", "d0_1")] += 1e-3
    terms = [f"t{c}_{i}" for c in range(4) for i in range(5)]
    docs = [f"d{c}_{j}" for c in range(4) for j in range(4)]
    return matrix_from_counts(counts, terms, docs)


def test_singular_pairs_near_degenerate_spectrum():
    m = _cyclic_copies()
    An = normalize_matrix(m)
    svd = np.linalg.svd(An, compute_uv=False)
    assert 1 - 1e-6 < svd[2] / svd[1] < 1
    sigmas, U, V = cc._singular_pairs(An, m.row_degrees, m.col_degrees, 3)
    _assert_singular_pairs(An, sigmas, U, V)
    assert sigmas == pytest.approx(svd[:3], abs=1e-12)
    first = spectral_embed(An, m.row_degrees, m.col_degrees, 4)
    second = spectral_embed(An, m.row_degrees, m.col_degrees, 4)
    assert (first == second).all()


def test_singular_pairs_disconnected_graph():
    rng = np.random.default_rng(4)
    counts, terms, docs = {}, [], []
    for b, (w, d) in enumerate([(3, 2), (4, 3), (2, 4)]):
        terms += [f"w{b}_{i}" for i in range(w)]
        docs += [f"d{b}_{j}" for j in range(d)]
        for i in range(w):
            for j in range(d):
                counts[(f"w{b}_{i}", f"d{b}_{j}")] = int(rng.integers(1, 6))
    m = matrix_from_counts(counts, terms, docs)
    An = normalize_matrix(m)
    sigmas, U, V = cc._singular_pairs(An, m.row_degrees, m.col_degrees, 3)
    assert sigmas == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    _assert_singular_pairs(An, sigmas, U, V)
    first = cocluster(m, 3, seed=0)
    second = cocluster(m, 3, seed=0)
    assert np.array_equal(first.word_labels, second.word_labels)
    assert np.array_equal(first.doc_labels, second.doc_labels)
    assert set(cluster_sets(m, first)[1]) == {
        frozenset(d for d in docs if d.startswith(f"d{b}_")) for b in range(3)
    }


def test_singular_pairs_below_requested_rank():
    # rank 1: the pairs after the trivial one have sigma = 0
    m = matrix_from_counts(
        {(w, d): 1 for w in ("w1", "w2", "w3") for d in ("d1", "d2", "d3")},
        ["w1", "w2", "w3"],
        ["d1", "d2", "d3"],
    )
    An = normalize_matrix(m)
    sigmas, U, V = cc._singular_pairs(An, m.row_degrees, m.col_degrees, 3)
    assert sigmas[1:] == pytest.approx([0.0, 0.0], abs=1e-12)
    _assert_singular_pairs(An, sigmas, U, V)


def _large_matrix(w, d, density):
    rng = np.random.default_rng(1)
    A = sp.random(w, d, density=density, random_state=rng, format="csr",
                  data_rvs=lambda n: rng.integers(1, 6, n).astype(float))
    n = max(w, d)  # a diagonal band leaves no row or column empty
    A = (A + sp.csr_matrix((np.ones(n), (np.arange(n) % w, np.arange(n) % d)), shape=(w, d))).tocsr()
    A.sum_duplicates()  # sorted by (row, col)
    degrees = np.asarray(A.sum(axis=1)).ravel(), np.asarray(A.sum(axis=0)).ravel()
    A = A.tocoo()
    counts = cc.Counts(A.row.astype(np.intp), A.col.astype(np.intp), A.data)
    return TermDocMatrix(counts, tuple(range(w)), tuple(range(d)), *degrees)


@pytest.mark.parametrize(
    "w, d, density, npairs",
    [
        (400, 3000, 0.01, 3),  # ARPACK, wide
        (3000, 400, 0.01, 4),  # ARPACK, tall
        (2, (1 << 19) + 1, 0.3, 2),  # too few rows for ARPACK: dense
    ],
)
def test_singular_pairs_above_dense_cutoff(w, d, density, npairs):
    assert w * d > cc._DENSE_ENTRIES
    m = _large_matrix(w, d, density)
    An = normalize_matrix(m)
    sigmas, U, V = cc._singular_pairs(An, m.row_degrees, m.col_degrees, npairs)
    dense = np.linalg.svd(An.toarray(), compute_uv=False)
    assert sigmas == pytest.approx(dense[:npairs], abs=1e-10)
    _assert_singular_pairs(An, sigmas, U, V)


def test_kmeans_single_cluster():
    Z = np.array([[0.0], [1.0], [2.0]])
    assert kmeans_partition(Z, 1, seed=0).tolist() == [0, 0, 0]


def test_kmeans_splits_by_sign():
    Z = np.array([[-0.7]] * 3 + [[0.5]] * 4)
    labels = kmeans_partition(Z, 2, seed=11)
    assert len(set(labels[:3])) == 1
    assert len(set(labels[3:])) == 1
    assert labels[0] != labels[3]


def test_kmeans_singletons():
    Z = np.array([[0.0], [1.0], [2.0]])
    labels = kmeans_partition(Z, 3, seed=5)
    assert sorted(labels.tolist()) == [0, 1, 2]


def test_kmeans_deterministic():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((40, 2))
    a = kmeans_partition(Z, 4, seed=9)
    b = kmeans_partition(Z, 4, seed=9)
    assert (a == b).all()


def test_assign_word_clusters_mstar():
    m = mstar()
    out = assign_words(m, ({"d1"}, {"d2", "d3"}))
    assert out == (frozenset({"w1", "w2"}), frozenset({"w3", "w4"}))


def test_assign_doc_clusters_mstar():
    m = mstar()
    out = assign_docs(m, ({"w1", "w2"}, {"w3", "w4"}))
    assert out == (frozenset({"d1"}), frozenset({"d2", "d3"}))


def test_assign_tie_goes_to_first_cluster():
    m = matrix_from_counts(
        {("w1", "d1"): 1, ("w1", "d2"): 1}, ["w1"], ["d1", "d2"]
    )
    out = assign_words(m, ({"d1"}, {"d2"}))
    assert out == (frozenset({"w1"}), frozenset())


def test_assign_k1_collects_everything():
    m = mstar()
    assert assign_words(m, ({"d1", "d2", "d3"},)) == (
        frozenset({"w1", "w2", "w3", "w4"}),
    )


def test_assignment_scale_invariant():
    m = mstar()
    scaled = matrix_from_counts(
        {
            ("w1", "d1"): 14,
            ("w2", "d1"): 7,
            ("w3", "d2"): 21,
            ("w3", "d3"): 7,
            ("w4", "d2"): 7,
            ("w4", "d3"): 14,
        },
        m.terms,
        m.docs,
    )
    parts = ({"d1"}, {"d2", "d3"})
    assert assign_words(m, parts) == assign_words(scaled, parts)


def test_ratio_cut_zero_for_component_split():
    g = graph_from_matrix(mstar())
    assert ratio_cut(g, {"w1", "w2", "d1"}, {"w3", "w4", "d2", "d3"}) == 0.0


def test_ratio_cut_worked_value():
    g = graph_from_matrix(mstar())
    assert ratio_cut(g, {"w1", "d1"}, {"w2", "w3", "w4", "d2", "d3"}) == pytest.approx(0.7)


def test_ratio_cut_edgeless_graph():
    g = BipartiteGraph(("w1",), ("d1",), ())
    assert ratio_cut(g, {"w1"}, {"d1"}) == 0.0


def test_ratio_cut_empty_side():
    g = graph_from_matrix(mstar())
    with pytest.raises(ValueError, match="both sides of the partition must be nonempty"):
        ratio_cut(g, set(), set(g.vertices))


def test_brute_force_mstar():
    g = graph_from_matrix(mstar())
    v1, value = brute_force_min_ratio_cut(g)
    assert value == 0.0
    assert v1 == {"d1", "w1", "w2"}


def test_brute_force_single_edge():
    g = BipartiteGraph(("a",), ("b",), (("a", "b", 1.0),))
    _, value = brute_force_min_ratio_cut(g)
    assert value == 2.0


def test_brute_force_too_large():
    g = BipartiteGraph(tuple(f"w{i}" for i in range(11)), tuple(f"d{i}" for i in range(10)), ())
    with pytest.raises(ValueError, match="21 vertices exceeds the brute-force limit of 20"):
        brute_force_min_ratio_cut(g)


def test_cocluster_recovers_blocks():
    m = mstar()
    words, docs = cluster_sets(m, cocluster(m, 2, seed=7))
    assert set(words) == {frozenset({"w1", "w2"}), frozenset({"w3", "w4"})}
    assert set(docs) == {frozenset({"d1"}), frozenset({"d2", "d3"})}


def test_cocluster_k1_degenerate():
    m = matrix_from_counts({("w1", "d1"): 1, ("w2", "d1"): 2}, ["w1", "w2"], ["d1"])
    assert cluster_sets(m, cocluster(m, 1, seed=0)) == (
        (frozenset({"w1", "w2"}),), (frozenset({"d1"}),))


@pytest.mark.parametrize("k, passes", [(2, 0), (2, -3), (1, 0)])
def test_cocluster_rejects_refine_passes_below_one(k, passes):
    with pytest.raises(SemindexError, match=f"refine_passes must be >= 1, got {passes}"):
        cocluster(mstar(), k, 0, refine_passes=passes)


def test_cocluster_deterministic():
    a = cocluster(mstar(), 2, seed=3)
    b = cocluster(mstar(), 2, seed=3)
    assert np.array_equal(a.word_labels, b.word_labels)
    assert np.array_equal(a.doc_labels, b.doc_labels)
    m = mstar()
    An = normalize_matrix(m)
    first = spectral_embed(An, m.row_degrees, m.col_degrees, 2)
    assert (first == spectral_embed(An, m.row_degrees, m.col_degrees, 2)).all()


def test_duality_assignment_fixed_point_on_blocks():
    m = mstar()
    words = assign_words(m, ({"d1"}, {"d2", "d3"}))
    docs = assign_docs(m, words)
    words2 = assign_words(m, docs)
    docs2 = assign_docs(m, words2)
    assert (words, docs) == (words2, docs2)


def test_report_ratio_cut_matches_graph_formula(tmp_path):
    rng = np.random.default_rng(29)
    path = tmp_path / "clusters.json"
    reported = 0
    for _ in range(60):
        w, d = (int(n) for n in rng.integers(1, 10, size=2))
        dense = np.where(rng.random((w, d)) < 0.4, rng.integers(1, 6, size=(w, d)), 0)
        dense[np.arange(w), rng.integers(d, size=w)] = int(rng.integers(1, 6))
        dense[rng.integers(w, size=d), np.arange(d)] = int(rng.integers(1, 6))
        terms = [f"w{i}" for i in range(w)]
        docs = [f"d{j}" for j in range(d)]
        m = matrix_from_counts(
            {(terms[i], docs[j]): dense[i, j] for i, j in zip(*np.nonzero(dense))}, terms, docs
        )
        word_side, doc_side = rng.integers(2, size=w), rng.integers(2, size=d)
        clustering = cc.CoClustering(2, word_side, doc_side)
        cc.write_cluster_report(clustering, m, path)
        report = json.loads(path.read_text(encoding="utf-8"))
        (w1, w2), (d1, d2) = cluster_sets(m, clustering)
        v1, v2 = w1 | d1, w2 | d2
        if v1 and v2:
            assert report["ratio_cut_2way"] == ratio_cut(graph_from_matrix(m), v1, v2)
            reported += 1
        else:
            assert "ratio_cut_2way" not in report
    assert reported > 40
