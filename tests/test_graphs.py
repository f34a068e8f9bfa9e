import numpy as np
import pytest

from semindex.cocluster import CoClustering
from semindex.errors import UnknownTerm
from semindex.graphs import TermGraph, cluster_graph, ego_network, export_pajek

from conftest import cluster_sets, dense, mstar
from oracles import matrix_from_counts, parse_pajek


def mstar_plus_w5():
    return matrix_from_counts(
        {
            ("w1", "d1"): 2,
            ("w2", "d1"): 1,
            ("w3", "d2"): 3,
            ("w3", "d3"): 1,
            ("w4", "d2"): 1,
            ("w4", "d3"): 2,
            ("w5", "d1"): 1,
        },
        ["w1", "w2", "w3", "w4", "w5"],
        ["d1", "d2", "d3"],
    )


def test_ego_network_neighbors():
    g = ego_network(mstar_plus_w5(), "w1")
    assert g.labels[0] == "w1"
    assert set(g.labels[1:]) == {"w2", "w5"}
    assert all(u == 0 and w == 1.0 for u, _, w in g.edges)


def test_ego_network_isolated_term():
    m = matrix_from_counts(
        {("w1", "d1"): 1, ("w2", "d2"): 1}, ["w1", "w2"], ["d1", "d2"]
    )
    g = ego_network(m, "w1")
    assert g.labels == ("w1",)
    assert g.edges == ()


def test_ego_network_unknown_term():
    with pytest.raises(UnknownTerm):
        ego_network(mstar(), "nope")


def test_ego_weights_symmetric():
    m = mstar_plus_w5()
    g1 = ego_network(m, "w1")
    g2 = ego_network(m, "w2")
    w12 = next(w for u, v, w in g1.edges if g1.labels[v] == "w2")
    w21 = next(w for u, v, w in g2.edges if g2.labels[v] == "w1")
    assert w12 == w21


def dense_ego_network(m, term):
    """Reference: the ego network written out over the dense matrix."""
    A = dense(m)
    center = m.terms.index(term)
    support = {j for j in range(len(m.docs)) if A[center, j] > 0}
    labels = [term]
    edges = []
    for i, other in enumerate(m.terms):
        if i == center:
            continue
        shared = {j for j in support if A[i, j] > 0}
        if shared:
            edges.append((0, len(labels), float(len(shared))))
            labels.append(other)
    return TermGraph(tuple(labels), tuple(edges))


def dense_cluster_graph(m, cc):
    """Reference: cross-cluster mass summed block by block over the dense matrix."""
    A = dense(m)
    term_pos = {t: i for i, t in enumerate(m.terms)}
    doc_pos = {d: j for j, d in enumerate(m.docs)}
    words, docs = cluster_sets(m, cc)
    labels = tuple(f"cluster-{i + 1}" for i in range(cc.k))
    edges = []
    for a in range(cc.k):
        for b in range(a + 1, cc.k):
            mass = 0.0
            for x, y in ((a, b), (b, a)):
                rows = [term_pos[t] for t in words[x]]
                cols = [doc_pos[d] for d in docs[y]]
                mass += float(A[np.ix_(rows, cols)].sum())
            if mass > 0:
                edges.append((a, b, mass))
    return TermGraph(labels, tuple(edges))


def random_matrix(rng):
    w, d = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    # integer counts keep every sum exact, whatever its order
    dense = np.where(rng.random((w, d)) < 0.3, rng.integers(1, 6, size=(w, d)), 0)
    dense[np.arange(w), rng.integers(d, size=w)] = 1
    dense[rng.integers(w, size=d), np.arange(d)] = 1
    terms = [f"w{i}" for i in range(w)]
    docs = [f"d{j}" for j in range(d)]
    counts = {(terms[i], docs[j]): dense[i, j] for i, j in zip(*np.nonzero(dense))}
    return matrix_from_counts(counts, terms, docs)


def test_graph_builders_match_dense_formulas():
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = random_matrix(rng)
        for term in m.terms:
            assert ego_network(m, term) == dense_ego_network(m, term)
        k = int(rng.integers(1, 5))
        word_labels = rng.integers(k, size=len(m.terms))
        doc_labels = rng.integers(k, size=len(m.docs))
        cc = CoClustering(k, word_labels, doc_labels)
        assert cluster_graph(m, cc) == dense_cluster_graph(m, cc)


def test_export_pajek_bytes(tmp_path):
    g = TermGraph(("a", "b"), ((0, 1, 1.0),))
    path = tmp_path / "g.net"
    export_pajek(g, path)
    assert path.read_bytes() == b'*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2 1\n'


def test_export_empty_graph(tmp_path):
    path = tmp_path / "g.net"
    export_pajek(TermGraph((), ()), path)
    assert path.read_bytes() == b"*Vertices 0\n*Edges\n"


def test_export_parse_round_trip(tmp_path):
    g = TermGraph(("alpha beta", "b", "c"), ((0, 1, 0.5), (1, 2, 3.0)))
    p1 = tmp_path / "a.net"
    p2 = tmp_path / "b.net"
    export_pajek(g, p1)
    parsed = parse_pajek(p1)
    assert parsed.labels == g.labels
    assert parsed.edges == g.edges
    export_pajek(parsed, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_random_graphs(tmp_path):
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(0, 8))
        labels = [f"n{idx}" for idx in range(n)]
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    w = float(rng.integers(1, 5)) if rng.random() < 0.5 else round(float(rng.random()), 3)
                    if w > 0:
                        edges.append((u, v, w))
        g = TermGraph(tuple(labels), tuple(edges))
        p1 = tmp_path / f"{trial}a.net"
        p2 = tmp_path / f"{trial}b.net"
        export_pajek(g, p1)
        export_pajek(parse_pajek(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
