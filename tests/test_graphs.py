import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semindex.cocluster import CoClustering
from semindex.errors import MalformedPajek, UnknownNode, UnknownTerm
from semindex.graphs import (
    CombineMode,
    TermGraph,
    cluster_graph,
    combine_nodes,
    ego_network,
    export_pajek,
    parse_pajek,
)

from conftest import dense, mstar
from oracles import matrix_from_counts


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
    labels = g.labels()
    assert labels[0] == "w1"
    assert set(labels[1:]) == {"w2", "w5"}
    assert all(u == 0 and w == 1.0 for u, _, w in g.edges)
    payloads = dict(g.nodes)
    assert payloads["w2"] == frozenset({"d1"})


def test_ego_network_isolated_term():
    m = matrix_from_counts(
        {("w1", "d1"): 1, ("w2", "d2"): 1}, ["w1", "w2"], ["d1", "d2"]
    )
    g = ego_network(m, "w1")
    assert g.labels() == ("w1",)
    assert g.edges == ()


def test_ego_network_unknown_term():
    with pytest.raises(UnknownTerm):
        ego_network(mstar(), "nope")


def test_ego_weights_symmetric():
    m = mstar_plus_w5()
    g1 = ego_network(m, "w1")
    g2 = ego_network(m, "w2")
    w12 = next(w for u, v, w in g1.edges if g1.nodes[v][0] == "w2")
    w21 = next(w for u, v, w in g2.edges if g2.nodes[v][0] == "w1")
    assert w12 == w21


def dense_ego_network(m, term):
    """Reference: the ego network written out over the dense matrix."""
    A = dense(m)
    center = m.terms.index(term)
    support = {m.docs[j] for j in range(len(m.docs)) if A[center, j] > 0}
    nodes = [(term, frozenset(support))]
    edges = []
    for i, other in enumerate(m.terms):
        if i == center:
            continue
        shared = {m.docs[j] for j in range(len(m.docs)) if A[i, j] > 0 and m.docs[j] in support}
        if shared:
            edges.append((0, len(nodes), float(len(shared))))
            nodes.append((other, frozenset(shared)))
    return TermGraph(tuple(nodes), tuple(edges))


def dense_cluster_graph(m, cc):
    """Reference: cross-cluster mass summed block by block over the dense matrix."""
    A = dense(m)
    term_pos = {t: i for i, t in enumerate(m.terms)}
    doc_pos = {d: j for j, d in enumerate(m.docs)}
    nodes = tuple((f"cluster-{i + 1}", frozenset(cc.doc_clusters[i])) for i in range(cc.k))
    edges = []
    for a in range(cc.k):
        for b in range(a + 1, cc.k):
            mass = 0.0
            for x, y in ((a, b), (b, a)):
                rows = [term_pos[t] for t in cc.word_clusters[x]]
                cols = [doc_pos[d] for d in cc.doc_clusters[y]]
                mass += float(A[np.ix_(rows, cols)].sum())
            if mass > 0:
                edges.append((a, b, mass))
    return TermGraph(nodes, tuple(edges))


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
        cc = CoClustering.from_labels(m, k, word_labels, doc_labels)
        assert cluster_graph(m, cc) == dense_cluster_graph(m, cc)


def combo_graph():
    return TermGraph(
        (
            ("a", frozenset({"d1", "d2"})),
            ("b", frozenset({"d2", "d3"})),
            ("c", frozenset({"d4"})),
        ),
        ((0, 1, 2.0), (0, 2, 1.0), (1, 2, 3.0)),
    )


def test_combine_union():
    g = combine_nodes(combo_graph(), "a", "b", CombineMode.UNION)
    assert g.nodes[0] == ("a+b", frozenset({"d1", "d2", "d3"}))


def test_combine_intersection():
    g = combine_nodes(combo_graph(), "a", "b", CombineMode.INTERSECTION)
    assert g.nodes[0] == ("a·b", frozenset({"d2"}))


def test_combine_disjoint_intersection_kept_empty():
    g = combine_nodes(combo_graph(), "a", "c", CombineMode.INTERSECTION)
    assert ("a·c", frozenset()) in g.nodes


def test_combine_unknown_node():
    with pytest.raises(UnknownNode):
        combine_nodes(combo_graph(), "a", "zz", CombineMode.UNION)


def test_combine_preserves_external_weight():
    g0 = combo_graph()
    incident = sum(w for u, v, w in g0.edges if 0 in (u, v) or 1 in (u, v))
    internal = sum(w for u, v, w in g0.edges if {u, v} == {0, 1})
    g = combine_nodes(g0, "a", "b", CombineMode.UNION)
    merged_idx = g.labels().index("a+b")
    after = sum(w for u, v, w in g.edges if merged_idx in (u, v))
    assert after == incident - internal


def test_export_pajek_bytes(tmp_path):
    g = TermGraph((("a", frozenset()), ("b", frozenset())), ((0, 1, 1.0),))
    path = tmp_path / "g.net"
    export_pajek(g, path)
    assert path.read_bytes() == b'*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2 1\n'


def test_export_empty_graph(tmp_path):
    path = tmp_path / "g.net"
    export_pajek(TermGraph((), ()), path)
    assert path.read_bytes() == b"*Vertices 0\n*Edges\n"


def test_export_parse_round_trip(tmp_path):
    g = TermGraph(
        (("alpha beta", frozenset()), ("b", frozenset()), ("c", frozenset())),
        ((0, 1, 0.5), (1, 2, 3.0)),
    )
    p1 = tmp_path / "a.net"
    p2 = tmp_path / "b.net"
    export_pajek(g, p1)
    parsed = parse_pajek(p1)
    assert parsed.labels() == g.labels()
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
        g = TermGraph(tuple((l, frozenset()) for l in labels), tuple(edges))
        p1 = tmp_path / f"{trial}a.net"
        p2 = tmp_path / f"{trial}b.net"
        export_pajek(g, p1)
        export_pajek(parse_pajek(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "text",
    [
        '*Vertices 3\n1 "a"\n',  # fewer vertex lines than announced
        '*Vertices two\n1 "a"\n2 "b"\n*Edges\n',
    ],
)
def test_parse_pajek_rejects_bad_vertex_count(tmp_path, text):
    path = tmp_path / "g.net"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedPajek):
        parse_pajek(path)


@pytest.mark.parametrize("edge", ["1 5 1", "0 1 1"])
def test_parse_pajek_rejects_edge_outside_vertices(tmp_path, edge):
    path = tmp_path / "g.net"
    path.write_text(f'*Vertices 1\n1 "a"\n*Edges\n{edge}\n', encoding="utf-8")
    with pytest.raises(MalformedPajek, match="1..1"):
        parse_pajek(path)


@pytest.mark.parametrize("text", [
    '*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2 abc\n',
    "*Vertices " + "9" * 5000 + "\n",
    '*Vertices 1\n1 "a"\n*Edges\n1 ' + "1" * 5000 + " 1\n",
], ids=["word-weight", "long-count", "long-vertex"])
def test_parse_pajek_bad_number_names_the_path(tmp_path, text):
    path = tmp_path / "g.net"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedPajek, match=re.escape(f"{path}: ")):
        parse_pajek(path)


@pytest.mark.parametrize("text", [
    '*Vertices 2\n7 "a"\n7 "b"\n*Edges\n1 2 1\n',
    '*Vertices 2\n2 "a"\n1 "b"\n*Edges\n',
    '*Vertices 1\n' + "1" * 5000 + ' "a"\n*Edges\n',
], ids=["repeated", "swapped", "long-number"])
def test_parse_pajek_rejects_vertex_numbered_out_of_place(tmp_path, text):
    path = tmp_path / "g.net"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedPajek, match=re.escape(f"{path}: bad vertex line ")):
        parse_pajek(path)


pajek_lines = st.sampled_from([
    "*Vertices 0", "*Vertices 1", "*Vertices 2", "*Vertices " + "9" * 5000, "*Edges",
    '1 "a"', '2 "b"', '3 "c d"', '7 "a"', "1 2 1", "2 1 0.5", "1 2 abc", "1 2 nan", "3 1 1", "1 1 -2",
]) | st.from_regex(r"[0-9]{1,3} [0-9]{1,3} \S{1,5}", fullmatch=True) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=10
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(pajek_lines, max_size=8))
def test_any_pajek_text_parses_or_is_malformed(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("net") / "g.net"
    path.write_bytes("\n".join(lines).encode("utf-8"))
    try:
        graph = parse_pajek(path)
    except MalformedPajek as exc:
        assert len(str(exc).splitlines()) == 1
    else:
        assert all(0 <= u < len(graph.nodes) and 0 <= v < len(graph.nodes) for u, v, _ in graph.edges)
