"""Term graphs and Pajek export.

Nodes carry a label and a payload of document ids; combining two nodes
unions or intersects the payloads like a logical sum of the underlying
document sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .cocluster import CoClustering, TermDocMatrix
from .errors import MalformedPajek, UnknownNode, UnknownTerm, UnwritableLabel


class CombineMode(Enum):
    UNION = "union"
    INTERSECTION = "intersection"


@dataclass(frozen=True)
class TermGraph:
    nodes: tuple  # (label, frozenset of doc ids), insertion order
    edges: tuple  # (node index, node index, weight), no self-loops

    def labels(self) -> tuple:
        return tuple(label for label, _ in self.nodes)


def ego_network(m: TermDocMatrix, term: str) -> TermGraph:
    """Star of terms sharing at least one document with the center term."""
    if term not in m.terms:
        raise UnknownTerm(f"{term!r} is not a matrix row")
    present = m.A > 0
    center = m.terms.index(term)
    support = present[center].indices
    shared = present[:, support].tocsr()  # terms x the center's documents
    nodes = [(term, frozenset(m.docs[j] for j in support))]
    edges = []
    for i in np.flatnonzero(np.diff(shared.indptr)):
        if i != center:
            cols = support[shared.indices[shared.indptr[i]:shared.indptr[i + 1]]]
            edges.append((0, len(nodes), float(len(cols))))
            nodes.append((m.terms[i], frozenset(m.docs[j] for j in cols)))
    return TermGraph(tuple(nodes), tuple(edges))


def _membership(labels, clusters) -> sp.csr_matrix:
    """Indicator matrix: row per label, column per cluster."""
    pos = {x: i for i, x in enumerate(labels)}
    cells = [(pos[x], c) for c, members in enumerate(clusters) for x in members if x in pos]
    rows, cols = np.array(cells, dtype=int).reshape(-1, 2).T
    return sp.csr_matrix((np.ones(len(cells)), (rows, cols)), shape=(len(labels), len(clusters)))


def cluster_graph(m: TermDocMatrix, cc: CoClustering) -> TermGraph:
    """One node per co-cluster; edge weight = cross-cluster matrix mass."""
    nodes = tuple(
        (f"cluster-{i + 1}", frozenset(cc.doc_clusters[i])) for i in range(cc.k)
    )
    # mass[a, b]: matrix mass of word cluster a over document cluster b
    mass = _membership(m.terms, cc.word_clusters).T @ m.A @ _membership(m.docs, cc.doc_clusters)
    cross = (mass + mass.T).toarray()
    edges = tuple(
        (a, b, float(cross[a, b]))
        for a in range(cc.k)
        for b in range(a + 1, cc.k)
        if cross[a, b] > 0
    )
    return TermGraph(nodes, edges)


def combine_nodes(g: TermGraph, a: str, b: str, mode: CombineMode) -> TermGraph:
    """Merge two nodes; Union joins payloads, Intersection keeps the overlap."""
    labels = g.labels()
    if a == b:
        raise ValueError("cannot combine a node with itself")
    if a not in labels or b not in labels:
        missing = a if a not in labels else b
        raise UnknownNode(f"no node labeled {missing!r}")
    ia, ib = labels.index(a), labels.index(b)
    pa, pb = g.nodes[ia][1], g.nodes[ib][1]
    if mode is CombineMode.UNION:
        merged = (f"{a}+{b}", pa | pb)
    else:
        merged = (f"{a}·{b}", pa & pb)

    new_nodes = []
    remap = {}
    for i in range(len(g.nodes)):
        if i == min(ia, ib):
            remap[ia] = remap[ib] = len(new_nodes)
            new_nodes.append(merged)
        elif i in (ia, ib):
            continue
        else:
            remap[i] = len(new_nodes)
            new_nodes.append(g.nodes[i])

    weights = {}
    order = []
    for u, v, w in g.edges:
        nu, nv = remap[u], remap[v]
        if nu == nv:
            continue  # the internal a-b edge disappears, no self-loop
        key = (min(nu, nv), max(nu, nv))
        if key not in weights:
            weights[key] = 0.0
            order.append(key)
        weights[key] += w
    return TermGraph(tuple(new_nodes), tuple((u, v, weights[(u, v)]) for u, v in order))


def _format_weight(w: float) -> str:
    return str(int(w)) if float(w).is_integer() else repr(float(w))


def export_pajek(g: TermGraph, path) -> None:
    """Write the graph in Pajek .net format with LF endings."""
    lines = [f"*Vertices {len(g.nodes)}"]
    for i, (label, _) in enumerate(g.nodes, start=1):
        if '"' in label:
            raise UnwritableLabel(f"label {label!r} contains a double quote")
        lines.append(f'{i} "{label}"')
    lines.append("*Edges")
    for u, v, w in g.edges:
        lines.append(f"{u + 1} {v + 1} {_format_weight(w)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


_HEADER_RE = re.compile(r"^\*Vertices (\d+)$")
_VERTEX_RE = re.compile(r'^(\d+) "(.*)"$')
_EDGE_RE = re.compile(r"^(\d+) (\d+) (\S+)$")


def parse_pajek(path) -> TermGraph:
    """Read back a Pajek file written by export_pajek (payloads are lost)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = _HEADER_RE.match(lines[0]) if lines else None
    if not header:
        raise MalformedPajek(f"{path}: missing or bad *Vertices header")
    count = int(header.group(1))
    if len(lines) <= count:
        raise MalformedPajek(f"{path}: *Vertices {count} but {len(lines) - 1} lines follow")
    nodes = []
    pos = 1
    for _ in range(count):
        match = _VERTEX_RE.match(lines[pos])
        if not match:
            raise MalformedPajek(f"{path}: bad vertex line {lines[pos]!r}")
        nodes.append((match.group(2), frozenset()))
        pos += 1
    if pos >= len(lines) or lines[pos] != "*Edges":
        raise MalformedPajek(f"{path}: missing *Edges section")
    pos += 1
    edges = []
    for line in lines[pos:]:
        match = _EDGE_RE.match(line)
        if not match:
            raise MalformedPajek(f"{path}: bad edge line {line!r}")
        u, v = int(match.group(1)), int(match.group(2))
        if not (1 <= u <= count and 1 <= v <= count):
            raise MalformedPajek(f"{path}: edge {u} {v} names a vertex outside 1..{count}")
        edges.append((u - 1, v - 1, float(match.group(3))))
    return TermGraph(tuple(nodes), tuple(edges))
