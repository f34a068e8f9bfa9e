"""Term graphs and Pajek export.

Nodes carry a label and a payload of document ids; combining two nodes
unions or intersects the payloads like a logical sum of the underlying
document sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cocluster import CoClustering, TermDocMatrix, label_mass
from .errors import (
    MalformedPajek,
    UnknownNode,
    UnknownTerm,
    UnwritableLabel,
    read_text,
    write_text,
)


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
    center = m.terms.index(term)
    row, col = m.A.row, m.A.col
    support = np.zeros(len(m.docs), dtype=bool)
    support[col[row == center]] = True
    shared = support[col] & (row != center)  # entries of other terms in the center's documents
    nodes = [(term, frozenset(m.docs[j] for j in np.flatnonzero(support)))]
    edges = []
    neighbours, starts = np.unique(row[shared], return_index=True)
    for i, cols in zip(neighbours.tolist(), np.split(col[shared], starts[1:])):
        edges.append((0, len(nodes), float(len(cols))))
        nodes.append((m.terms[i], frozenset(m.docs[j] for j in cols.tolist())))
    return TermGraph(tuple(nodes), tuple(edges))


def cluster_graph(m: TermDocMatrix, cc: CoClustering) -> TermGraph:
    """One node per co-cluster; edge weight = cross-cluster matrix mass."""
    nodes = tuple(
        (f"cluster-{i + 1}", frozenset(cc.doc_clusters[i])) for i in range(cc.k)
    )
    # mass[a, b]: matrix mass of word cluster a over document cluster b
    mass = label_mass(m, cc.word_labels, cc.doc_labels, (cc.k, cc.k))
    cross = mass + mass.T
    edges = tuple(
        (a, b, float(cross[a, b]))
        for a in range(cc.k)
        for b in range(a + 1, cc.k)
        if cross[a, b] > 0
    )
    return TermGraph(nodes, edges)


def combine_nodes(g: TermGraph, a: str, b: str, mode: CombineMode) -> TermGraph:
    """Merge two nodes; Union joins payloads, Intersection keeps the overlap.

    The merged node takes the earlier place; edges that now join the same
    nodes are summed, and the internal a-b edge disappears.
    """
    labels = g.labels()
    if a == b:
        raise ValueError("cannot combine a node with itself")
    for label in (a, b):
        if label not in labels:
            raise UnknownNode(f"no node labeled {label!r}")
    ia, ib = labels.index(a), labels.index(b)
    pa, pb = g.nodes[ia][1], g.nodes[ib][1]
    if mode is CombineMode.UNION:
        merged = (f"{a}+{b}", pa | pb)
    else:
        merged = (f"{a}·{b}", pa & pb)
    kept, gone = sorted((ia, ib))
    nodes = g.nodes[:kept] + (merged,) + g.nodes[kept + 1:gone] + g.nodes[gone + 1:]
    weights = {}  # (low, high) -> summed weight, in order of first appearance
    for u, v, w in g.edges:
        nu, nv = (kept if i == gone else i - (i > gone) for i in (u, v))
        if nu != nv:
            key = (min(nu, nv), max(nu, nv))
            weights[key] = weights.get(key, 0.0) + w
    return TermGraph(nodes, tuple((u, v, w) for (u, v), w in weights.items()))


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
    write_text(path, "\n".join(lines) + "\n")


_HEADER_RE = re.compile(r"^\*Vertices (\d+)$")
_VERTEX_RE = re.compile(r'^(\d+) "(.*)"$')
_EDGE_RE = re.compile(r"^(\d+) (\d+) (\S+)$")


def parse_pajek(path) -> TermGraph:
    """Read back a Pajek file written by export_pajek, vertices numbered 1..n (payloads are lost)."""
    lines = read_text(path).splitlines()
    header = _HEADER_RE.match(lines[0]) if lines else None
    if not header:
        raise MalformedPajek(f"{path}: missing or bad *Vertices header")
    try:
        count = int(header.group(1))
    except ValueError:  # more digits than int converts
        raise MalformedPajek(f"{path}: *Vertices count has {len(header.group(1))} digits") from None
    if len(lines) <= count:
        raise MalformedPajek(f"{path}: *Vertices {count} but {len(lines) - 1} lines follow")
    nodes = []
    for number, line in enumerate(lines[1:count + 1], 1):
        match = _VERTEX_RE.match(line)
        if not match or match.group(1) != str(number):  # as text: int() caps its digits
            raise MalformedPajek(f"{path}: bad vertex line {line!r}")
        nodes.append((match.group(2), frozenset()))
    if lines[count + 1:count + 2] != ["*Edges"]:
        raise MalformedPajek(f"{path}: missing *Edges section")
    edges = []
    for line in lines[count + 2:]:
        match = _EDGE_RE.match(line)
        if not match:
            raise MalformedPajek(f"{path}: bad edge line {line!r}")
        try:
            u, v, w = int(match.group(1)), int(match.group(2)), float(match.group(3))
        except ValueError:
            raise MalformedPajek(f"{path}: bad edge line {line!r}") from None
        if not (1 <= u <= count and 1 <= v <= count):
            raise MalformedPajek(f"{path}: edge {u} {v} names a vertex outside 1..{count}")
        edges.append((u - 1, v - 1, w))
    return TermGraph(tuple(nodes), tuple(edges))
