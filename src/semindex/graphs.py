"""Term graphs and Pajek export: per-term ego networks and the cluster graph."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocluster import CoClustering, TermDocMatrix, label_mass
from .errors import UnknownTerm, UnwritableLabel, write_text


@dataclass(frozen=True)
class TermGraph:
    labels: tuple  # node labels, insertion order
    edges: tuple  # (node index, node index, weight), no self-loops


def ego_network(m: TermDocMatrix, term: str) -> TermGraph:
    """Star of terms sharing at least one document with the center term."""
    if term not in m.terms:
        raise UnknownTerm(f"{term!r} is not a matrix row")
    center = m.terms.index(term)
    row, col = m.A.row, m.A.col
    support = np.zeros(len(m.docs), dtype=bool)
    support[col[row == center]] = True
    shared = support[col] & (row != center)  # entries of other terms in the center's documents
    neighbours, counts = np.unique(row[shared], return_counts=True)
    labels = (term,) + tuple(m.terms[i] for i in neighbours.tolist())
    edges = tuple((0, v, float(n)) for v, n in enumerate(counts.tolist(), 1))
    return TermGraph(labels, edges)


def cluster_graph(m: TermDocMatrix, cc: CoClustering) -> TermGraph:
    """One node per co-cluster; edge weight = cross-cluster matrix mass."""
    labels = tuple(f"cluster-{i + 1}" for i in range(cc.k))
    # mass[a, b]: matrix mass of word cluster a over document cluster b
    mass = label_mass(m, cc.word_labels, cc.doc_labels, (cc.k, cc.k))
    cross = mass + mass.T
    edges = tuple(
        (a, b, float(cross[a, b]))
        for a in range(cc.k)
        for b in range(a + 1, cc.k)
        if cross[a, b] > 0
    )
    return TermGraph(labels, edges)


def _format_weight(w: float) -> str:
    return str(int(w)) if float(w).is_integer() else repr(float(w))


def export_pajek(g: TermGraph, path) -> None:
    """Write the graph in Pajek .net format with LF endings."""
    lines = [f"*Vertices {len(g.labels)}"]
    for i, label in enumerate(g.labels, start=1):
        if '"' in label:
            raise UnwritableLabel(f"label {label!r} contains a double quote")
        lines.append(f'{i} "{label}"')
    lines.append("*Edges")
    for u, v, w in g.edges:
        lines.append(f"{u + 1} {v + 1} {_format_weight(w)}")
    write_text(path, "\n".join(lines) + "\n")
