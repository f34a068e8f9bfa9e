"""Bipartite spectral co-clustering of terms and documents.

The term-document count matrix is degree-normalized, embedded through the
leading non-trivial singular pairs (dense LAPACK for matrices of up to
2^20 entries, ARPACK beyond), and partitioned jointly with k-means.  Word
and document cluster assignments are then refined with the dual max-mass
formulas, and partitions can be scored with the ratio-cut objective.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import (
    BadClusterCount,
    EmptyMatrix,
    EmptySide,
    NoConvergence,
    TooLarge,
    ZeroDegree,
)
from .lexicon import Postings, Vocabulary

_RESIDUAL_TOL = 1e-8
# Above this many entries ARPACK replaces dense SVD, which takes about 6 s
# and 700 MB on a 1500 x 9700 matrix.
_DENSE_ENTRIES = 1 << 20


@dataclass(frozen=True)
class TermDocMatrix:
    A: sp.csr_matrix  # terms x documents, nonnegative counts
    terms: tuple
    docs: tuple
    row_degrees: np.ndarray
    col_degrees: np.ndarray
    pruned_terms: tuple = ()
    pruned_docs: tuple = ()


@dataclass(frozen=True)
class BipartiteGraph:
    term_vertices: tuple
    doc_vertices: tuple
    edges: tuple  # (term label, doc label, weight)

    @property
    def vertices(self) -> tuple:
        return self.term_vertices + self.doc_vertices


@dataclass(frozen=True)
class CoClustering:
    k: int
    word_clusters: tuple  # tuple of frozensets over term labels
    doc_clusters: tuple
    embedding: np.ndarray  # (terms + docs) x l, term rows first
    dropped_groups: tuple = ()


def build_matrix(vocab: Vocabulary, postings: Postings) -> TermDocMatrix:
    """Counts of the postings, restricted to vocabulary terms."""
    position = {t: i for i, t in enumerate(vocab.terms)}
    rows = np.array([position.get(t, -1) for t in postings.terms], dtype=np.intp)[postings.term]
    keep = (rows >= 0) & (postings.count > 0)
    if not keep.any():
        raise EmptyMatrix("no vocabulary term occurs in any Index document")
    A = sp.csr_matrix(
        (postings.count[keep], (rows[keep], postings.doc[keep])),
        shape=(len(vocab.terms), len(postings.docs)),
    )
    row_deg = np.asarray(A.sum(axis=1)).ravel()
    col_deg = np.asarray(A.sum(axis=0)).ravel()
    keep_rows = np.flatnonzero(row_deg > 0)
    keep_cols = np.flatnonzero(col_deg > 0)
    pruned_terms = tuple(vocab.terms[i] for i in np.flatnonzero(row_deg == 0))
    pruned_docs = tuple(postings.docs[j] for j in np.flatnonzero(col_deg == 0))
    A = A[keep_rows][:, keep_cols].tocsr()
    if A.nnz == 0:
        raise EmptyMatrix("matrix empty after pruning zero rows/columns")
    return TermDocMatrix(
        A=A,
        terms=tuple(vocab.terms[i] for i in keep_rows),
        docs=tuple(postings.docs[j] for j in keep_cols),
        row_degrees=np.asarray(A.sum(axis=1)).ravel(),
        col_degrees=np.asarray(A.sum(axis=0)).ravel(),
        pruned_terms=pruned_terms,
        pruned_docs=pruned_docs,
    )


def matrix_from_counts(counts: dict, terms, docs) -> TermDocMatrix:
    """Convenience builder from {(term, doc): count}; labels give the order."""
    terms = tuple(terms)
    docs = tuple(docs)
    A = sp.lil_matrix((len(terms), len(docs)))
    ti = {t: i for i, t in enumerate(terms)}
    dj = {d: j for j, d in enumerate(docs)}
    for (t, d), c in counts.items():
        A[ti[t], dj[d]] = float(c)
    A = A.tocsr()
    row_deg = np.asarray(A.sum(axis=1)).ravel()
    col_deg = np.asarray(A.sum(axis=0)).ravel()
    if (row_deg == 0).any() or (col_deg == 0).any():
        raise EmptyMatrix("zero row or column in explicit count matrix")
    return TermDocMatrix(A, terms, docs, row_deg, col_deg)


def normalize_matrix(m: TermDocMatrix) -> sp.csr_matrix:
    """An = D1^(-1/2) A D2^(-1/2), entrywise A_ij / sqrt(D1_i * D2_j)."""
    if (m.row_degrees <= 0).any() or (m.col_degrees <= 0).any():
        raise ZeroDegree("degree vectors must be strictly positive")
    d1 = sp.diags(1.0 / np.sqrt(m.row_degrees))
    d2 = sp.diags(1.0 / np.sqrt(m.col_degrees))
    return (d1 @ m.A @ d2).tocsr()


def _fix_sign(u: np.ndarray, v: np.ndarray):
    pivot = int(np.argmax(np.abs(u)))
    if u[pivot] < 0:
        return -u, -v
    return u, v


def _singular_pairs(An: sp.csr_matrix, row_degrees, col_degrees, npairs: int):
    """Leading singular triplets of An, largest first, by LAPACK or ARPACK.

    The trivial first pair (sigma = 1, scaled degree vectors) is known in
    closed form.  The solver runs on An + u1 v1^T, which lifts that pair to
    sigma = 2, above every other pair (all <= 1); the pairs after it then
    come out orthogonal to it even when sigma = 1 repeats (a disconnected
    graph) or sigma = 0 does (rank below npairs).  Matrices of up to
    _DENSE_ENTRIES entries use dense LAPACK; larger ones use ARPACK, whose
    import costs a process about 10 MB and is therefore deferred.
    """
    w, d = An.shape
    total = math.sqrt(row_degrees.sum())
    u1 = np.sqrt(row_degrees) / total
    v1 = np.sqrt(col_degrees) / total
    if w * d <= _DENSE_ENTRIES or min(w, d) <= npairs:  # svds needs k < min(w, d)
        U, sigmas, Vt = np.linalg.svd(An.toarray() + np.outer(u1, v1), full_matrices=False)
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

        # multiply.outer keeps the shape of x: a vector or a block of columns
        lifted = LinearOperator(
            An.shape,
            matvec=lambda x: An @ x + np.multiply.outer(u1, v1 @ x),
            rmatvec=lambda y: An.T @ y + np.multiply.outer(v1, u1 @ y),
            dtype=float,
        )
        v0 = np.random.default_rng(0).standard_normal(min(w, d))
        try:
            U, sigmas, Vt = svds(lifted, k=npairs, v0=v0, tol=0, solver="arpack")
        except ArpackNoConvergence as exc:
            raise NoConvergence(math.inf) from exc
        order = np.argsort(-sigmas, kind="stable")
        U, sigmas, Vt = U[:, order], sigmas[order], Vt[order]
    pairs = [_fix_sign(U[:, p], Vt[p]) for p in range(1, npairs)]
    sigmas = np.concatenate(([1.0], sigmas[1:npairs]))
    U = np.column_stack([u1] + [u for u, _ in pairs])
    V = np.column_stack([v1] + [v for _, v in pairs])
    residual = max(np.abs(An @ V - U * sigmas).max(), np.abs(An.T @ U - V * sigmas).max())
    if residual > _RESIDUAL_TOL:
        raise NoConvergence(float(residual))
    return sigmas, U, V


def embedding_dim(k: int) -> int:
    return 1 if k <= 2 else math.ceil(math.log2(k))


def spectral_embed(An: sp.csr_matrix, row_degrees, col_degrees, k: int) -> np.ndarray:
    """Joint term/document coordinates from singular pairs 2..l+1."""
    w, d = An.shape
    if k < 2:
        raise BadClusterCount(f"spectral embedding needs k >= 2, got {k}")
    if k > min(w, d):
        raise BadClusterCount(f"k={k} exceeds matrix dimension {min(w, d)}")
    ell = embedding_dim(k)
    _, U, V = _singular_pairs(An, row_degrees, col_degrees, ell + 1)
    z_terms = U[:, 1:] / np.sqrt(row_degrees)[:, None]
    z_docs = V[:, 1:] / np.sqrt(col_degrees)[:, None]
    return np.vstack([z_terms, z_docs])


def kmeans_partition(Z: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic Lloyd iterations with farthest-point seeding."""
    n = len(Z)
    if k < 1 or n < k:
        raise BadClusterCount(f"cannot split {n} vertices into {k} groups")
    if k == 1:
        return np.zeros(n, dtype=int)
    rng = np.random.default_rng(seed)
    centers = [Z[int(rng.integers(n))]]
    for _ in range(1, k):
        dists = np.min(
            [np.sum((Z - c) ** 2, axis=1) for c in centers], axis=0
        )
        centers.append(Z[int(np.argmax(dists))])
    centers = np.array(centers)
    labels = np.zeros(n, dtype=int)
    for _ in range(300):
        sq = np.array([np.sum((Z - c) ** 2, axis=1) for c in centers])
        new_labels = np.argmin(sq, axis=0)
        for g in range(k):
            if not (new_labels == g).any():
                # repair: steal the point farthest from its own centroid
                gaps = sq[new_labels, np.arange(n)]
                thief = int(np.argmax(gaps))
                new_labels[thief] = g
        if (new_labels == labels).all():
            break
        labels = new_labels
        for g in range(k):
            centers[g] = Z[labels == g].mean(axis=0)
    return labels


def _assign(scores: np.ndarray, labels, k: int):
    clusters = [set() for _ in range(k)]
    winners = np.argmax(scores, axis=1)  # argmax ties -> smallest cluster index
    for label, m in zip(labels, winners):
        clusters[int(m)].add(label)
    return tuple(frozenset(c) for c in clusters)


def assign_word_clusters(A: sp.csr_matrix, terms, docs, doc_clusters) -> tuple:
    """W_m: each word joins the cluster maximizing its in-cluster mass."""
    k = len(doc_clusters)
    S = np.zeros((len(docs), k))
    for m, cluster in enumerate(doc_clusters):
        for j, doc in enumerate(docs):
            if doc in cluster:
                S[j, m] = 1.0
    return _assign(A @ S, terms, k)


def assign_doc_clusters(A: sp.csr_matrix, terms, docs, word_clusters) -> tuple:
    """D_m: dual of assign_word_clusters, over matrix rows."""
    k = len(word_clusters)
    S = np.zeros((len(terms), k))
    for m, cluster in enumerate(word_clusters):
        for i, term in enumerate(terms):
            if term in cluster:
                S[i, m] = 1.0
    return _assign(A.T @ S, docs, k)


def graph_from_matrix(m: TermDocMatrix) -> BipartiteGraph:
    coo = m.A.tocoo()
    edges = tuple(
        (m.terms[i], m.docs[j], float(w))
        for i, j, w in zip(coo.row, coo.col, coo.data)
        if w != 0.0
    )
    return BipartiteGraph(tuple(m.terms), tuple(m.docs), edges)


def ratio_cut(g: BipartiteGraph, v1, v2) -> float:
    """cut(V1,V2)/|V1| + cut(V1,V2)/|V2| for a bipartition of the vertices."""
    v1, v2 = set(v1), set(v2)
    if not v1 or not v2:
        raise EmptySide("both sides of the partition must be nonempty")
    all_vertices = set(g.vertices)
    if v1 | v2 != all_vertices or v1 & v2:
        raise EmptySide("V1 and V2 must partition the vertex set")
    cut = sum(w for a, b, w in g.edges if (a in v1) != (b in v1))
    return cut / len(v1) + cut / len(v2)


def brute_force_min_ratio_cut(g: BipartiteGraph):
    """Exhaustive minimum ratio-cut bipartition; oracle for small graphs."""
    vertices = list(g.vertices)
    n = len(vertices)
    if n > 20:
        raise TooLarge(f"{n} vertices exceeds the brute-force limit of 20")
    if n < 2:
        raise EmptySide("need at least two vertices to bipartition")
    best = None
    for mask in range(0, 1 << (n - 1)):
        side = {vertices[i] for i in range(n) if mask & (1 << i)} | {vertices[n - 1]}
        other = set(vertices) - side
        if not other:
            continue
        cut = sum(w for a, b, w in g.edges if (a in side) != (b in side))
        value = cut / len(side) + cut / len(other)
        a, b = sorted(side), sorted(other)
        v1 = a if a < b else b
        key = (value, v1)
        if best is None or key < best:
            best = key
    value, v1 = best
    return set(v1), value


def cocluster(m: TermDocMatrix, k: int, seed: int, refine_passes: int = 1) -> CoClustering:
    """Full co-clustering: normalize, embed, k-means, duality refinement."""
    w, d = m.A.shape
    if k == 1:
        return CoClustering(
            1,
            (frozenset(m.terms),),
            (frozenset(m.docs),),
            np.zeros((w + d, 1)),
        )
    An = normalize_matrix(m)
    Z = spectral_embed(An, m.row_degrees, m.col_degrees, k)
    labels = kmeans_partition(Z, k, seed)
    doc_labels = labels[w:]
    doc_clusters = []
    dropped = []
    for g in range(k):
        members = frozenset(m.docs[j] for j in np.flatnonzero(doc_labels == g))
        if members:
            doc_clusters.append(members)
        else:
            dropped.append(g)
    doc_clusters = tuple(doc_clusters)
    word_clusters = ()
    for _ in range(max(1, refine_passes)):
        word_clusters = assign_word_clusters(m.A, m.terms, m.docs, doc_clusters)
        doc_clusters = assign_doc_clusters(m.A, m.terms, m.docs, word_clusters)
    return CoClustering(len(doc_clusters), word_clusters, doc_clusters, Z, tuple(dropped))


def write_cluster_report(cc: CoClustering, m: TermDocMatrix, path) -> None:
    report = {
        "k": cc.k,
        "clusters": [
            {
                "id": i + 1,
                "words": sorted(cc.word_clusters[i]),
                "docs": sorted(cc.doc_clusters[i]),
            }
            for i in range(cc.k)
        ],
        "dropped_groups": list(cc.dropped_groups),
    }
    if cc.k == 2:
        sides = [len(cc.word_clusters[g]) + len(cc.doc_clusters[g]) for g in (0, 1)]
        if all(sides):
            # x, y: terms and documents on side 0; cut = x'A(1-y) + (1-x)'Ay
            x = np.fromiter((t in cc.word_clusters[0] for t in m.terms), float, len(m.terms))
            y = np.fromiter((d in cc.doc_clusters[0] for d in m.docs), float, len(m.docs))
            cut = float(x @ (m.A @ (1 - y)) + (1 - x) @ (m.A @ y))
            report["ratio_cut_2way"] = cut / sides[0] + cut / sides[1]
    Path(path).write_text(
        json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
        encoding="utf-8",
    )
