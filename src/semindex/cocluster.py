"""Bipartite spectral co-clustering of terms and documents.

The term-document count matrix is kept as its nonzero entries: parallel
numpy arrays of row, column and count, in posting order.  It is
degree-normalized, embedded through the leading non-trivial singular pairs
(dense LAPACK for matrices of up to 2^20 entries, ARPACK beyond; scipy is
loaded only then), and partitioned jointly with k-means.  Word and document
cluster labels are then refined with the dual max-mass formulas; the
cluster report gives the ratio cut of a 2-way partition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import (
    BadClusterCount,
    EmptyMatrix,
    NoConvergence,
    SemindexError,
    ZeroDegree,
    write_text,
)
from .lexicon import Postings, Vocabulary

_RESIDUAL_TOL = 1e-8
# Above this many entries ARPACK replaces dense SVD, which takes about 6 s
# and 700 MB on a 1500 x 9700 matrix.
_DENSE_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class Counts:
    """The positive entries of a terms x documents count matrix, document by document."""

    row: np.ndarray
    col: np.ndarray
    count: np.ndarray  # float

    @property
    def nnz(self) -> int:
        return len(self.count)


@dataclass(frozen=True)
class TermDocMatrix:
    A: Counts
    terms: tuple
    docs: tuple
    row_degrees: np.ndarray
    col_degrees: np.ndarray

    @property
    def shape(self) -> tuple:
        return len(self.terms), len(self.docs)


@dataclass(frozen=True)
class CoClustering:
    k: int
    word_labels: np.ndarray  # cluster in 0..k-1 of each matrix row
    doc_labels: np.ndarray  # cluster in 0..k-1 of each matrix column
    dropped_groups: tuple = ()


def build_matrix(vocab: Vocabulary, postings: Postings) -> TermDocMatrix:
    """Counts of the postings, restricted to vocabulary terms."""
    position = {t: i for i, t in enumerate(vocab.terms)}
    rows = np.array([position.get(t, -1) for t in postings.terms], dtype=np.intp)[postings.term]
    keep = (rows >= 0) & (postings.count > 0)
    if not keep.any():
        raise EmptyMatrix("no vocabulary term occurs in any Index document")
    row, col, count = rows[keep], postings.doc[keep], postings.count[keep]
    # every kept count is positive: a row or column with an entry has a positive degree
    row_deg = np.bincount(row, count, len(vocab.terms))
    col_deg = np.bincount(col, count, len(postings.docs))
    keep_rows = np.flatnonzero(row_deg > 0)
    keep_cols = np.flatnonzero(col_deg > 0)
    kept_row, kept_col = np.cumsum(row_deg > 0)[row] - 1, np.cumsum(col_deg > 0)[col] - 1
    return TermDocMatrix(
        A=Counts(kept_row, kept_col, count),
        terms=tuple(vocab.terms[i] for i in keep_rows),
        docs=tuple(postings.docs[j] for j in keep_cols),
        row_degrees=row_deg[keep_rows],
        col_degrees=col_deg[keep_cols],
    )


def normalize_matrix(m: TermDocMatrix):
    """An = D1^(-1/2) A D2^(-1/2), entrywise A_ij / sqrt(D1_i * D2_j).

    A dense array for matrices of up to _DENSE_ENTRIES entries, else a
    scipy.sparse CSR matrix.
    """
    if (m.row_degrees <= 0).any() or (m.col_degrees <= 0).any():
        raise ZeroDegree("degree vectors must be strictly positive")
    d1 = 1.0 / np.sqrt(m.row_degrees)
    d2 = 1.0 / np.sqrt(m.col_degrees)
    A = m.A
    values = A.count * d1[A.row] * d2[A.col]  # rounds as d1 @ A @ d2 does
    w, d = m.shape
    if w * d <= _DENSE_ENTRIES:
        An = np.zeros((w, d))
        An[A.row, A.col] = values
        return An
    import scipy.sparse as sp  # deferred: about 0.2 s a process, needed only here

    # scipy sorts the entries by row; within a row they already ascend by column
    return sp.csr_matrix((values, (A.row, A.col)), shape=(w, d))


def _fix_sign(u: np.ndarray, v: np.ndarray):
    pivot = int(np.argmax(np.abs(u)))
    if u[pivot] < 0:
        return -u, -v
    return u, v


def _singular_pairs(An, row_degrees, col_degrees, npairs: int):
    """Leading singular triplets of An (normalize_matrix's), largest first, by LAPACK or ARPACK.

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
        dense = An if isinstance(An, np.ndarray) else An.toarray()
        U, sigmas, Vt = np.linalg.svd(dense + np.outer(u1, v1), full_matrices=False)
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


def spectral_embed(An, row_degrees, col_degrees, k: int) -> np.ndarray:
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


def label_mass(m: TermDocMatrix, row_labels, col_labels, shape) -> np.ndarray:
    """mass[a, b]: total count of the entries whose row is labeled a and column b.

    Integer counts give exact sums, whatever their order.
    """
    n_a, n_b = shape
    keys = row_labels[m.A.row] * n_b + col_labels[m.A.col]
    return np.bincount(keys, m.A.count, n_a * n_b).reshape(n_a, n_b)


def assign_word_clusters(m: TermDocMatrix, doc_labels, k: int) -> np.ndarray:
    """W_m: each word joins the cluster maximizing its in-cluster mass.

    Takes and returns cluster labels; a tie goes to the lowest cluster.
    """
    w, _ = m.shape
    return np.argmax(label_mass(m, np.arange(w), doc_labels, (w, k)), axis=1)


def assign_doc_clusters(m: TermDocMatrix, word_labels, k: int) -> np.ndarray:
    """D_m: dual of assign_word_clusters, over matrix rows."""
    _, d = m.shape
    return np.argmax(label_mass(m, word_labels, np.arange(d), (k, d)), axis=0)


def cocluster(m: TermDocMatrix, k: int, seed: int, refine_passes: int = 1) -> CoClustering:
    """Full co-clustering: normalize, embed, k-means, duality refinement."""
    if refine_passes < 1:
        raise SemindexError(f"refine_passes must be >= 1, got {refine_passes}")
    w, d = m.shape
    if k == 1:
        return CoClustering(1, np.zeros(w, int), np.zeros(d, int))
    An = normalize_matrix(m)
    Z = spectral_embed(An, m.row_degrees, m.col_degrees, k)
    # k-means document groups left empty are dropped; the rest keep their order
    groups, doc_labels = np.unique(kmeans_partition(Z, k, seed)[w:], return_inverse=True)
    for _ in range(refine_passes):
        word_labels = assign_word_clusters(m, doc_labels, len(groups))
        doc_labels = assign_doc_clusters(m, word_labels, len(groups))
    dropped = tuple(np.setdiff1d(np.arange(k), groups).tolist())
    return CoClustering(len(groups), word_labels, doc_labels, dropped)


def write_cluster_report(cc: CoClustering, m: TermDocMatrix, path) -> None:
    report = {
        "k": cc.k,
        "clusters": [
            {
                "id": i + 1,
                "words": sorted(compress(m.terms, (cc.word_labels == i).tolist())),
                "docs": sorted(compress(m.docs, (cc.doc_labels == i).tolist())),
            }
            for i in range(cc.k)
        ],
        "dropped_groups": list(cc.dropped_groups),
    }
    if cc.k == 2:
        sides = np.bincount(np.concatenate((cc.word_labels, cc.doc_labels)), minlength=2).tolist()
        if all(sides):
            mass = label_mass(m, cc.word_labels, cc.doc_labels, (2, 2))
            cut = float(mass[0, 1] + mass[1, 0])
            report["ratio_cut_2way"] = cut / sides[0] + cut / sides[1]
    write_text(path, json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True) + "\n")
