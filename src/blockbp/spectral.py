"""Spectral initialization: regularized embedding plus k-means seeding.

Plain normalized Laplacians degrade on sparse graphs, so the adjacency is
normalized by (degree + tau)^{-1/2} on both sides with tau the mean degree.
The leading eigenvectors come from orthogonal iteration with sparse
matrix-vector products, which has one stopping rule: the subspace residual
falls below EIG_TOL, or EIG_MAX_ITERS iterations pass.  A subspace that
stops above EIG_TOL is not used, and the labels are drawn at random.
Otherwise the row-normalized embedding is clustered by k-means with
k-means++ seeding, best of KMEANS_RESTARTS restarts.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from .model import hard_moments, m_step

EIG_TOL = 1e-3  # max-abs subspace residual at which the iteration stops
EIG_MAX_ITERS = 1000
KMEANS_RESTARTS = 8
KMEANS_ITERS = 100


def _normalized_adjacency(graph, tau):
    n = graph.n
    rows = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
    cols = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]])
    vals = np.ones(rows.shape[0])
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    a.sum_duplicates()
    a.data = np.minimum(a.data, 1.0)  # a self-loop stacks twice onto one cell
    deg = np.asarray(a.sum(axis=1)).ravel()
    scale = 1.0 / np.sqrt(deg + tau)
    d = sp.diags(scale)
    return d @ a @ d


def orthogonal_iteration(op, n, k, rng):
    """Leading invariant subspace of a symmetric operator by QR iteration.

    Iterates on (op + I)/2 so the dominant eigenvalues are the largest
    algebraic ones of op, until the rotation-invariant subspace residual
    max|op q - q (q^T op q)| falls below EIG_TOL or EIG_MAX_ITERS iterations
    pass.  Returns (q, residual): orthonormal columns and the residual of
    that q.  The benchmark traces this function by its name.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    for _ in range(EIG_MAX_ITERS):
        q, _ = np.linalg.qr(0.5 * (op @ q + q))
        opq = op @ q
        residual = float(np.max(np.abs(opq - q @ (q.T @ opq))))
        if residual < EIG_TOL:
            break
    return q, residual


def _kmeans_pp_centers(x, k, rng):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = x[int(rng.integers(n))]
            continue
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def kmeans(x, k, rng):
    """k-means with k-means++ seeding; best restart by within-cluster cost.

    Ties in assignment break toward the lowest-index centroid; empty clusters
    are allowed and simply keep their stale centroid.
    """
    n = x.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.int64), 0.0
    best_labels, best_cost = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp_centers(x, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for it in range(KMEANS_ITERS):
            d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = np.argmin(d2, axis=1)
            if it > 0 and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                member = labels == c
                if member.any():
                    centers[c] = x[member].mean(axis=0)
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        cost = float(d2[np.arange(n), labels].sum())
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_labels = labels.copy()
    return best_labels, best_cost


def spectral_init(graph, k, seed):
    """Spectral hard assignment and the matching closed-form parameters.

    Returns (labels, params) where params come from the M-step on the hard
    assignment's sufficient statistics.  Labels are drawn at random when
    the graph has no edges, or (with a warning) when the eigen-iteration
    stops above EIG_TOL.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    n = graph.n
    labels = None
    if k == 1:
        labels = np.zeros(n, dtype=np.int64)
    elif graph.m:
        op = _normalized_adjacency(graph, float(graph.degree_sum()) / n)
        q, residual = orthogonal_iteration(op, n, min(k, n), rng)
        if residual < EIG_TOL:
            if q.shape[1] < k:
                q = np.pad(q, ((0, 0), (0, k - q.shape[1])))
            embedding = q / np.clip(np.linalg.norm(q, axis=1, keepdims=True), 1e-12, None)
            labels, _ = kmeans(embedding, k, rng)
        else:
            warnings.warn("spectral eigen-iteration did not converge; random init")
    if labels is None:
        labels = rng.integers(0, k, size=n)
    params, _ = m_step(hard_moments(graph, labels, k))
    return labels, params
