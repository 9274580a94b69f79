"""Spectral initialization: regularized embedding plus k-means seeding.

Plain normalized Laplacians degrade on sparse graphs, so the adjacency is
normalized by (degree + tau)^{-1/2} on both sides with tau the mean degree,
which keeps its spectrum inside (-1, 1).  The leading eigenvectors come from
Chebyshev-filtered subspace iteration (Zhou & Saad, SIAM J. Matrix Anal.
Appl. 2007): each step applies a degree-CHEB_DEGREE Chebyshev polynomial in
the operator that damps [-1, theta_min], the span below the block's lowest
Ritz value, then one QR and one Rayleigh-Ritz step.  It has one stopping
rule: the largest column 2-norm of the Ritz residual op q - q diag(theta)
falls below EIG_TOL (the columns have unit norm, so the rule does not
depend on n), or EIG_MAX_ITERS filtered steps pass.  Either way, k-means
clusters the last step's Ritz vectors whose Ritz value clears the bulk edge
of the operator, the semicircle edge 2 sigma with sigma^2 = tr(op^2) / n the
mean squared eigenvalue.  For D_tau^{-1/2} A D_tau^{-1/2} at constant degree
c that edge is 2 sqrt(c) / (c + tau), which is 1/sqrt(tau) at c = tau.  Over
the actual degrees it reads about 4% lower: 0.38-0.40 on planted four-block
graphs at n = 400, against the smallest planted Ritz value seen there, 0.403,
and the top of the bulk, near 0.37.  The columns below the edge are noise to
k-means (Krzakala et al., PNAS 2013; Le, Levina & Vershynin, 2017), but the
Perron column (the largest Ritz value) is always kept.  So a structureless
graph gives a one-column embedding, and every fit starts with one occupied
cluster (nodes off the giant component may start in a few more).  The
row-normalized embedding goes to one k-means run from one k-means++
seeding, which is O(log k)-competitive in expectation on its own (Arthur &
Vassilvitskii, SODA 2007); a Lloyd step is one GEMM for the distances
||c||^2 - 2 x c^T and one bincount per column for the centroid sums.  Only
the labels are returned: the fit builds its start beliefs and parameters
from them.

The operator and its bulk edge depend on the graph alone, so they are
built once per Graph (`Graph.derived`) and shared by the fits of a K
sweep.  The eigen-iteration and k-means run afresh for every call: a
subspace shared across k would make one k's start depend on which k's
ran before it on the same graph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

EIG_TOL = 1e-2  # largest column 2-norm of the Ritz residual at which the iteration stops
CHEB_DEGREE = 8  # sparse products per filtered step
EIG_MAX_ITERS = 125  # filtered steps; 1 + 125 * 8 = 1001 sparse products at most
KMEANS_ITERS = 100


def _normalized_adjacency(graph, tau):
    n = graph.n
    rows = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
    cols = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]])
    vals = np.ones(rows.shape[0])
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()  # sums duplicates
    a.data = np.minimum(a.data, 1.0)  # a self-loop stacks twice onto one cell
    root = np.sqrt(np.asarray(a.sum(axis=1)).ravel() + tau)
    # an isolated node's row and column are empty, so its scale never enters
    # the product; with only self-loops tau is 0 and its root would be 0
    scale = np.divide(1.0, root, out=np.zeros(n), where=root > 0)
    d = sp.diags(scale)
    return d @ a @ d


def _chebyshev_filter(op, q, opq, lower):
    """p(op) q for the degree-CHEB_DEGREE Chebyshev polynomial of [-1, lower],
    scaled to 1 at the spectrum's top end 1 (scaled three-term recurrence);
    opq = op @ q is the first term's product.  Requires lower > -1."""
    half = 0.5 * (lower + 1.0)  # half-width and centre of the damped interval
    centre = 0.5 * (lower - 1.0)
    sigma = sigma1 = half / (1.0 - centre)
    prev, y = q, (opq - centre * q) * (sigma1 / half)
    for _ in range(CHEB_DEGREE - 1):
        sigma_next = 1.0 / (2.0 / sigma1 - sigma)
        prev, y = y, (op @ y - centre * y) * (2.0 * sigma_next / half) - (sigma * sigma_next) * prev
        sigma = sigma_next
    return y


def orthogonal_iteration(op, n, k, rng):
    """Leading invariant subspace of a symmetric operator with spectrum in [-1, 1].

    Chebyshev-filtered subspace iteration: from a random orthonormal block,
    each step filters the block with a degree-CHEB_DEGREE Chebyshev
    polynomial in op that damps [-1, theta_min] (theta_min the lowest Ritz
    value of the block), orthonormalizes it by QR and rotates it to Ritz
    vectors by a k x k eigh.  Stops when the largest column 2-norm of
    op q - q diag(theta) falls below EIG_TOL, after EIG_MAX_ITERS filtered
    steps, or when theta_min reaches -1 and no interval is left to damp.
    Returns (q, residual, theta): orthonormal Ritz vectors, the residual of
    that q and its Ritz values in ascending order.  The benchmark traces this
    function by its name and reads the residual at index 1.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    for step in range(EIG_MAX_ITERS + 1):
        if step:
            q, _ = np.linalg.qr(_chebyshev_filter(op, q, opq, theta[0]))
        opq = op @ q
        theta, v = np.linalg.eigh(q.T @ opq)
        q, opq = q @ v, opq @ v
        residual = float(np.linalg.norm(opq - q * theta, axis=0).max())
        if residual < EIG_TOL or theta[0] <= -1.0:
            break
    return q, residual, theta


def _bulk_edge(op):
    """Top of the bulk of a symmetric sparse operator's spectrum: 2 sigma,
    sigma^2 = tr(op^2) / n = ||op||_F^2 / n the mean squared eigenvalue."""
    return 2.0 * np.sqrt(op.multiply(op).sum() / op.shape[0])


def _operator(graph):
    """(op, bulk edge) of a graph: the regularized adjacency at tau the mean
    degree and the top of its bulk.  Read-only and the same for every k, so
    `spectral_init` takes it from `graph.derived(_operator)`."""
    op = _normalized_adjacency(graph, float(graph.degree_sum()) / graph.n)
    for a in (op.data, op.indices, op.indptr):
        a.setflags(write=False)
    return op, _bulk_edge(op)


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
        # the draw of rng.choice(n, p=d2 / total), without its validation
        cdf = np.cumsum(d2 / total)
        cdf /= cdf[-1]
        centers[c] = x[int(cdf.searchsorted(rng.random(), side="right"))]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def kmeans(x, k, rng):
    """One Lloyd run from one k-means++ seeding: (labels, within-cluster cost).

    Distances drop the row constant ||x||^2, which cannot move the argmin.
    Ties in assignment break toward the lowest-index centroid; empty clusters
    are allowed and simply keep their stale centroid.
    """
    centers = _kmeans_pp_centers(x, k, rng)
    labels = np.zeros(x.shape[0], dtype=np.int64)
    for it in range(KMEANS_ITERS):
        d2 = (centers**2).sum(axis=1) - 2.0 * (x @ centers.T)
        new_labels = np.argmin(d2, axis=1)
        if it > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)[:, None]
        sums = np.stack([np.bincount(labels, col, minlength=k) for col in x.T], axis=1)
        np.divide(sums, counts, out=centers, where=counts > 0)
    return labels, float(((x - centers[labels]) ** 2).sum(axis=1).sum())


def spectral_init(graph, k, seed):
    """Spectral hard assignment: an (n,) array of labels in [0, k).

    k-means clusters the rows of the Perron Ritz vector and of those above
    the bulk edge (see the module docstring), whether the eigen-iteration
    stopped below EIG_TOL or at its step cap.  With k == 1 or a graph
    without edges every node gets label 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = graph.n
    if k == 1 or not graph.m:
        return np.zeros(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    op, bulk_edge = graph.derived(_operator)
    q, _, theta = orthogonal_iteration(op, n, min(k, n), rng)
    keep = theta > bulk_edge
    keep[-1] = True  # the Perron column, which a perfect matching leaves under the edge
    q = q[:, keep]
    embedding = q / np.clip(np.linalg.norm(q, axis=1, keepdims=True), 1e-12, None)
    labels, _ = kmeans(embedding, k, rng)
    return labels
