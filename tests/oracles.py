"""Independent oracles for the test suite.

Everything here recomputes quantities by brute force (full enumeration,
term-by-term sums, arbitrary-precision arithmetic) without reusing the
library's optimized paths, so tests compare two genuinely different routes
to the same value.
"""

import itertools
import math
from decimal import Decimal, getcontext

import numpy as np

getcontext().prec = 50


def dec_log(x):
    return Decimal(x).ln()


def all_pairs(n):
    """Unordered pair universe including self-pairs."""
    for i in range(n):
        for j in range(i, n):
            yield i, j


def masked_selfloop_graph():
    """n=7 graph with self-loops whose mask holds a self-pair that was a
    self-loop, a self-pair that was not, a former edge and two non-edges."""
    from blockbp import Graph

    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (1, 5), (2, 2), (4, 4)]
    masked = {(5, 5): 1, (3, 3): 0, (0, 3): 1, (1, 4): 0, (2, 6): 0}
    return Graph(7, edges, masked=masked)


def bicluster_counts_bruteforce(graph, labels, k):
    """Training-edge, available-pair and masked-pair counts per bicluster,
    walking every unordered pair; symmetric (K, K) arrays."""
    e, c, held = np.zeros((k, k)), np.zeros((k, k)), np.zeros((k, k))
    edge_set = graph.edge_set
    for i, j in all_pairs(graph.n):
        a, b = sorted((labels[i], labels[j]))
        if (i, j) in graph.masked:
            held[a, b] += 1
            continue
        c[a, b] += 1
        if (i, j) in edge_set:
            e[a, b] += 1
    return tuple(x + np.triu(x, 1).T for x in (e, c, held))


def joint_ll_bruteforce(graph, labels, params):
    """Pair-by-pair evaluation of the hard-assignment log-likelihood."""
    total = 0.0
    edge_set = graph.edge_set
    for i, j in all_pairs(graph.n):
        if (i, j) in graph.masked:
            continue
        p = params.pi[labels[i], labels[j]]
        if (i, j) in edge_set:
            if p <= 0:
                return float("-inf")
            total += np.log(p)
        else:
            if p >= 1:
                return float("-inf")
            total += np.log1p(-p)
    for i in range(graph.n):
        g = params.gamma[labels[i]]
        if g <= 0:
            return float("-inf")
        total += np.log(g)
    return total


def expected_ll_bruteforce(graph, node_beliefs, params, edge_beliefs=None):
    """Term-by-term expected log-likelihood under the belief factorization.

    Edge pairs use the supplied pairwise beliefs (indexed by edge row);
    every other unmasked pair uses the product of node beliefs; self-pairs
    use the diagonal belief.
    """
    b = np.asarray(node_beliefs)
    k = b.shape[1]
    edge_rows = {}
    for row, (i, j) in enumerate(graph.edges):
        edge_rows[(int(i), int(j))] = row
    log_pi = np.log(params.pi)
    log_1mpi = np.log1p(-params.pi)
    total = 0.0
    for i, j in all_pairs(graph.n):
        if (i, j) in graph.masked:
            continue
        if (i, j) in edge_rows:
            if i == j:
                pb = np.diag(b[i])
            elif edge_beliefs is not None:
                pb = edge_beliefs[edge_rows[(i, j)]]
            else:
                pb = np.outer(b[i], b[j])
            total += float(np.sum(pb * log_pi))
        else:
            if i == j:
                total += float(np.sum(b[i] * np.diag(log_1mpi)))
            else:
                total += float(np.outer(b[i], b[j]).ravel() @ log_1mpi.ravel())
    total += float(np.sum(b @ np.log(params.gamma)))
    return total


class Enumeration:
    """Exact quantities of a small model by summing over all K^n assignments.

    include_nonedges selects between the full pairwise model (factors on
    every unmasked pair) and the edges-only model used for tree-exactness
    checks; `field` optionally adds a shared per-node log-potential.
    """

    def __init__(self, graph, params, include_nonedges=True, field=None):
        self.graph = graph
        self.params = params
        n, k = graph.n, params.k
        edge_set = graph.edge_set
        log_gamma = np.log(params.gamma)
        if field is not None:
            log_gamma = log_gamma + np.asarray(field)
        log_pi = np.log(params.pi)
        log_1mpi = np.log1p(-params.pi)

        self.assignments = list(itertools.product(range(k), repeat=n))
        logw = np.empty(len(self.assignments))
        for idx, z in enumerate(self.assignments):
            w = sum(log_gamma[c] for c in z)
            for i, j in all_pairs(n):
                if (i, j) in graph.masked:
                    continue
                if (i, j) in edge_set:
                    w += log_pi[z[i], z[j]]
                elif include_nonedges:
                    w += log_1mpi[z[i], z[j]]
            logw[idx] = w
        top = logw.max()
        w = np.exp(logw - top)
        self.log_z = float(top + np.log(w.sum()))
        self.probs = w / w.sum()
        self.logw = logw

        self.node_marginals = np.zeros((n, k))
        for idx, z in enumerate(self.assignments):
            for i, c in enumerate(z):
                self.node_marginals[i, c] += self.probs[idx]

    def pair_marginal(self, i, j):
        k = self.params.k
        out = np.zeros((k, k))
        for idx, z in enumerate(self.assignments):
            out[z[i], z[j]] += self.probs[idx]
        return out

    def entropy(self):
        p = self.probs[self.probs > 0]
        return float(-(p * np.log(p)).sum())

    def expectation(self, fn):
        """E[fn(z)] over the posterior; fn maps a label tuple to a float."""
        return float(sum(p * fn(z) for p, z in zip(self.probs, self.assignments)))


def dec_r1_tilde(zbar, n):
    n = Decimal(n)
    total = Decimal(0)
    for z in zbar:
        total += (Decimal(float(z)) + 1 / n).ln()
    return total / 2


def dec_r2_tilde(zzbar, n):
    n2 = Decimal(n) ** 2
    total = Decimal(0)
    k = len(zzbar)
    for a in range(k):
        for b in range(a, k):
            total += (Decimal(float(zzbar[a][b])) + 1 / n2).ln()
    return total / 2


def dec_ell_tilde(n, k):
    n_d, k_d = Decimal(n), Decimal(k)
    return (k_d - 1) / 2 * Decimal(n).ln() + k_d * (k_d + 1) / 4 * (n_d * (n_d + 1) / 2).ln()


def per_node_sweep(state, params, order, damping, include_field=False, live_prior=False):
    """One penalty-free BP sweep, node by node, over state's colour classes in `order`.

    Each node's messages are looked up by (sender, receiver) pair and its
    neighbours walked one at a time.  The field -pi @ h and, with
    `live_prior`, the prior log(h / n) in place of log gamma read h as the
    summed beliefs at the start of the node's class.  Returns the new
    (messages, node beliefs); `state` is unchanged.
    """
    msgs = state.messages.copy()
    beliefs = state.node_belief.copy()
    lookup = {(int(i), int(j)): e for e, (i, j) in enumerate(zip(state.src, state.dst))}
    neighbours = {v: [] for v in range(state.n)}
    for i, j in lookup:
        neighbours[i].append(j)

    def softmax(x):
        w = np.exp(x - x.max())
        return w / w.sum()

    for c in order:
        h = beliefs.sum(axis=0)
        base = np.log(h / state.n) if live_prior else np.log(params.gamma)
        if include_field:
            base = base - params.pi @ h
        for i in state.classes[c].nodes.tolist():
            log_in = {j: np.log(msgs[lookup[(j, i)]] @ params.pi) for j in neighbours[i]}
            total = base.copy()
            for value in log_in.values():
                total = total + value
            beliefs[i] = softmax(total)
            for j in neighbours[i]:
                e = lookup[(i, j)]
                msgs[e] = (1.0 - damping) * softmax(total - log_in[j]) + damping * msgs[e]
    return msgs, beliefs


def dense_top_subspace(op, k):
    """The top-k eigenvectors of a symmetric operator and its (k+1)-th
    largest eigenvalue, from a dense `np.linalg.eigh` of the whole matrix."""
    dense = op.toarray() if hasattr(op, "toarray") else np.asarray(op)
    w, v = np.linalg.eigh(dense)
    return v[:, -k:], w[-k - 1]


def kmeans_reference(x, k, rng):
    """`spectral.kmeans` with an (n, k, d) distance array per Lloyd step and
    one centroid mean per cluster; same seeding, restarts and stop rule."""
    from blockbp.spectral import KMEANS_ITERS, KMEANS_RESTARTS, _kmeans_pp_centers

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


def pair_from_index_scalar(r, n):
    """Decode one flat index over {(i, j) : 0 <= i <= j < n}: a float root,
    then integer fix-ups one step at a time."""
    i = int((2 * n + 1 - math.sqrt((2 * n + 1) ** 2 - 8 * r)) // 2)
    while i * n - i * (i - 1) // 2 > r:
        i -= 1
    while (i + 1) * n - i * (i + 1) // 2 <= r:
        i += 1
    return i, i + (r - (i * n - i * (i - 1) // 2))


def mask_pairs_reference(graph, fraction, seed):
    """`graph.mask_pairs` pair by pair: decode each drawn index with the scalar
    decoder in sorted order and look it up in the edge set; a pair the graph
    already holds out keeps its recorded bit."""
    from blockbp import Graph
    from blockbp.graph import _sample_distinct_indices

    n = graph.n
    rng = np.random.default_rng(seed)
    idx = _sample_distinct_indices(rng, graph.num_pairs, math.ceil(fraction * graph.num_pairs))
    masked = dict(graph.masked)
    for r in sorted(idx.tolist()):
        i, j = pair_from_index_scalar(r, n)
        if (i, j) not in graph.masked:
            masked[(i, j)] = 1 if (i, j) in graph.edge_set else 0
    keep = [(i, j) for i, j in graph.edges if (int(i), int(j)) not in masked]
    return Graph(n, keep, masked=masked, node_ids=graph.node_ids)


def criterion_report_reference(graph, state, params):
    """`criteria.criterion_report` through the (m, K, K) pairwise beliefs of
    `state.edge_beliefs`: their sum weights the expected log-likelihood's
    edges and their row entropies give the Bethe edge entropy."""
    from blockbp.criteria import CriterionReport, ell_tilde, r1_tilde, r2_tilde
    from blockbp.model import (
        clamped,
        expected_joint_log_likelihood,
        hard_moments,
        joint_log_likelihood,
        m_step,
    )

    def row_entropies(p):
        t = np.clip(p, 1e-300, None)
        np.log(t, out=t)
        t *= p
        return -t.sum(axis=tuple(range(1, t.ndim)))

    clamped_params = clamped(params)
    eb = state.edge_beliefs(clamped_params)
    b = state.node_belief
    expected_ll = expected_joint_log_likelihood(graph, b, clamped_params, eb.sum(axis=0))
    nonself = graph.edges[:, 0] != graph.edges[:, 1]
    edge_part = float(row_entropies(eb)[nonself].sum()) if graph.m else 0.0
    entropy = edge_part + float(((1.0 - graph.degrees) * row_entropies(b)).sum())

    moments = state.moments()
    n, k = graph.n, state.k_active
    r1, r2, lt = r1_tilde(moments.zbar, n), r2_tilde(moments.zzbar, n), ell_tilde(n, k)
    ffic = expected_ll - r1 - r2 - lt + entropy
    fic = expected_ll - (k * (k + 1) / 2.0) * r1 - lt + entropy
    labels = state.map_assignment()
    ml_params, _ = m_step(hard_moments(graph, labels, k))
    icl = joint_log_likelihood(graph, labels, ml_params) - lt
    cicl = expected_ll + entropy - lt
    return CriterionReport(
        ffic_lb=float(ffic),
        fic=float(fic),
        icl=float(icl),
        cicl=float(cicl),
        entropy=float(entropy),
        r1_tilde=float(r1),
        r2_tilde=float(r2),
        ell_tilde=float(lt),
        entropy_negative=bool(entropy < 0),
        degenerate=not all(map(math.isfinite, (ffic, fic, icl, cicl))),
    )
