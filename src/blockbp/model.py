"""Block-model parameterizations, sufficient statistics, likelihoods, M-step.

Two parameterizations are carried side by side: mean-space (cluster
proportions gamma, affinity matrix pi) and natural-space (eta, theta) linked
by softmax/logit maps.  All likelihood accounting runs over the unordered
pair universe {(i, j) : i <= j} with masked pairs excluded from both edge and
non-edge contributions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

EPS_P = 1e-12  # probability clamp used inside logarithms

NEG_INF = float("-inf")


class EmptyClusterError(ValueError):
    """A computation required every indexed cluster to be occupied."""

    def __init__(self, cluster):
        self.cluster = cluster
        super().__init__(f"cluster {cluster} is empty")


@dataclass
class Params:
    """Mean-space parameters: simplex gamma (K,) and symmetric pi (K, K)."""

    gamma: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.pi = np.asarray(self.pi, dtype=np.float64)

    @property
    def k(self):
        return self.gamma.shape[0]

    def validate(self):
        if np.any(self.gamma < 0) or abs(self.gamma.sum() - 1.0) > 1e-12:
            raise ValueError("gamma must be a simplex (sum 1 within 1e-12)")
        if self.pi.shape != (self.k, self.k):
            raise ValueError("pi must be K x K")
        if np.max(np.abs(self.pi - self.pi.T), initial=0.0) > 1e-12:
            raise ValueError("pi must be symmetric within 1e-12")
        if np.any(self.pi < 0) or np.any(self.pi > 1):
            raise ValueError("pi entries must lie in [0, 1]")


@dataclass
class NaturalParams:
    """Natural parameters: eta (K-1,) anchored at component K, theta (K, K)."""

    eta: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)

    @property
    def k(self):
        return self.theta.shape[0]


@dataclass
class Moments:
    """Expected sufficient statistics of an assignment distribution.

    zbar is E[mean one-hot label] (a simplex); zzbar is the edge-weighted
    bicluster statistic: off-diagonal entry (k, l) holds e_kl / n^2 and the
    diagonal holds 2 * e_kk / n^2, where e counts training edges per
    bicluster.  masked_mass stores the held-out pairs' share of the pair
    universe in the same convention, for M-step denominator adjustment.
    """

    zbar: np.ndarray
    zzbar: np.ndarray
    n: int
    masked_mass: np.ndarray | None = None

    def __post_init__(self):
        self.zbar = np.asarray(self.zbar, dtype=np.float64)
        self.zzbar = np.asarray(self.zzbar, dtype=np.float64)
        if self.masked_mass is not None:
            self.masked_mass = np.asarray(self.masked_mass, dtype=np.float64)

    @property
    def k(self):
        return self.zbar.shape[0]


@dataclass
class HessianBlocks:
    """Diagonal blocks of the natural-parameter log-likelihood Hessian.

    f_theta holds the K*(K+1)/2 affinity entries ordered by (k, l), k <= l,
    row-major; f_eta is the (K-1) x (K-1) proportion block.
    """

    f_theta: np.ndarray
    f_eta: np.ndarray
    index: list = field(default_factory=list)

    def entry(self, k, l):
        k, l = min(k, l), max(k, l)
        return self.f_theta[self.index.index((k, l))]


def triangular_index(k_total):
    """(k, l) pairs with k <= l in row-major order."""
    return [(k, l) for k in range(k_total) for l in range(k, k_total)]


def clamped(params):
    """Affinities inside [EPS_P, 1 - EPS_P], so a hard 0 or 1 cannot make a log -inf."""
    return Params(params.gamma, np.clip(params.pi, EPS_P, 1.0 - EPS_P))


# -- counting ----------------------------------------------------------------


def label_counts(labels, k):
    labels = np.asarray(labels, dtype=np.int64)
    return np.bincount(labels, minlength=k).astype(np.float64)


def pair_mass(pairs, beliefs, n):
    """Belief mass of unordered node pairs in the zzbar convention.

    Pair (i, j) with i != j adds b_i b_j^T + b_j b_i^T and a self-pair (i, i)
    adds 2 diag(b_i); the (K, K) total is divided by n^2.  `pairs` is a
    (P, 2) int array.  With one-hot beliefs and n = 1 the result counts
    pairs per bicluster: off-diagonal entries once, diagonal entries twice.
    """
    b = np.asarray(beliefs, dtype=np.float64)
    self_pair = pairs[:, 0] == pairs[:, 1]
    off = pairs[~self_pair]
    u = b[off[:, 0]].T @ b[off[:, 1]]
    mass = u + u.T
    mass[np.diag_indices_from(mass)] += 2.0 * b[pairs[self_pair, 0]].sum(axis=0)
    return mass / n**2


def bicluster_counts(graph, labels, k):
    """Edge counts and mask-adjusted pair counts per unordered bicluster.

    Returns symmetric (K, K) matrices (e, c): e[k, l] counts training edges
    with label set {k, l} once; c[k, l] counts available pairs (the full
    universe minus masked pairs).  Self-pairs belong to the diagonal.
    """
    onehot = np.eye(k)[np.asarray(labels, dtype=np.int64)]
    counts = onehot.sum(axis=0)
    # pair_mass counts pairs within one cluster twice, on the diagonal
    half_diag = np.ones((k, k)) - 0.5 * np.eye(k)
    e = half_diag * pair_mass(graph.edges, onehot, 1)
    c = np.outer(counts, counts)
    np.fill_diagonal(c, counts * (counts + 1) / 2.0)
    c -= half_diag * pair_mass(graph.masked_index, onehot, 1)
    return e, c


def hard_moments(graph, labels, k):
    """Sufficient statistics of a hard assignment on the training graph."""
    n = graph.n
    onehot = np.eye(k)[np.asarray(labels, dtype=np.int64)]
    return Moments(
        onehot.sum(axis=0) / n,
        pair_mass(graph.edges, onehot, n),
        n,
        masked_mass=pair_mass(graph.masked_index, onehot, n),
    )


# -- likelihoods -------------------------------------------------------------


def _safe_log_terms(weights, probs):
    """Sum w * log(p) treating w == 0 as contributing nothing.

    Returns -inf when a strictly positive weight meets an exactly-zero
    probability (a hard model conflict), rather than raising.
    """
    weights = np.asarray(weights, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    active = weights > 0
    if np.any(active & (probs <= 0.0)):
        return NEG_INF
    logs = np.zeros_like(probs)
    np.log(probs, out=logs, where=active & (probs > 0))
    return float(np.sum(weights * logs, where=active, initial=0.0))


def joint_log_likelihood(graph, labels, params):
    """Joint log-likelihood of a hard assignment under mean-space params.

    Sums Bernoulli terms over unmasked pairs (i <= j) plus multinomial
    proportion terms; returns -inf instead of raising when a zero-probability
    configuration is observed.
    """
    k = params.k
    e, c = bicluster_counts(graph, labels, k)
    counts = label_counts(labels, k)
    iu = np.triu_indices(k)
    edge_part = _safe_log_terms(e[iu], params.pi[iu])
    non_part = _safe_log_terms((c - e)[iu], 1.0 - params.pi[iu])
    prop_part = _safe_log_terms(counts, params.gamma)
    return edge_part + non_part + prop_part


def pairwise_weight_matrices(graph, node_beliefs, edge_belief_sum=None):
    """Aggregate belief weights multiplying log(pi) and log(1 - pi).

    Edge pairs take `edge_belief_sum`, the (K, K) sum of the pairwise
    beliefs over the rows of graph.edges (a self-loop row holds diag of its
    node belief), or, when it is None, products of node beliefs.  Non-edge
    pairs use products of node beliefs, evaluated in closed form over the
    whole pair universe and corrected for edges and masked pairs.  Returns
    (w_edge, w_non), both (K, K) with symmetric bicluster conventions
    matching `bicluster_counts`.
    """
    b = np.asarray(node_beliefs, dtype=np.float64)
    s = b.sum(axis=0)
    # all unordered pairs: off-diagonal node pairs i < j plus self-pairs
    w_all = 0.5 * (np.outer(s, s) - b.T @ b)
    w_all += np.diag(s)
    # product-form weight of the edge pairs, which leave the non-edge total
    edge_mass = 0.5 * pair_mass(graph.edges, b, 1)
    if edge_belief_sum is None:
        w_edge = edge_mass
    else:
        pb = np.asarray(edge_belief_sum, dtype=np.float64)
        w_edge = 0.5 * (pb + pb.T)
    w_non = w_all - edge_mass - 0.5 * pair_mass(graph.masked_index, b, 1)
    return w_edge, w_non


def expected_joint_log_likelihood(graph, node_beliefs, params, edge_belief_sum=None):
    """Expectation of the joint log-likelihood under a belief factorization.

    Connected pairs take pairwise edge beliefs, passed as their (K, K) sum
    over the rows of graph.edges (see `pairwise_weight_matrices`);
    unconnected pairs take the product of node beliefs (the same
    factorization the sparse external-field message approximation assumes);
    proportions take node beliefs.
    """
    w_edge, w_non = pairwise_weight_matrices(graph, node_beliefs, edge_belief_sum)
    b = np.asarray(node_beliefs, dtype=np.float64)
    tol = 1e-14
    edge_part = _safe_log_terms(np.where(w_edge > tol, w_edge, 0.0), params.pi)
    non_part = _safe_log_terms(np.where(w_non > tol, w_non, 0.0), 1.0 - params.pi)
    prop_part = _safe_log_terms(np.where(b.sum(axis=0) > tol, b.sum(axis=0), 0.0), params.gamma)
    return edge_part + non_part + prop_part


def expected_ll_from_moments(moments, params):
    """Moment-closure expected joint log-likelihood (the M-step objective).

    Uses the ordered-bicluster form (n^2/2) * sum_kl [zz * log(pi) +
    (D - zz) * log(1 - pi)] + n * sum_k zbar * log(gamma) with
    D = zbar zbar^T + diag(zbar)/n - masked_mass; exact on hard statistics.
    """
    n = moments.n
    d = np.outer(moments.zbar, moments.zbar) + np.diag(moments.zbar) / n
    if moments.masked_mass is not None:
        d = d - moments.masked_mass
    scale = n * n / 2.0
    edge_part = _safe_log_terms(scale * moments.zzbar, params.pi)
    non = scale * np.clip(d - moments.zzbar, 0.0, None)
    non_part = _safe_log_terms(non, 1.0 - params.pi)
    prop_part = _safe_log_terms(n * moments.zbar, params.gamma)
    return edge_part + non_part + prop_part


# -- M-step ------------------------------------------------------------------


def m_step(moments):
    """Closed-form maximizer of the expected joint log-likelihood.

    Returns (params, empty_mask).  Entries whose denominator vanishes (an
    empty cluster) are filled with the neutral value EPS_P and flagged so the
    caller can prune; a transiently empty cluster must not abort a fit.
    """
    n = moments.n
    zbar = np.clip(moments.zbar, 0.0, None)
    total = zbar.sum()
    gamma = zbar / total if total > 0 else np.full_like(zbar, 1.0 / zbar.shape[0])
    d = np.outer(zbar, zbar) + np.diag(zbar) / n
    if moments.masked_mass is not None:
        d = d - moments.masked_mass
    empty = zbar <= 0.0
    defined = (np.outer(zbar, zbar) > 0) & (d > 0)
    pi = np.full_like(d, EPS_P)
    np.divide(moments.zzbar, d, out=pi, where=defined)
    pi = np.clip(pi, 0.0, 1.0)
    pi = 0.5 * (pi + pi.T)
    return Params(gamma, pi), empty


# -- parameterization maps -----------------------------------------------------


def natural_from_mean(params):
    """Map mean-space params to natural space; flags boundary clamping.

    theta = logit(pi); eta_k = log(gamma_k / gamma_K) with the K-th component
    anchored at zero.  Boundary values are clamped into [EPS_P, 1 - EPS_P]
    first and reported via the returned flag.
    """
    pi = params.pi
    gamma = params.gamma
    clamped = bool(np.any(pi < EPS_P) or np.any(pi > 1 - EPS_P) or np.any(gamma < EPS_P))
    pi = np.clip(pi, EPS_P, 1 - EPS_P)
    gamma = np.clip(gamma, EPS_P, None)
    gamma = gamma / gamma.sum()
    theta = np.log(pi) - np.log1p(-pi)
    eta = np.log(gamma[:-1]) - np.log(gamma[-1])
    return NaturalParams(eta, theta), clamped


def mean_from_natural(nat):
    """Inverse map: pi = sigmoid(theta), gamma = softmax([eta, 0])."""
    pi = expit(nat.theta)
    logits = np.concatenate([nat.eta, [0.0]])
    logits = logits - logits.max()
    expl = np.exp(logits)
    gamma = expl / expl.sum()
    return Params(gamma, 0.5 * (pi + pi.T))


# -- Hessian blocks ------------------------------------------------------------


def hessian_blocks(labels, params, n):
    """Analytic diagonal blocks of the negative log-likelihood Hessian.

    Affinity entries: mbar_kl * pi_kl * (1 - pi_kl) with
    mbar_kl = (n^2/2) * zbar_k * (zbar_l + [k = l]/n); proportion block:
    n * (diag(gamma_<K) - gamma_<K gamma_<K^T).  Requires every cluster
    indexed by the params to be occupied.
    """
    k = params.k
    counts = label_counts(labels, k)
    for c in range(k):
        if counts[c] == 0:
            raise EmptyClusterError(c)
    zbar = counts / n
    idx = triangular_index(k)
    f_theta = np.empty(len(idx))
    for pos, (a, b) in enumerate(idx):
        mbar = (n * n / 2.0) * zbar[a] * (zbar[b] + (1.0 / n if a == b else 0.0))
        f_theta[pos] = mbar * params.pi[a, b] * (1.0 - params.pi[a, b])
    g = params.gamma[:-1]
    f_eta = n * (np.diag(g) - np.outer(g, g))
    return HessianBlocks(f_theta, f_eta, index=idx)


# -- serialization -------------------------------------------------------------


def params_to_json(params):
    return json.dumps(
        {
            "k": params.k,
            "gamma": params.gamma.tolist(),
            "pi": params.pi.reshape(-1).tolist(),
        },
        indent=None,
    )


def params_from_json(text):
    obj = json.loads(text)
    k = int(obj["k"])
    gamma = np.array(obj["gamma"], dtype=np.float64)
    pi = np.array(obj["pi"], dtype=np.float64).reshape(k, k)
    return Params(gamma, pi)
