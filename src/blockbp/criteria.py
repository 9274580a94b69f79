"""Model-selection criteria and closed-form marginal-likelihood oracles.

The smoothed penalties r1/r2 and the dimension penalty ell_tilde assemble the
tractable lower bound of the fully marginalized log-likelihood; icl/cicl/fic
are the baseline criteria evaluated from the same belief state.  The
expected log-likelihood and the Bethe entropy read that state through one
(m, K) edge contraction (`BeliefState.edge_contraction`), so a criteria pass
holds O(mK) memory and no (m, K, K) pairwise beliefs.  For small
hard assignments, `exact_joint_marginal` integrates the parameters out in
closed form (conjugate Beta/Dirichlet integrals under flat natural-parameter
priors) and `joint_marginal_laplace` evaluates the matching asymptotic
expansion term by term, so the two can be compared on a growing-n grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, gammaln

from .model import (
    EPS_P,
    bicluster_counts,
    clamped,
    expected_joint_log_likelihood,
    hard_moments,
    joint_log_likelihood,
    label_counts,
    m_step,
)

LOG_HALF = math.log(0.5)
LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class CriterionReport:
    """Criterion values and penalty components for one fitted state."""

    ffic_lb: float
    fic: float
    icl: float
    cicl: float
    entropy: float
    r1_tilde: float
    r2_tilde: float
    ell_tilde: float
    entropy_negative: bool = False
    degenerate: bool = False


@dataclass
class ExactMarginal:
    """Closed-form log joint marginal of a hard assignment, or a divergence flag."""

    value: float
    divergent: bool = False
    reason: str = ""


@dataclass
class JointMarginalTerms:
    """Term-by-term asymptotic expansion of the log joint marginal."""

    max_ll: float
    r1: float
    r2: float
    ell_n: float
    c_const: float
    s_set: list
    m_star: float
    k_zbar: int
    k_zz: int
    m_bar: np.ndarray
    clamped: bool = False
    total: float = field(init=False)

    def __post_init__(self):
        self.total = self.max_ll - self.r1 - self.r2 - self.ell_n + self.c_const


# -- smoothed penalties --------------------------------------------------------


def r1_tilde(zbar, n):
    """Smoothed cluster-size penalty: 0.5 * sum_k log(zbar_k + 1/n)."""
    zbar = np.asarray(zbar, dtype=np.float64)
    return 0.5 * float(np.sum(np.log(zbar + 1.0 / n)))


def r2_tilde(zzbar, n):
    """Smoothed bicluster-size penalty: 0.5 * sum_{k<=l} log(zz_kl + 1/n^2)."""
    zzbar = np.asarray(zzbar, dtype=np.float64)
    iu = np.triu_indices(zzbar.shape[0])
    return 0.5 * float(np.sum(np.log(zzbar[iu] + 1.0 / n**2)))


def ell_tilde(n, k):
    """Dimension penalty: (K-1)/2 log n + K(K+1)/4 log(n(n+1)/2)."""
    return (k - 1) / 2.0 * math.log(n) + k * (k + 1) / 4.0 * math.log(n * (n + 1) / 2.0)


# -- entropy ---------------------------------------------------------------------


def _plogp(p):
    """p log p elementwise (0 log 0 = 0), in one temporary."""
    t = np.clip(p, 1e-300, None)
    np.log(t, out=t)
    t *= p
    return t


def _bethe_entropy(graph, state, pi, z):
    """Bethe entropy of `state` at clamped affinities pi, given its per-edge normalisers z.

    On an edge with messages f, r the pairwise belief b_kl = f_k pi_kl r_l / z
    has row sums f (pi r) / z and column sums r (pi^T f) / z, so
    sum b log b = [sum_k f_k (pi r)_k log f_k + sum_l r_l (pi^T f)_l log r_l
                   + f^T (pi * log pi) r] / z - log z,
    where every array is (m, K) or (K, K).  The last two terms nearly cancel
    on a confident edge, so they are combined per edge before the sum over
    edges: summed separately (as sum_kl s_kl log pi_kl - sum_e log z_e) they
    leave a rounding error near 1e-13 of the entropy of a fitted state.
    """
    node_part = float(((1.0 - graph.degrees) * -_plogp(state.node_belief).sum(axis=1)).sum())
    f = state.messages[state.forward]
    r = state.messages[state.reverse]
    per_edge = np.einsum("ek,ek->e", _plogp(f), r @ pi.T)
    per_edge += np.einsum("ek,ek->e", _plogp(r), f @ pi)
    per_edge += np.einsum("ek,ek->e", f @ (pi * np.log(pi)), r)
    per_edge /= z
    per_edge -= np.log(z)
    return -float(per_edge.sum()) + node_part


def bethe_entropy(graph, state, params):
    """Bethe entropy of the current beliefs.

    Pairwise-belief entropies over message-carrying edges plus
    (1 - degree) times each node-belief entropy.  The pairwise part comes
    from `BeliefState.edge_contraction` and the (m, K) messages, without
    the (m, K, K) beliefs, at the affinities clamped as in
    `criterion_report`, so no edge has a zero normaliser.  The Bethe form is
    not guaranteed nonnegative off trees; the value is reported as-is.
    """
    params = clamped(params)
    z, _ = state.edge_contraction(params)
    return _bethe_entropy(graph, state, params.pi, z)


# -- criterion values ---------------------------------------------------------------


def _components(graph, state, params):
    """Expected log-likelihood, moments and Bethe entropy at the clamped affinities.

    Reading pi inside [EPS_P, 1 - EPS_P] (as the sweep does) keeps a hard 0
    or 1 from the M-step from meeting soft belief weight as log(0).  Both
    the expected log-likelihood's edge weights and the entropy read one
    edge contraction.
    """
    params = clamped(params)
    z, s = state.edge_contraction(params)
    b = state.node_belief
    # self-loop rows hold the diagonal belief diag(b_i)
    edge_sum = s + np.diag(b[state.self_loops[:, 0]].sum(axis=0))
    expected_ll = expected_joint_log_likelihood(graph, b, params, edge_sum)
    moments = state.moments()
    entropy = _bethe_entropy(graph, state, params.pi, z)
    return expected_ll, moments, entropy


def ffic_lower_bound(graph, state, params):
    """Lower bound of the fully marginalized log-likelihood at these beliefs.

    The ffic_lb field of criterion_report, without the hard-assignment pass
    that icl needs; the fit driver records it once per outer iteration.
    """
    expected_ll, moments, entropy = _components(graph, state, params)
    k = state.k_active
    return (
        expected_ll
        - r1_tilde(moments.zbar, graph.n)
        - r2_tilde(moments.zzbar, graph.n)
        - ell_tilde(graph.n, k)
        + entropy
    )


def criterion_report(graph, state, params):
    """All criterion values from one shared pass over the beliefs.

    ffic_lb and fic take the smoothed penalties (fic scales r1 by K(K+1)/2
    and drops r2); icl is the hard MAP plug-in likelihood and cicl the
    entropy-corrected soft one, each minus the dimension penalty.
    """
    expected_ll, moments, entropy = _components(graph, state, params)
    n, k = graph.n, state.k_active
    r1 = r1_tilde(moments.zbar, n)
    r2 = r2_tilde(moments.zzbar, n)
    lt = ell_tilde(n, k)
    ffic = expected_ll - r1 - r2 - lt + entropy
    fic = expected_ll - (k * (k + 1) / 2.0) * r1 - lt + entropy
    labels = state.map_assignment()
    ml_params, _ = m_step(hard_moments(graph, labels, k))
    icl = joint_log_likelihood(graph, labels, ml_params) - lt
    cicl = expected_ll + entropy - lt
    degenerate = not all(map(math.isfinite, (ffic, fic, icl, cicl)))
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
        degenerate=degenerate,
    )


# -- exact and asymptotic joint marginals ----------------------------------------------


def exact_joint_marginal(graph, labels, k=None):
    """Closed-form log p(X, Z) under flat natural-parameter priors.

    Each occupied bicluster contributes log B(e, c - e); the proportions
    contribute log prod_k Gamma(n_k) / Gamma(n).  The flat priors diverge on
    empty clusters and on biclusters with all or no edges, so such
    configurations come back flagged instead of valued.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if k is None:
        k = int(labels.max()) + 1
    n = graph.n
    counts = label_counts(labels, k)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        return ExactMarginal(math.nan, True, f"empty cluster {missing}: prior integral diverges")
    e, c = bicluster_counts(graph, labels, k)
    value = 0.0
    for a in range(k):
        for b in range(a, k):
            if c[a, b] <= 0:
                return ExactMarginal(math.nan, True, f"bicluster ({a},{b}) has no pairs")
            if e[a, b] <= 0 or e[a, b] >= c[a, b]:
                return ExactMarginal(
                    math.nan,
                    True,
                    f"bicluster ({a},{b}) fully empty or fully connected: integral diverges",
                )
            value += float(betaln(e[a, b], c[a, b] - e[a, b]))
    value += float(np.sum(gammaln(counts)) - gammaln(n))
    return ExactMarginal(value, False, "")


def joint_marginal_laplace(graph, labels, params_hat=None, k=None):
    """Asymptotic expansion of log p(X, Z) around the likelihood maximum.

    Occupied clusters and biclusters take the Laplace route (curvature
    penalties r1, r2 plus the dimension penalty ell_n); empty components
    route into the additive constant, which under flat priors collects
    log(1/2) per empty component plus the Gaussian-integral constants.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if k is None:
        k = int(labels.max()) + 1
    n = graph.n
    counts = label_counts(labels, k)
    zbar = counts / n
    moments = hard_moments(graph, labels, k)
    if params_hat is None:
        params_hat, _ = m_step(moments)

    occupied = counts > 0
    s_set = np.flatnonzero(occupied).tolist()
    k_zbar = len(s_set)
    zz = moments.zzbar

    max_ll = joint_log_likelihood(graph, labels, params_hat)
    r1 = 0.5 * float(np.sum(np.log(zbar[occupied])))

    r2 = 0.0
    k_zz = 0
    clamped = False
    c_const = (k_zbar - 1) / 2.0 * LOG_2PI + (k - k_zbar) * LOG_HALF
    for a in range(k):
        for b in range(a, k):
            if not (occupied[a] and occupied[b]):
                continue
            if zz[a, b] > 0:
                k_zz += 1
                curvature = zz[a, b] * (1.0 - params_hat.pi[a, b])
                if curvature < EPS_P:
                    # fully-connected bicluster: curvature vanishes and the
                    # expansion (like the flat-prior integral) degenerates
                    curvature = EPS_P
                    clamped = True
                r2 += 0.5 * math.log(curvature)
                c_const += 0.5 * (LOG_2PI if a == b else LOG_2PI - math.log(2.0))
            else:
                c_const += LOG_HALF  # empty bicluster between occupied clusters

    ell_n = (k_zbar - 1) / 2.0 * math.log(n) + k_zz / 2.0 * math.log(n * (n + 1) / 2.0)
    m_star = n * n * float(np.min(zbar[occupied]) ** 2) if s_set else 0.0
    m_bar = (n * n / 2.0) * (np.outer(zbar, zbar) + np.diag(zbar) / n)
    return JointMarginalTerms(
        max_ll=max_ll,
        r1=r1,
        r2=r2,
        ell_n=ell_n,
        c_const=c_const,
        s_set=s_set,
        m_star=m_star,
        k_zbar=k_zbar,
        k_zz=k_zz,
        m_bar=m_bar,
    )
