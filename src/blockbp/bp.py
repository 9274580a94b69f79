"""Belief propagation for sparse block models, plain and penalty-augmented.

Each BeliefState holds a greedy proper colouring of its graph.  A sweep
visits the colour classes in an order the sweep RNG shuffles afresh each
sweep.  Nodes of one class share no edge, so every message a class reads
comes from other classes, and the whole class updates its beliefs and
outgoing messages in a few array operations.  The incremental moment caches
take one rank update per class (and are restored exactly at every sweep
boundary); clusters whose expected proportion falls below 0.1/n are pruned
after each class when enabled.  Unconnected-node factors are folded into a
shared external field, keeping a sweep at O(m K^2).  The moment caches and
the criteria read the pairwise edge beliefs only through one (m, K)
contraction, `BeliefState.edge_contraction`; the (m, K, K) beliefs of
`BeliefState.edge_beliefs` are kept as the tests' reference.

Penalty modes:
  "none"  plain sum-product messages,
  "fab"   messages carry the smoothed cluster- and bicluster-size penalties,
  "fic"   only the cluster-size penalty, scaled by K(K+1)/2.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from . import criteria
from .graph import RNG_ALGORITHM
from .model import (
    EPS_P,
    Moments,
    Params,
    clamped,
    m_step,
    pair_mass,
)

PRUNE_SCALE = 0.1  # prune cluster k when E[zbar_k] < PRUNE_SCALE / n


class MessageUnderflowError(RuntimeError):
    """Every component of a message update vanished."""

    def __init__(self, i, j):
        super().__init__(f"message underflow on edge {i}->{j}")
        self.edge = (i, j)


@dataclass
class BPOptions:
    """Knobs for a single fit run; defaults follow the reference procedure."""

    tol_msg: float = 1e-2
    tol_pi: float = 1e-8
    max_sweeps: int = 500
    max_outer: int = 200
    damping: float | None = None  # None -> 0.5 for plain sweeps, 0.0 for penalized
    penalty: str = "fab"
    live_prior: bool = True
    prune: bool = True
    include_field: bool = True
    debug_checks: bool = False

    def resolved_damping(self):
        if self.damping is not None:
            return self.damping
        return 0.0 if self.penalty != "none" else 0.5


@dataclass
class PenaltyTerms:
    """Per-node penalty vector and its excluded-node statistics."""

    lam: np.ndarray
    t_excl: np.ndarray
    T_excl: np.ndarray | None


def external_field(params, zbar, n):
    """Log-domain external field standing in for all unconnected-node factors."""
    return -n * (params.pi @ np.asarray(zbar, dtype=np.float64))


def _normalize_rows(w, edge_of):
    """Scale nonnegative rows to sum 1, in place.

    A row whose sum is not finite and positive raises MessageUnderflowError
    naming the edge edge_of(row) returns.
    """
    total = w.sum(axis=1, keepdims=True)
    ok = np.isfinite(total[:, 0]) & (total[:, 0] > 0.0)
    if not ok.all():
        raise MessageUnderflowError(*edge_of(int(np.argmin(ok))))
    w /= total
    return w


def _greedy_colouring(n, src, dst):
    """Proper colouring of the message graph: each node, largest degree first,
    takes the smallest colour no coloured neighbour holds; O(n + m)."""
    by_dst = np.argsort(dst, kind="stable")
    neighbours = src[by_dst].tolist()
    degree = np.bincount(dst, minlength=n)
    ptr = np.concatenate([[0], np.cumsum(degree)]).tolist()
    colour = [-1] * n
    for v in np.argsort(-degree, kind="stable").tolist():
        used = {colour[u] for u in neighbours[ptr[v] : ptr[v + 1]]}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    return np.array(colour, dtype=np.int64)


@dataclass(frozen=True)
class InLists:
    """The in-messages of a set of nodes, grouped by node.

    ids[starts[r]:starts[r] + count] are the messages into nodes[r]; owner
    maps each id to its row r; filled lists the rows with at least one
    message, so empty segments never reach np.add.reduceat.
    """

    nodes: np.ndarray
    ids: np.ndarray
    owner: np.ndarray
    starts: np.ndarray
    filled: np.ndarray

    def segment_sum(self, values):
        """Per-node sums of values (one row per id); zero rows for nodes without messages."""
        out = np.zeros((self.nodes.size, values.shape[1]))
        if self.ids.size:
            out[self.filled] = np.add.reduceat(values, self.starts[self.filled], axis=0)
        return out


class BeliefState:
    """Mutable per-run state: directed messages, node beliefs, moment caches.

    Owned by exactly one fit run; the underlying Graph is shared read-only.
    Messages exist for both orientations of every non-self-loop training
    edge; self-loops contribute to statistics but carry no message.
    `classes` holds the InLists of the colour classes of a greedy proper
    colouring (largest degree first), which draws nothing from the RNG.
    """

    def __init__(self, graph, k, rng):
        self.graph = graph
        self.n = graph.n
        self.k_active = int(k)
        self.removed = []
        self.active_clusters = list(range(k))

        pairs = graph.edges[graph.edges[:, 0] != graph.edges[:, 1]]
        m = pairs.shape[0]
        self.m_directed = 2 * m
        # edge row r = (i, j) carries messages i->j and j->i (2r and 2r + 1
        # here); they are stored grouped by the colour class, then the node,
        # they flow into, so each class reads its in-messages as one block,
        # and forward/reverse give the stored rows of each edge row's pair
        src = pairs.reshape(-1)
        dst = pairs[:, ::-1].reshape(-1)
        colour = _greedy_colouring(self.n, src, dst)
        order = np.lexsort((dst, colour[dst]))
        position = np.empty_like(order)
        position[order] = np.arange(2 * m)
        self.src, self.dst = src[order], dst[order]
        self.rev = position[order ^ 1]
        self.forward, self.reverse = position[0::2], position[1::2]

        # nodes in storage order: node v's in-messages are the in_count[v]
        # rows from in_first[v]
        by_colour = np.argsort(colour, kind="stable")
        self.in_count = np.bincount(self.dst, minlength=self.n)
        counts = self.in_count[by_colour]
        self.in_first = np.empty(self.n, dtype=np.int64)
        self.in_first[by_colour] = np.cumsum(counts) - counts
        self.self_loops = graph.edges[graph.edges[:, 0] == graph.edges[:, 1]]
        bounds = np.cumsum(np.bincount(colour))[:-1]
        self.classes = [self.in_lists(nodes) for nodes in np.split(by_colour, bounds)]

        self.messages = rng.uniform(0.1, 1.0, size=(2 * m, k))[order]
        self.messages /= self.messages.sum(axis=1, keepdims=True)
        self.node_belief = rng.uniform(0.1, 1.0, size=(self.n, k))
        self.node_belief /= self.node_belief.sum(axis=1, keepdims=True)
        self.h = self.node_belief.sum(axis=0)
        self.zzbar_cache = np.zeros((k, k))
        self.drift_log = []

    def in_lists(self, nodes):
        """InLists of the given node-index array."""
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = self.in_count[nodes]
        starts = np.cumsum(counts) - counts
        owner = np.repeat(np.arange(nodes.size), counts)
        ids = self.in_first[nodes][owner] + np.arange(owner.size) - starts[owner]
        return InLists(nodes, ids, owner, starts, np.flatnonzero(counts))

    def start_from(self, beliefs, params):
        """Set node beliefs and every message b[src] from one belief matrix."""
        self.node_belief = np.array(beliefs, dtype=np.float64)
        self.messages = self.node_belief[self.src]
        self.h = self.node_belief.sum(axis=0)
        self.refresh_moments(params)

    # -- views ---------------------------------------------------------------

    @property
    def zbar_cache(self):
        return self.h / self.n

    def neighbor_belief_sum(self, node, lists=None):
        """Summed beliefs of a node's neighbours; one row per node for an array.

        `lists`, when given, is the InLists of the node array.
        """
        if lists is None:
            lists = self.in_lists(np.atleast_1d(node))
        out = lists.segment_sum(self.node_belief[self.src[lists.ids]])
        return out if np.ndim(node) else out[0]

    def edge_beliefs(self, params):
        """Pairwise beliefs aligned with graph.edges rows (self rows diagonal).

        Builds the (m, K, K) array.  The fit and the criteria need only its
        sum and its entropy, which they get from `edge_contraction` and the
        (m, K) messages; the tests keep this as the reference for both.
        """
        k = self.k_active
        edges = self.graph.edges
        out = np.zeros((edges.shape[0], k, k))
        nonself = edges[:, 0] != edges[:, 1]
        if self.m_directed:
            # in place, so one (m, K, K) temporary lives beside the output
            t = self.messages[self.forward, :, None] * params.pi
            t *= self.messages[self.reverse, None, :]
            t /= np.clip(t.sum(axis=(1, 2), keepdims=True), 1e-300, None)
            out[nonself] = t
        out[~nonself] = self.node_belief[edges[~nonself, 0], :, None] * np.eye(k)
        return out

    def edge_contraction(self, params):
        """Per-edge normalisers and summed pairwise belief of the message edges.

        For edge row e with forward message f_e and reverse message r_e the
        pairwise belief is b_e = f_e r_e^T * pi / z_e with z_e = f_e^T pi r_e.
        Returns (z, s): z holds z_e per message-carrying edge row (in the
        order of `forward`), clipped below at 1e-300, and s = sum_e b_e =
        pi * ((F / z)^T R), one GEMM, without the (m, K, K) beliefs.
        """
        mu_f = self.messages[self.forward]
        mu_r = self.messages[self.reverse]
        z = np.clip(((mu_f @ params.pi) * mu_r).sum(axis=1), 1e-300, None)
        return z, params.pi * ((mu_f / z[:, None]).T @ mu_r)

    def refresh_moments(self, params):
        """Exact recomputation of both moment caches from current beliefs."""
        n, k = self.n, self.k_active
        h_exact = self.node_belief.sum(axis=0)
        drift = float(np.max(np.abs(self.h - h_exact) / n)) if k else 0.0
        self.h = h_exact

        _, s = self.edge_contraction(params)
        self.zzbar_cache = (s + s.T) / n**2 + pair_mass(self.self_loops, self.node_belief, n)
        return drift

    def moments(self):
        """Fresh mask-aware Moments from the current beliefs and caches."""
        n = self.n
        masked_mass = pair_mass(self.graph.masked_index, self.node_belief, n)
        return Moments(self.h / n, self.zzbar_cache.copy(), n, masked_mass=masked_mass)

    def map_assignment(self):
        return np.argmax(self.node_belief, axis=1)

    # -- pruning ---------------------------------------------------------------

    def prune_clusters(self, params):
        """Drop clusters whose cached proportion fell below the threshold.

        The largest cluster is always preserved.  Returns the possibly-sliced
        (gamma, pi) working parameters.
        """
        threshold = PRUNE_SCALE  # on h = n * zbar
        keep = np.flatnonzero(self.h >= threshold)
        if keep.size == self.k_active:
            return params
        top = int(np.argmax(self.h))
        if top not in keep:
            keep = np.sort(np.append(keep, top))
        if keep.size == 0:
            raise AssertionError("pruning removed every cluster")
        dropped = [c for c in range(self.k_active) if c not in set(keep.tolist())]
        for c in dropped:
            self.removed.append(self.active_clusters[c])
        self.active_clusters = [self.active_clusters[c] for c in keep]

        self.messages = self.messages[:, keep]
        norm = np.clip(self.messages.sum(axis=1, keepdims=True), 1e-300, None)
        self.messages /= norm
        self.node_belief = self.node_belief[:, keep]
        norm = np.clip(self.node_belief.sum(axis=1, keepdims=True), 1e-300, None)
        self.node_belief /= norm
        self.h = self.node_belief.sum(axis=0)
        self.zzbar_cache = self.zzbar_cache[np.ix_(keep, keep)]
        self.k_active = keep.size
        return Params(params.gamma[keep], params.pi[np.ix_(keep, keep)])


# -- penalties ----------------------------------------------------------------


def compute_penalty(state, node, mode="fab", lists=None):
    """Smoothed marginal-likelihood penalty for the messages of one node.

    `node` may be a node-index array: lam and t_excl then hold one row per
    node and T_excl a leading node axis.  t and T are the cluster and
    bicluster pseudo-counts excluding the node itself, formed from the live
    expected proportions (which the closed-form estimators equal at every
    update of the alternation); both are clamped below at 1 so the penalty
    stays finite and nonnegative in degenerate states.  Mode "fic" keeps
    only the cluster-size term, scaled by K(K+1)/2, and leaves T_excl unset.
    `lists`, when given, is the InLists of the node array.
    """
    # cluster and bicluster masses enter through the live caches (h = n *
    # E[zbar], n^2 * E[zzbar]); tracking them within a sweep lets a shrinking
    # cluster's penalty grow at the next colour class instead of waiting for
    # the next closed-form update
    n = state.n
    b = state.node_belief[node]
    t = np.clip(state.h - b + 1.0, 1.0, None)
    r1_term = 0.5 * np.log1p(1.0 / t)
    if mode == "fic":
        k = state.k_active
        return PenaltyTerms((k * (k + 1) / 2.0) * r1_term, t, None)
    nbr = state.neighbor_belief_sum(node, lists)
    big_t = np.multiply(b[..., :, None], nbr[..., None, :])
    np.subtract(n * n * state.zzbar_cache + 1.0, big_t, out=big_t)
    np.clip(big_t, 1.0, None, out=big_t)
    terms = np.divide(nbr[..., None, :], big_t)
    lam = r1_term + 0.5 * np.log1p(terms, out=terms).sum(axis=-1)
    return PenaltyTerms(lam, t, big_t)


# -- sweeps ----------------------------------------------------------------------


def _update_class(state, cls, params, opts):
    """New beliefs and out-messages for every node of one colour class.

    The class shares no edge, so all the messages it reads come from other
    classes; h and zzbar_cache are read as they stood when the class
    started and then take one rank update each.  Returns the summed
    absolute message change.
    """
    n, pi = state.n, params.pi
    ids = cls.ids
    out = state.rev[ids]  # out-message i->j sits on the row of in-message j->i
    in_msgs = state.messages[ids]
    in_vals = in_msgs @ pi
    with np.errstate(divide="ignore"):
        log_in = np.log(in_vals)
    if opts.penalty != "none" and opts.live_prior:
        log_prior = np.log(np.clip(state.zbar_cache, EPS_P, None))
    else:
        log_prior = np.log(np.clip(params.gamma, EPS_P, None))
    base = log_prior + cls.segment_sum(log_in)
    if opts.include_field:
        base += external_field(params, state.zbar_cache, n)
    if opts.penalty != "none":
        base -= compute_penalty(state, cls.nodes, opts.penalty, cls).lam

    # each finite row of weights peaks at 1; out-message i->j is node i's
    # weights without the factor of in-message j->i, so every such row sums
    # to at least 1 (in_vals <= 1)
    weights = np.exp(base - base.max(axis=1, keepdims=True))
    new_msgs = _normalize_rows(
        weights[cls.owner] / in_vals, lambda r: (int(state.src[out[r]]), int(state.dst[out[r]]))
    )
    new_belief = _normalize_rows(weights, lambda r: (int(cls.nodes[r]),) * 2)
    old_msgs = state.messages[out]
    damping = opts.resolved_damping()
    if damping > 0.0:
        new_msgs = (1.0 - damping) * new_msgs + damping * old_msgs
    if opts.debug_checks:
        assert np.allclose(new_msgs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(new_msgs >= 0)
    deltas = new_msgs - old_msgs
    u = pi * (deltas.T @ in_msgs) / n**2
    state.zzbar_cache += 0.5 * (u + u.T)
    state.messages[out] = new_msgs
    state.h += (new_belief - state.node_belief[cls.nodes]).sum(axis=0)
    state.node_belief[cls.nodes] = new_belief
    return float(np.abs(deltas).sum())


def fabbp_run(graph, params, state, opts, rng=None):
    """Run penalized (or plain) BP sweeps until the messages settle.

    Each sweep visits the colour classes of state.classes in an order drawn
    afresh from rng, updating all beliefs and outgoing messages of a class
    at once (nodes of a class share no edge, so the class update equals the
    node-by-node one), maintaining incremental moment caches and pruning
    low-mass clusters after each class when enabled.  The sweep reads the
    affinities clamped into [EPS_P, 1 - EPS_P]; the returned params are the
    given ones, sliced to the surviving clusters.  Stops when the summed
    absolute message change per sweep, normalized by the edge count, drops
    below opts.tol_msg or the sweep cap is reached; a capped run is flagged,
    not an error.
    Returns (state, params, info).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    working = Params(
        np.asarray(params.gamma, dtype=np.float64), np.asarray(params.pi, dtype=np.float64)
    )
    sweep_params = clamped(working)
    m_edges = max(state.m_directed // 2, 1)

    sweeps = 0
    mean_delta = np.inf
    best_delta = np.inf
    sweeps_since_best = 0
    converged = False
    for _ in range(opts.max_sweeps):
        sweeps += 1
        total_delta = 0.0
        for c in rng.permutation(len(state.classes)):
            total_delta += _update_class(state, state.classes[c], sweep_params, opts)
            if opts.prune and state.k_active > 1 and state.h.min() < PRUNE_SCALE:
                working = state.prune_clusters(working)
                sweep_params = clamped(working)

        drift = state.refresh_moments(sweep_params)
        state.drift_log.append(drift)
        mean_delta = total_delta / m_edges
        if mean_delta < opts.tol_msg:
            converged = True
            break
        # stall guard for plain sweeps only: wandering messages (a
        # parameter-belief limit cycle on structureless data) would otherwise
        # burn the whole sweep budget; penalized sweeps legitimately spend
        # long plateaus collapsing redundant clusters
        if opts.penalty == "none":
            if mean_delta < 0.95 * best_delta:
                best_delta = mean_delta
                sweeps_since_best = 0
            else:
                sweeps_since_best += 1
                if sweeps_since_best >= 25:
                    break

    info = {"sweeps": sweeps, "mean_delta": mean_delta, "converged": converged}
    return state, working, info


# -- full fits ---------------------------------------------------------------------


@dataclass
class FitResult:
    """Outcome of a fit: selected model size, parameters, beliefs, trace."""

    selected_k: int
    params: Params
    node_marginals: np.ndarray
    map_assignment: np.ndarray
    converged: bool
    trace: list
    criteria: criteria.CriterionReport
    n: int
    seed: int
    method: str
    rng_algorithm: str = RNG_ALGORITHM
    warnings: list = field(default_factory=list)
    node_ids: list | None = None  # original tokens when parsed from an edge list


def _trivial_fit(graph, seed, method, warning):
    n = graph.n
    params = Params(np.array([1.0]), np.array([[0.0]]))
    beliefs = np.ones((n, 1))
    state = BeliefState(graph, 1, np.random.default_rng(seed))
    state.node_belief = beliefs
    state.h = beliefs.sum(axis=0)
    state.refresh_moments(params)
    params, _ = m_step(state.moments())
    report = criteria.criterion_report(graph, state, params)
    return FitResult(
        selected_k=1,
        params=params,
        node_marginals=beliefs,
        map_assignment=np.zeros(n, dtype=np.int64),
        converged=True,
        trace=[],
        criteria=report,
        n=n,
        seed=seed,
        method=method,
        warnings=[warning],
        node_ids=graph.node_ids,
    )


def _soft_init(graph, labels, k, confidence=0.45):
    """Softened spectral responsibilities and their closed-form parameters.

    Mixing the hard assignment with the uniform distribution keeps redundant
    clusters' affinity rows nearly homogeneous at the start: the hard-stat
    affinities would imprint the sampling noise of the initial partition and
    lock the cluster count near its initial value.  The mix is a balance:
    much softer and the proportion dynamics merge true clusters before the
    likelihood separates them, much harder and clone splits of true clusters
    survive to lock-in.  Returns (params, beliefs).
    """
    n = graph.n
    b = np.full((n, k), (1.0 - confidence) / k)
    b[np.arange(n), labels] += confidence
    moments = Moments(
        b.mean(axis=0),
        pair_mass(graph.edges, b, n),
        n,
        masked_mass=pair_mass(graph.masked_index, b, n),
    )
    params, _ = m_step(moments)
    return params, b


def _fit_driver(graph, k_init, seed, opts, method):
    """Alternate BP sweeps with closed-form M-steps until the affinities settle."""
    from .spectral import spectral_init

    if graph.m == 0:
        return _trivial_fit(graph, seed, method, "graph has no edges; returning K=1 fit")
    fit_warnings = []
    if k_init > graph.n:
        fit_warnings.append(f"cluster count {k_init} exceeds n={graph.n}; clamped to {graph.n}")
        k_init = graph.n

    ss = np.random.SeedSequence(seed)
    seed_spectral, seed_msg, seed_sweep = ss.spawn(3)
    # a random-init fallback warns; keep it in the result as well, and pass
    # every caught warning on to the caller's filters
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        labels0, hard_params = spectral_init(graph, k_init, seed_spectral.generate_state(1)[0])
    for w in caught:
        if issubclass(w.category, UserWarning):
            fit_warnings.append(str(w.message))
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    state = BeliefState(graph, k_init, np.random.default_rng(seed_msg))
    if opts.penalty != "none":
        # penalized sweeps start from the spectral partition itself, not from
        # the random draws: the soft responsibilities set beliefs and messages
        params, beliefs = _soft_init(graph, labels0, k_init)
        state.start_from(beliefs, params)
    else:
        params = hard_params
    sweep_rng = np.random.default_rng(seed_sweep)

    trace = []
    converged = False
    best_dpi = np.inf
    outers_since_best = 0
    for outer in range(opts.max_outer):
        k_before = state.k_active
        state, params, info = fabbp_run(graph, params, state, opts, sweep_rng)
        moments = state.moments()
        new_params, _ = m_step(moments)
        entry = {
            "outer": outer,
            "sweeps": info["sweeps"],
            "mean_delta": info["mean_delta"],
            "k_active": state.k_active,
        }
        if state.k_active == k_before and new_params.k == params.k:
            delta_pi = float(np.max(np.abs(new_params.pi - params.pi)))
            entry["delta_pi"] = delta_pi
        else:
            delta_pi = None
        entry["criterion"] = criteria.ffic_lower_bound(graph, state, new_params)
        trace.append(entry)
        params = new_params
        if delta_pi is not None and delta_pi < opts.tol_pi:
            converged = True
            break
        # stall guard mirroring the sweep-level one, on the affinity deltas
        if opts.penalty == "none":
            if delta_pi is not None:
                if delta_pi < 0.9 * best_dpi:
                    best_dpi = delta_pi
                    outers_since_best = 0
                else:
                    outers_since_best += 1
                    if outers_since_best >= 12:
                        break
            else:
                best_dpi = np.inf
                outers_since_best = 0

    report = criteria.criterion_report(graph, state, params)
    return FitResult(
        selected_k=state.k_active,
        params=params,
        node_marginals=state.node_belief.copy(),
        map_assignment=state.map_assignment(),
        converged=converged,
        trace=trace,
        criteria=report,
        n=graph.n,
        seed=seed,
        method=method,
        warnings=fit_warnings,
        node_ids=graph.node_ids,
    )


def _with_mode(opts, penalty, prune):
    opts = BPOptions(**vars(opts)) if opts is not None else BPOptions()
    opts.penalty = penalty
    opts.prune = prune
    return opts


def f2ab_fit(graph, k_max, seed, opts=None):
    """One-pass fit: start at k_max, let the penalties prune redundant clusters."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _fit_driver(graph, k_max, seed, _with_mode(opts, "fab", True), "f2ab")


def fic_bp_fit(graph, k_max, seed, opts=None):
    """One-pass fit with the cluster-size-only penalty scaled by K(K+1)/2."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _fit_driver(graph, k_max, seed, _with_mode(opts, "fic", True), "fic-bp")


def fixed_k_fit(graph, k, seed, opts=None):
    """Plain BP/EM fit at a fixed cluster count (no penalties, no pruning)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _fit_driver(graph, k, seed, _with_mode(opts, "none", False), "fixed-k")


# -- serialization -------------------------------------------------------------


def fit_result_to_json(result):
    payload = {
        "selected_k": result.selected_k,
        "n": result.n,
        "seed": result.seed,
        "method": result.method,
        "rng_algorithm": result.rng_algorithm,
        "converged": result.converged,
        "gamma": result.params.gamma.tolist(),
        "pi": result.params.pi.reshape(-1).tolist(),
        "node_marginals": result.node_marginals.tolist(),
        "map_assignment": result.map_assignment.tolist(),
        "trace": result.trace,
        "criteria": asdict(result.criteria),
        "warnings": result.warnings,
        "node_ids": result.node_ids,
    }
    return json.dumps(payload)


def fit_result_from_json(text):
    obj = json.loads(text)
    k = int(obj["selected_k"])
    params = Params(
        np.array(obj["gamma"], dtype=np.float64),
        np.array(obj["pi"], dtype=np.float64).reshape(k, k),
    )
    report = criteria.CriterionReport(**obj["criteria"])
    return FitResult(
        selected_k=k,
        params=params,
        node_marginals=np.array(obj["node_marginals"], dtype=np.float64),
        map_assignment=np.array(obj["map_assignment"], dtype=np.int64),
        converged=bool(obj["converged"]),
        trace=obj["trace"],
        criteria=report,
        n=int(obj["n"]),
        seed=int(obj["seed"]),
        method=obj["method"],
        rng_algorithm=obj.get("rng_algorithm", RNG_ALGORITHM),
        warnings=obj.get("warnings", []),
        node_ids=obj.get("node_ids"),
    )
