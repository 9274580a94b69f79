"""Belief propagation for sparse block models, plain and penalty-augmented.

A sweep visits every node in fresh random order, updating its belief and all
of its outgoing messages, maintaining incremental moment caches (restored
exactly at every sweep boundary), and optionally pruning clusters whose
expected proportion falls below 0.1/n.  Unconnected-node factors are folded
into a shared external field, keeping a sweep at O(m K^2).

Penalty modes:
  "none"  plain sum-product messages,
  "fab"   messages carry the smoothed cluster- and bicluster-size penalties,
  "fic"   only the cluster-size penalty, scaled by K(K+1)/2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import criteria
from .graph import RNG_ALGORITHM
from .model import (
    EPS_P,
    Moments,
    Params,
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


def _softmax(logits):
    top = logits.max()
    if not np.isfinite(top):
        return None
    w = np.exp(logits - top)
    return w / w.sum()


class BeliefState:
    """Mutable per-run state: directed messages, node beliefs, moment caches.

    Owned by exactly one fit run; the underlying Graph is shared read-only.
    Messages exist for both orientations of every non-self-loop training
    edge; self-loops contribute to statistics but carry no message.
    """

    def __init__(self, graph, k, rng):
        self.graph = graph
        self.n = graph.n
        self.k_active = int(k)
        self.removed = []
        self.active_clusters = list(range(k))

        pairs = graph.edges[graph.edges[:, 0] != graph.edges[:, 1]]
        self.edge_pairs = pairs
        m = pairs.shape[0]
        self.m_directed = 2 * m
        src = np.empty(2 * m, dtype=np.int64)
        dst = np.empty(2 * m, dtype=np.int64)
        src[0::2], dst[0::2] = pairs[:, 0], pairs[:, 1]
        src[1::2], dst[1::2] = pairs[:, 1], pairs[:, 0]
        rev = np.arange(2 * m, dtype=np.int64)
        rev[0::2] += 1
        rev[1::2] -= 1
        self.src, self.dst, self.rev = src, dst, rev

        order = np.argsort(dst, kind="stable")
        self.in_idx = order
        counts = np.bincount(dst, minlength=self.n)
        self.in_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        pos_of = np.empty(2 * m, dtype=np.int64)
        pos_of[order] = np.arange(2 * m) - self.in_ptr[dst[order]]
        # position of the reverse message j->i inside the in-list of node i
        self.rev_pos = pos_of[rev]
        out_order = np.argsort(src, kind="stable")
        self.out_idx = out_order
        out_counts = np.bincount(src, minlength=self.n)
        self.out_ptr = np.concatenate([[0], np.cumsum(out_counts)]).astype(np.int64)
        self.isolated = np.flatnonzero(graph.degrees == 0)
        self.self_loops = graph.edges[graph.edges[:, 0] == graph.edges[:, 1]]

        self.messages = rng.uniform(0.1, 1.0, size=(2 * m, k))
        self.messages /= self.messages.sum(axis=1, keepdims=True)
        self.node_belief = rng.uniform(0.1, 1.0, size=(self.n, k))
        self.node_belief /= self.node_belief.sum(axis=1, keepdims=True)
        self.h = self.node_belief.sum(axis=0)
        self.zzbar_cache = np.zeros((k, k))
        self.drift_log = []

    # -- views ---------------------------------------------------------------

    @property
    def zbar_cache(self):
        return self.h / self.n

    def in_messages(self, node):
        return self.in_idx[self.in_ptr[node] : self.in_ptr[node + 1]]

    def out_messages(self, node):
        return self.out_idx[self.out_ptr[node] : self.out_ptr[node + 1]]

    def neighbor_belief_sum(self, node):
        ids = self.in_messages(node)
        if ids.size == 0:
            return np.zeros(self.k_active)
        return self.node_belief[self.src[ids]].sum(axis=0)

    def directed_id(self, i, j):
        ids = self.in_messages(j)
        hits = ids[self.src[ids] == i]
        if hits.size == 0:
            raise KeyError(f"no message {i}->{j}: nodes not adjacent")
        return int(hits[0])

    def edge_beliefs(self, params):
        """Pairwise beliefs aligned with graph.edges rows (self rows diagonal)."""
        k = self.k_active
        edges = self.graph.edges
        out = np.zeros((edges.shape[0], k, k))
        nonself = edges[:, 0] != edges[:, 1]
        if self.m_directed:
            t = (
                self.messages[0::2, :, None]
                * params.pi[None, :, :]
                * self.messages[1::2, None, :]
            )
            tot = np.clip(t.sum(axis=(1, 2), keepdims=True), 1e-300, None)
            out[nonself] = t / tot
        out[~nonself] = self.node_belief[edges[~nonself, 0], :, None] * np.eye(k)
        return out

    def refresh_moments(self, params):
        """Exact recomputation of both moment caches from current beliefs."""
        n, k = self.n, self.k_active
        h_exact = self.node_belief.sum(axis=0)
        drift = float(np.max(np.abs(self.h - h_exact) / n)) if k else 0.0
        self.h = h_exact

        zz = np.zeros((k, k))
        if self.m_directed:
            mu_f = self.messages[0::2]
            mu_r = self.messages[1::2]
            t = mu_f[:, :, None] * params.pi[None, :, :] * mu_r[:, None, :]
            tot = t.sum(axis=(1, 2), keepdims=True)
            np.clip(tot, 1e-300, None, out=tot)
            t /= tot
            ts = t.sum(axis=0)
            zz = (ts + ts.T) / n**2
        self.zzbar_cache = zz + pair_mass(self.self_loops, self.node_belief, n)
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


def compute_penalty(state, node, mode="fab"):
    """Smoothed marginal-likelihood penalty for one node's messages.

    t and T are the cluster and bicluster pseudo-counts excluding the node
    itself, formed from the live expected proportions (which the closed-form
    estimators equal at every update of the alternation); both are clamped
    below at 1 so the penalty stays finite and nonnegative in degenerate
    states.  Mode "fic" keeps only the cluster-size term, scaled by
    K(K+1)/2, and leaves T_excl unset.
    """
    # cluster and bicluster masses enter through the live caches (h = n *
    # E[zbar], n^2 * E[zzbar]); tracking them within a sweep lets a shrinking
    # cluster's penalty grow immediately instead of waiting for the next
    # closed-form update
    n = state.n
    b = state.node_belief[node]
    t = np.clip(state.h - b + 1.0, 1.0, None)
    r1_term = 0.5 * np.log1p(1.0 / t)
    if mode == "fic":
        k = state.k_active
        return PenaltyTerms((k * (k + 1) / 2.0) * r1_term, t, None)
    nbr = state.neighbor_belief_sum(node)
    big_t = np.clip(n * n * state.zzbar_cache - np.outer(b, nbr) + 1.0, 1.0, None)
    lam = r1_term + 0.5 * np.log1p(nbr[None, :] / big_t).sum(axis=1)
    return PenaltyTerms(lam, t, big_t)


# -- message updates ------------------------------------------------------------


def _update_logits(state, log_gamma, pi, field, e, lam):
    """Belief and message logits for directed edge e; shares the in-sum."""
    i = state.src[e]
    ids = state.in_messages(i)
    incoming = state.messages[ids] @ pi
    with np.errstate(divide="ignore", invalid="ignore"):
        log_in = np.log(incoming)
        base = log_gamma + field + log_in.sum(axis=0)
        if lam is not None:
            base = base - lam
        msg_logits = base - log_in[state.rev_pos[e]]
    return base, msg_logits


def update_message_standard(state, params, i, j, field=None):
    """Plain sum-product message i -> j under the external-field model."""
    e = state.directed_id(i, j)
    log_gamma = np.log(np.clip(params.gamma, EPS_P, None))
    if field is None:
        field = external_field(params, state.zbar_cache, state.n) if state_field_on(state) else 0.0
    _, logits = _update_logits(state, log_gamma, params.pi, field, e, None)
    out = _softmax(logits)
    if out is None:
        raise MessageUnderflowError(i, j)
    return out


def update_message_fab(state, params, i, j, field=None, lam=None):
    """Penalized message i -> j: the sending node's penalty enters the exponent."""
    e = state.directed_id(i, j)
    log_gamma = np.log(np.clip(params.gamma, EPS_P, None))
    if field is None:
        field = external_field(params, state.zbar_cache, state.n) if state_field_on(state) else 0.0
    if lam is None:
        lam = compute_penalty(state, i).lam
    _, logits = _update_logits(state, log_gamma, params.pi, field, e, lam)
    out = _softmax(logits)
    if out is None:
        raise MessageUnderflowError(i, j)
    return out


def state_field_on(state):
    return getattr(state, "field_enabled", True)


# -- sweeps ----------------------------------------------------------------------


def fabbp_run(graph, params, state, opts, rng=None):
    """Run penalized (or plain) BP sweeps until the messages settle.

    Each sweep visits every node in fresh random order, updating its belief
    and all of its outgoing messages (out-messages of a node depend only on
    its in-messages, so the grouped update is still strictly asynchronous),
    maintaining incremental moment caches and pruning low-mass clusters when
    enabled.  Stops when the summed absolute message change per sweep,
    normalized by the edge count, drops below opts.tol_msg or the sweep cap
    is reached; a capped run is flagged, not an error.
    Returns (state, params, info).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = state.n
    state.field_enabled = opts.include_field
    gamma = np.asarray(params.gamma, dtype=np.float64)
    pi = np.asarray(params.pi, dtype=np.float64)
    working = Params(gamma, pi)
    log_gamma = np.log(np.clip(gamma, EPS_P, None))
    penalty_mode = opts.penalty if opts.penalty != "none" else None
    damping = opts.resolved_damping()
    m_edges = max(state.m_directed // 2, 1)

    sweeps = 0
    mean_delta = np.inf
    best_delta = np.inf
    sweeps_since_best = 0
    converged = False
    for _ in range(opts.max_sweeps):
        sweeps += 1
        total_delta = 0.0
        for i in rng.permutation(n):
            i = int(i)
            in_ids = state.in_messages(i)
            if in_ids.size:
                with np.errstate(divide="ignore"):
                    log_in = np.log(state.messages[in_ids] @ pi)
                in_sum = log_in.sum(axis=0)
            else:
                log_in = None
                in_sum = 0.0
            field = -(pi @ state.h) if opts.include_field else 0.0
            if penalty_mode and opts.live_prior:
                log_gamma = np.log(np.clip(state.h / n, EPS_P, None))
            base = log_gamma + field + in_sum
            if penalty_mode:
                base = base - compute_penalty(state, i, penalty_mode).lam
            new_belief = _softmax(base)
            if new_belief is None:
                raise MessageUnderflowError(i, i)
            state.h += new_belief - state.node_belief[i]
            state.node_belief[i] = new_belief

            out_ids = state.out_messages(i)
            if out_ids.size:
                logits = base[None, :] - log_in[state.rev_pos[out_ids]]
                top = logits.max(axis=1, keepdims=True)
                if not np.all(np.isfinite(top)):
                    bad = out_ids[int(np.flatnonzero(~np.isfinite(top.ravel()))[0])]
                    raise MessageUnderflowError(i, int(state.dst[bad]))
                new_msgs = np.exp(logits - top)
                new_msgs /= new_msgs.sum(axis=1, keepdims=True)
                if damping > 0.0:
                    new_msgs = (1.0 - damping) * new_msgs + damping * state.messages[out_ids]
                if opts.debug_checks:
                    assert np.allclose(new_msgs.sum(axis=1), 1.0, atol=1e-9)
                    assert np.all(new_msgs >= 0)
                deltas = new_msgs - state.messages[out_ids]
                u = pi * (deltas.T @ state.messages[state.rev[out_ids]]) / n**2
                state.zzbar_cache += 0.5 * (u + u.T)
                state.messages[out_ids] = new_msgs
                total_delta += float(np.abs(deltas).sum())

            if opts.prune and state.k_active > 1 and state.h.min() < PRUNE_SCALE:
                working = state.prune_clusters(working)
                gamma, pi = working.gamma, working.pi
                log_gamma = np.log(np.clip(gamma, EPS_P, None))

        drift = state.refresh_moments(working)
        state.drift_log.append(drift)
        mean_delta = total_delta / m_edges
        if mean_delta < opts.tol_msg:
            converged = True
            break
        # stall guard for plain sweeps only: wandering messages (a
        # parameter-belief limit cycle on structureless data) would otherwise
        # burn the whole sweep budget; penalized sweeps legitimately spend
        # long plateaus collapsing redundant clusters
        if penalty_mode is None:
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


def _soft_init_params(graph, labels, k, confidence=0.45):
    """Closed-form parameters from softened spectral responsibilities.

    Mixing the hard assignment with the uniform distribution keeps redundant
    clusters' affinity rows nearly homogeneous at the start: the hard-stat
    affinities would imprint the sampling noise of the initial partition and
    lock the cluster count near its initial value.  The mix is a balance:
    much softer and the proportion dynamics merge true clusters before the
    likelihood separates them, much harder and clone splits of true clusters
    survive to lock-in.
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
    return params


def _fit_driver(graph, k_init, seed, opts, method):
    """Alternate BP sweeps with closed-form M-steps until the affinities settle."""
    from .spectral import SpectralConfig, spectral_init

    if graph.m == 0:
        return _trivial_fit(graph, seed, method, "graph has no edges; returning K=1 fit")

    ss = np.random.SeedSequence(seed)
    seed_spectral, seed_msg, seed_sweep = ss.spawn(3)
    labels0, hard_params = spectral_init(
        graph, SpectralConfig(k=k_init, seed=seed_spectral.generate_state(1)[0])
    )
    if opts.penalty != "none":
        params = _soft_init_params(graph, labels0, k_init)
    else:
        params = hard_params
    state = BeliefState(graph, k_init, np.random.default_rng(seed_msg))
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
