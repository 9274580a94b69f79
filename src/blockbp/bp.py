"""Belief propagation for sparse block models, plain and penalty-augmented.

Each BeliefState stores an edge's two messages side by side, i->j at an
even row and j->i at the odd row after it, so the reverse of message e is
e ^ 1, and sweeps over the colour classes of a greedy proper colouring of
its graph.  That layout depends on the graph alone: `MessageLayout` builds
it once per Graph, and every BeliefState on the graph shares it read-only.
It records which messages come into which node as one scipy CSR matrix
(nodes x messages), and each colour class keeps its rows of it.  A sweep
visits the colour classes in an order the sweep RNG shuffles afresh each
sweep.  Nodes of one class share no edge, so every message a class reads
comes from other classes, and the whole class gathers its in-messages,
sums them per node in one sparse product, updates its beliefs and writes
its out-messages in a few array operations.  A class update keeps h live
and leaves zzbar_cache as the sweep started (the cache rule is stated once,
in `fabbp_run`).  Unconnected-node factors are folded into a shared
external field, keeping a sweep at O(m K^2).  The moment caches and the
criteria read the pairwise edge beliefs only through one (m, K)
contraction, `BeliefState.edge_contraction`; the (m, K, K) beliefs of
`BeliefState.edge_beliefs` are kept as the tests' reference.

The fit method picks the penalty mode of its sweeps, and the mode sets
everything about a sweep that is not a stopping value:
  "none"  plain sum-product messages; the prior is log gamma and no cluster
          is pruned (`fixed_k_fit`).  New messages replace the old ones
          until a sweep fails to shrink the mean message change; from then
          on, for the rest of the fit, each new message is mixed with the
          old one, PLAIN_DAMPING of the old kept (damping only messages
          that oscillate: Murphy, Weiss & Jordan, UAI 1999),
  "fab"   messages carry the smoothed cluster- and bicluster-size penalties
          (`f2ab_fit`),
  "fic"   only the cluster-size penalty, scaled by K(K+1)/2 (`fic_bp_fit`).
Both penalized modes read the live proportions h/n as their prior, replace
each message outright, and prune a cluster after any colour class that
leaves its expected proportion below 0.1/n.

Every fit starts from the spectral partition: `_soft_init` turns it into
node beliefs and the first params, and `BeliefState(graph, beliefs, params)`
sets every message i->j to b_i.  Penalized fits mix the partition with the
uniform distribution (confidence START_CONFIDENCE) so that redundant
clusters can still merge; plain fits never prune and take it one-hot.

A fit alternates sweep runs with closed-form M-steps and spends at most
BPOptions.max_sweeps sweeps in all: each run gets the sweeps its
predecessors left.  Each level has one stop rule whatever the mode: a run
stops once its messages settle or at its cap ("tol" or "cap"), and the fit
once its affinities settle, when the budget is spent or after max_outer
M-steps (FitResult.stop "tol", "budget" or "max_outer").
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import criteria
from .graph import RNG_ALGORITHM
from .model import (
    EPS_P,
    Moments,
    Params,
    belief_moments,
    clamped,
    m_step,
    pair_mass,
)

PRUNE_SCALE = 0.1  # prune cluster k when E[zbar_k] < PRUNE_SCALE / n
PLAIN_DAMPING = 0.5  # share of the old message a plain update keeps once damped
START_CONFIDENCE = 0.45  # weight of the spectral label in a penalized fit's start


class MessageUnderflowError(RuntimeError):
    """Every component of a message update vanished."""

    def __init__(self, i, j):
        super().__init__(f"message underflow on edge {i}->{j}")
        self.edge = (i, j)


@dataclass
class BPOptions:
    """The stopping rule of a fit: the four `blockbp fit` stopping flags.

    max_sweeps is the sweep budget of a whole fit (of one `fabbp_run` call
    when passed to it directly).  A sweep run stops once the mean absolute
    message change per edge is at most tol_msg, or when the sweeps left run
    out; the alternation of sweep runs and M-steps stops once the largest
    affinity change is at most tol_pi, when the budget is spent, or after
    max_outer outer iterations (a zero tolerance stops at an exact fixed
    point).  Everything else is set by the fit method through its penalty
    mode: the penalized modes ("fab", "fic") read the live proportions as
    their prior, are undamped and prune; the plain mode ("none") reads
    gamma, never prunes, and is damped by PLAIN_DAMPING from its first sweep
    that does not shrink the mean message change to the end of the fit.  Out-of-range values, and caps that are
    not integers, raise ValueError naming the field.
    """

    tol_msg: float = 1e-2
    tol_pi: float = 1e-8
    max_sweeps: int = 500
    max_outer: int = 200

    def __post_init__(self):
        for name in ("tol_msg", "tol_pi"):
            value = getattr(self, name)
            if not value >= 0.0:  # NaN fails the comparison as well
                raise ValueError(f"{name} must be >= 0, got {value}")
        for name in ("max_sweeps", "max_outer"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def external_field(params, zbar, n):
    """Log-domain external field standing in for all unconnected-node factors."""
    return -n * (params.pi @ np.asarray(zbar, dtype=np.float64))


def _normalize_rows(w, edge_of):
    """Scale nonnegative rows to sum 1, in place.

    A row whose sum is not finite and positive raises MessageUnderflowError
    naming the edge edge_of(row) returns.  One test on the smallest sum and
    the total clears the common case; the rows are checked one by one only
    when it fails.
    """
    # a product with ones: numpy sums a short last axis one row at a time
    total = w @ np.ones(w.shape[1])
    if total.size and not (total.min() > 0.0 and np.isfinite(total.sum())):
        ok = np.isfinite(total) & (total > 0.0)
        if not ok.all():
            raise MessageUnderflowError(*edge_of(int(np.argmin(ok))))
    w /= total[:, None]
    return w


def _greedy_colouring(ptr, neighbours):
    """Proper colouring of the message graph: each node, largest degree first,
    takes the smallest colour no coloured neighbour holds.  Node v's
    neighbours are neighbours[ptr[v]:ptr[v + 1]] (a CSR row); with the
    argsort of the n degrees it is O(m + n log n)."""
    order = np.argsort(-np.diff(ptr), kind="stable").tolist()
    ptr, neighbours = ptr.tolist(), neighbours.tolist()
    colour = [-1] * (len(ptr) - 1)
    for v in order:
        used = {colour[u] for u in neighbours[ptr[v] : ptr[v + 1]]}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    return np.array(colour, dtype=np.int64)


@dataclass(frozen=True)
class InLists:
    """The in-messages of a set of nodes, grouped by node.

    ids lists the messages into nodes[0], then those into nodes[1], and so
    on; incidence is the CSR matrix (nodes x ids) with a one where message
    ids[c] comes into nodes[r], so a node without in-messages is an empty
    row.  owner maps each id to its row r; src holds each id's sender, and
    id ^ 1 is the out-message that answers it.
    """

    nodes: np.ndarray
    ids: np.ndarray
    owner: np.ndarray
    src: np.ndarray
    incidence: sp.csr_matrix

    def segment_sum(self, values):
        """Per-node sums of values (one row per id); zero rows for nodes without messages."""
        return self.incidence @ values


class MessageLayout:
    """Where a graph's messages sit and who reads them; the same for every
    K, so `BeliefState` takes it from `graph.derived(MessageLayout)` and
    the fits on one Graph build it once.

    Messages exist for both orientations of every non-self-loop training
    edge, the r-th such edge row (i, j) carrying i->j at row 2r and j->i at
    row 2r + 1; `src` holds each message's sender.  `into` is the CSR
    incidence matrix (nodes x message ids) with a one where a message comes
    into a node: row v lists v's in-messages, one per non-self-loop edge at
    v, in message order.  `self_loops` holds the self-loop edge rows, which
    contribute to statistics but carry no message.  `classes` holds the
    InLists of the colour classes of a greedy proper colouring (largest
    degree first).  Every array is read-only: fits share the layout.
    """

    def __init__(self, graph):
        pairs = graph.edges[graph.edges[:, 0] != graph.edges[:, 1]]
        self.src = pairs.reshape(-1)
        dst = pairs[:, ::-1].reshape(-1)
        self.into = sp.csr_matrix(
            (np.ones(dst.size), (dst, np.arange(dst.size))), shape=(graph.n, dst.size)
        )
        self.self_loops = graph.edges[graph.edges[:, 0] == graph.edges[:, 1]]
        for a in (self.src, self.self_loops, self.into.data, self.into.indices, self.into.indptr):
            a.setflags(write=False)
        colour = _greedy_colouring(self.into.indptr, self.src[self.into.indices])
        by_colour = np.argsort(colour, kind="stable")
        bounds = np.cumsum(np.bincount(colour))[:-1]
        self.classes = tuple(self.in_lists(nodes) for nodes in np.split(by_colour, bounds))

    def in_lists(self, nodes):
        """Read-only InLists of the given node-index array: its rows of `into`."""
        nodes = np.array(nodes, dtype=np.int64)
        rows = self.into[nodes]
        ids = rows.indices
        owner = np.repeat(np.arange(nodes.size), np.diff(rows.indptr))
        incidence = sp.csr_matrix(
            (rows.data, np.arange(ids.size), rows.indptr), shape=(nodes.size, ids.size)
        )
        lists = InLists(nodes, ids, owner, self.src[ids], incidence)
        for a in (nodes, ids, owner, lists.src, incidence.data, incidence.indices, incidence.indptr):
            a.setflags(write=False)
        return lists


class BeliefState:
    """Mutable per-run state: directed messages, node beliefs, moment caches.

    Built from an (n, K) belief matrix: node i's belief is row i, every
    message i->j starts as b_i, and the moment caches are computed exactly
    at the affinities of `params`; K is the matrix's column count.  Owned
    by exactly one fit run; the underlying Graph and its `MessageLayout`
    (`layout`) are shared read-only.  `fabbp_run` states when the caches
    are live and when they are exact.  `damping` is the share of the old
    message a plain update keeps: 0 until `fabbp_run` turns it on.
    """

    def __init__(self, graph, beliefs, params):
        self.graph = graph
        self.n = graph.n
        self.layout = graph.derived(MessageLayout)
        self.m_directed = self.layout.src.size

        self.node_belief = np.array(beliefs, dtype=np.float64)
        self.messages = self.node_belief[self.layout.src]
        self.damping = 0.0
        self.refresh_moments(params)

    # -- views ---------------------------------------------------------------

    @property
    def k_active(self):
        return self.node_belief.shape[1]

    @property
    def zbar_cache(self):
        return self.h / self.n

    def neighbor_belief_sum(self, node, lists=None):
        """Summed beliefs of a node's neighbours; one row per node for an array.

        `lists`, when given, is the InLists of the node array.
        """
        if lists is None:
            lists = self.layout.in_lists(np.atleast_1d(node))
        out = lists.segment_sum(self.node_belief.take(lists.src, axis=0))
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
            t = self.messages[0::2, :, None] * params.pi
            t *= self.messages[1::2, None, :]
            t /= np.clip(t.sum(axis=(1, 2), keepdims=True), 1e-300, None)
            out[nonself] = t
        out[~nonself] = self.node_belief[edges[~nonself, 0], :, None] * np.eye(k)
        return out

    def edge_messages(self):
        """(F, R): the forward and reverse message of each message-carrying
        edge row, as contiguous copies of the even and odd message rows
        (strided views would move the rounding of the GEMMs that read them)."""
        return self.messages[0::2].copy(), self.messages[1::2].copy()

    def edge_contraction(self, params):
        """Per-edge normalisers and the summed pairwise belief of all edge rows.

        For edge row e with forward message f_e and reverse message r_e (see
        `edge_messages`) the pairwise belief is b_e = f_e r_e^T * pi / z_e
        with z_e = f_e^T pi r_e; a self-loop row (i, i) holds diag(b_i), as
        in `edge_beliefs`.  Returns (z, s): z holds z_e per message-carrying
        edge row, clipped below at 1e-300, and s is the sum of the beliefs
        over every graph.edges row: pi * ((F / z)^T R), one GEMM, without
        the (m, K, K) beliefs, plus the self-loop diagonal.
        """
        mu_f, mu_r = self.edge_messages()
        z = np.clip(((mu_f @ params.pi) * mu_r).sum(axis=1), 1e-300, None)
        s = params.pi * ((mu_f / z[:, None]).T @ mu_r)
        s.flat[:: s.shape[0] + 1] += self.node_belief[self.layout.self_loops[:, 0]].sum(axis=0)
        return z, s

    def refresh_moments(self, params):
        """Exact recomputation of both moment caches from current beliefs."""
        self.h = self.node_belief.sum(axis=0)
        _, s = self.edge_contraction(params)
        self.zzbar_cache = (s + s.T) / self.n**2

    def moments(self):
        """Fresh mask-aware Moments from the current beliefs and caches."""
        n = self.n
        masked_mass = pair_mass(self.graph.masked_index, self.node_belief, n)
        return Moments(self.h / n, self.zzbar_cache.copy(), n, masked_mass=masked_mass)

    def map_assignment(self):
        return np.argmax(self.node_belief, axis=1)

    # -- pruning ---------------------------------------------------------------

    def prune_clusters(self, params):
        """Drop clusters whose cached proportion fell below the threshold;
        the sweep calls it once some cluster has.

        The largest cluster is always preserved (h sums to n, so only a state
        with more than 10 n clusters can leave every one below PRUNE_SCALE).
        Returns the sliced (gamma, pi) working parameters.
        """
        keep = np.flatnonzero(self.h >= PRUNE_SCALE)  # on h = n * zbar
        top = int(np.argmax(self.h))
        if top not in keep:
            keep = np.sort(np.append(keep, top))

        self.messages = self.messages[:, keep]
        norm = np.clip(self.messages.sum(axis=1, keepdims=True), 1e-300, None)
        self.messages /= norm
        self.node_belief = self.node_belief[:, keep]
        norm = np.clip(self.node_belief.sum(axis=1, keepdims=True), 1e-300, None)
        self.node_belief /= norm
        self.h = self.node_belief.sum(axis=0)
        self.zzbar_cache = self.zzbar_cache[np.ix_(keep, keep)]
        return Params(params.gamma[keep], params.pi[np.ix_(keep, keep)])


# -- penalties ----------------------------------------------------------------


def compute_penalty(state, node, mode="fab", lists=None):
    """Smoothed marginal-likelihood penalty (K,) for the messages of one node.

    `node` may be a node-index array: the penalty then holds one row per
    node.  It is built from the cluster and bicluster pseudo-counts t and T
    excluding the node itself, formed from the moment caches (which the
    closed-form estimators equal at every update of the alternation); both
    are clamped below at 1 so the penalty stays finite and nonnegative in
    degenerate states.  Mode "fic" keeps only the cluster-size term, scaled
    by K(K+1)/2.  `lists`, when given, is the InLists of the node array.
    """
    # cluster and bicluster masses enter through the caches (h = n * E[zbar],
    # n^2 * E[zzbar]); h is live, so a shrinking cluster's penalty grows at
    # the next colour class, while zzbar_cache holds its sweep-start value
    # (see fabbp_run)
    n = state.n
    b = state.node_belief.take(node, axis=0)
    t = state.h - b
    t += 1.0
    np.maximum(t, 1.0, out=t)
    r1_term = 0.5 * np.log1p(1.0 / t)
    if mode == "fic":
        k = state.k_active
        return (k * (k + 1) / 2.0) * r1_term
    nbr = state.neighbor_belief_sum(node, lists)
    big_t = np.multiply(b[..., :, None], nbr[..., None, :])
    np.subtract(n * n * state.zzbar_cache + 1.0, big_t, out=big_t)
    np.maximum(big_t, 1.0, out=big_t)
    terms = np.divide(nbr[..., None, :], big_t)
    np.log1p(terms, out=terms)
    # the last-axis sum as one product with ones (see _normalize_rows)
    k = terms.shape[-1]
    return r1_term + 0.5 * (terms.reshape(-1, k) @ np.ones(k)).reshape(terms.shape[:-1])


# -- sweeps ----------------------------------------------------------------------


def _update_class(state, cls, params, penalty):
    """New beliefs and out-messages for every node of one colour class.

    The class shares no edge, so all the messages it reads come from other
    classes; h is read as it stood when the class started and then takes
    the class's change, and zzbar_cache is read and left as it is (see
    `fabbp_run`).  `penalty` is the sweep's penalty mode (see the module
    docstring); a plain update keeps the share state.damping of each old
    message.  Returns the summed absolute message change.
    """
    n, pi = state.n, params.pi
    plain = penalty == "none"
    out = cls.ids ^ 1  # out-message i->j answers in-message j->i
    in_msgs = state.messages.take(cls.ids, axis=0)
    in_vals = in_msgs @ pi
    with np.errstate(divide="ignore"):  # a pruned message row can be all zero
        log_in = np.log(in_vals)
    zbar = state.zbar_cache
    prior = params.gamma if plain else zbar
    base = np.log(np.maximum(prior, EPS_P)) + cls.segment_sum(log_in)
    base += external_field(params, zbar, n)
    if not plain:
        base -= compute_penalty(state, cls.nodes, penalty, cls)

    # each finite row of weights peaks at 1; out-message i->j is node i's
    # weights without the factor of in-message j->i, so every such row sums
    # to at least 1 (in_vals <= 1); the row max is taken down a contiguous
    # (K, nodes) copy, for the reason _normalize_rows sums with a product
    weights = np.exp(base - np.ascontiguousarray(base.T).max(axis=0)[:, None])
    new_msgs = _normalize_rows(
        weights.take(cls.owner, axis=0) / in_vals,
        lambda r: (int(state.layout.src[out[r]]), int(cls.src[r])),
    )
    new_belief = _normalize_rows(weights, lambda r: (int(cls.nodes[r]),) * 2)
    old_msgs = state.messages.take(out, axis=0)
    if plain and state.damping:
        new_msgs *= 1.0 - state.damping
        new_msgs += state.damping * old_msgs
    deltas = np.subtract(new_msgs, old_msgs, out=old_msgs)
    state.messages[out] = new_msgs
    state.h += (new_belief - state.node_belief.take(cls.nodes, axis=0)).sum(axis=0)
    state.node_belief[cls.nodes] = new_belief
    return float(np.abs(deltas).sum())


def fabbp_run(params, state, opts, rng, penalty):
    """Run penalized (or plain) BP sweeps until the messages settle.

    Each sweep visits the colour classes of state.layout.classes in an
    order drawn afresh from rng, updating all beliefs and outgoing messages
    of a class at once (nodes of a class share no edge, so the class update equals the
    node-by-node one).  The moment caches follow one rule in every mode:
    each class update adds its belief change to h, which the live prior,
    the external field and the cluster-size penalty read, and writes no
    other cache, so zzbar_cache keeps its sweep-start value within a sweep;
    penalized runs recompute both caches exactly at every sweep boundary,
    and every run recomputes both once it ends, so it returns both exact.
    `penalty` is the penalty mode:
    "fab" and "fic" prune low-mass clusters after each class and never
    damp; "none" never prunes, and its first sweep whose mean message
    change is not below the previous sweep's sets state.damping to
    PLAIN_DAMPING, which stays set for the state's later runs (see the
    module docstring).  The sweep reads the affinities
    clamped into [EPS_P, 1 - EPS_P]; the returned params are the given
    ones, sliced to the surviving clusters.  The run stops by one rule in
    every mode, and info["stop"] names the reason: "tol" once the summed
    absolute message change per sweep, normalized by the edge count, is at
    most opts.tol_msg; "cap" after opts.max_sweeps sweeps.
    Returns (state, params, info), info holding "sweeps", "mean_delta",
    "stop" and "damped" (whether the run ended damped).
    """
    if penalty not in ("none", "fab", "fic"):
        raise ValueError(f"unknown penalty mode {penalty!r}")
    plain = penalty == "none"
    sweep_params = clamped(params)
    m_edges = max(state.m_directed // 2, 1)

    sweeps = 0
    mean_delta = np.inf
    stop = "cap"
    for _ in range(opts.max_sweeps):
        sweeps += 1
        total_delta = 0.0
        classes = state.layout.classes
        for c in rng.permutation(len(classes)):
            total_delta += _update_class(state, classes[c], sweep_params, penalty)
            if not plain and state.h.min() < PRUNE_SCALE:
                params = state.prune_clusters(params)
                sweep_params = clamped(params)

        if plain:
            state.h = state.node_belief.sum(axis=0)
        else:
            state.refresh_moments(sweep_params)
        last_delta, mean_delta = mean_delta, total_delta / m_edges
        if plain and mean_delta >= last_delta:
            state.damping = PLAIN_DAMPING  # for the rest of the fit
        if mean_delta <= opts.tol_msg:
            stop = "tol"
            break

    if plain:
        state.refresh_moments(sweep_params)
    damped = plain and state.damping > 0.0
    info = {"sweeps": sweeps, "mean_delta": mean_delta, "stop": stop, "damped": damped}
    return state, params, info


# -- full fits ---------------------------------------------------------------------


@dataclass
class FitResult:
    """Outcome of a fit: selected model size, parameters, beliefs, trace.

    `stop` is why the fit ended: "tol" (the affinities settled within
    tol_pi), "budget" (max_sweeps sweeps spent) or "max_outer".  It is None
    only for a fit.json written before the reason was recorded whose fit did
    not settle; a loaded file keeps whatever reason it stored.
    """

    selected_k: int
    params: Params
    node_marginals: np.ndarray
    map_assignment: np.ndarray
    stop: str | None
    trace: list
    criteria: criteria.CriterionReport
    n: int
    seed: int
    method: str
    rng_algorithm: str = RNG_ALGORITHM
    warnings: list = field(default_factory=list)
    node_ids: list | None = None  # original tokens when parsed from an edge list


def _soft_init(graph, labels, k, confidence=START_CONFIDENCE):
    """Spectral responsibilities, mixed with the uniform distribution, and
    the M-step of their product-form moments (`model.belief_moments`).

    Each node's row is confidence on its label plus (1 - confidence) / k on
    every cluster.  Penalized fits use START_CONFIDENCE (0.45): the mix keeps
    redundant clusters' affinity rows nearly homogeneous at the start, where
    the hard-stat affinities would imprint the sampling noise of the initial
    partition and lock the cluster count near its initial value.  The mix is
    a balance: much softer and the proportion dynamics merge true clusters
    before the likelihood separates them, much harder and clone splits of
    true clusters survive to lock-in.  Plain fits prune nothing, so they use
    confidence 1.0: one-hot rows and the M-step of the hard partition.
    Returns (params, beliefs).
    """
    n = graph.n
    b = np.full((n, k), (1.0 - confidence) / k)
    b[np.arange(n), labels] += confidence
    params, _ = m_step(belief_moments(graph, b))
    return params, b


def _fit_driver(graph, k_init, seed, opts, method, penalty):
    """Alternate BP sweeps in the given penalty mode with closed-form M-steps
    until the affinities settle or the fit's sweep budget is spent.

    opts.max_sweeps bounds the sweeps of the whole fit: each `fabbp_run`
    call is passed the sweeps still left as its cap.  The fit stops once
    the M-step's largest affinity change is at most opts.tol_pi ("tol"),
    when no sweep is left ("budget"), or after opts.max_outer iterations
    ("max_outer"), by the same rule in every penalty mode.  The reason goes
    into FitResult.stop.

    Each outer iteration appends one trace entry with its index (`outer`),
    the sweep count, final mean message change and stop reason of its sweep
    run and whether the run ended damped (`sweeps`, `mean_delta`, `stop`,
    `damped`; always false in penalized modes), the surviving cluster count
    (`k_active`) and, when K held through the iteration, the largest
    affinity change of the M-step (`delta_pi`).  The criteria, the lower
    bound among them, are computed once, for the returned state.

    Every fit starts from the spectral partition: `_soft_init` gives the
    beliefs and the first params, and the BeliefState built from them sets
    every message.  Penalized fits soften the partition (START_CONFIDENCE) so
    that redundant clusters can still merge; plain fits keep K fixed and
    take it one-hot (confidence 1.0), which spares them the sweeps a random
    start spends finding the partition.  Input adjustments (no edges, K
    above n) go into `FitResult.warnings`.
    """
    from .spectral import spectral_init

    if k_init < 1:
        raise ValueError(f"cluster count must be >= 1, got {k_init}")
    opts = opts if opts is not None else BPOptions()
    fit_warnings = []
    if graph.m == 0:
        fit_warnings.append("graph has no edges; returning K=1 fit")
        k_init = 1
    elif k_init > graph.n:
        fit_warnings.append(f"cluster count {k_init} exceeds n={graph.n}; clamped to {graph.n}")
        k_init = graph.n

    # three children, the second unused, so the sweep order keeps its seed
    seed_spectral, _, seed_sweep = np.random.SeedSequence(seed).spawn(3)
    labels0 = spectral_init(graph, k_init, seed_spectral.generate_state(1)[0])
    confidence = 1.0 if penalty == "none" else START_CONFIDENCE
    params, beliefs = _soft_init(graph, labels0, k_init, confidence)
    state = BeliefState(graph, beliefs, params)
    sweep_rng = np.random.default_rng(seed_sweep)

    trace = []
    budget = opts.max_sweeps
    stop = "max_outer"
    for outer in range(opts.max_outer):
        k_before = state.k_active
        run_opts = replace(opts, max_sweeps=budget)  # the sweeps left
        state, params, info = fabbp_run(params, state, run_opts, sweep_rng, penalty)
        budget -= info["sweeps"]
        moments = state.moments()
        new_params, _ = m_step(moments)
        entry = {"outer": outer, **info, "k_active": state.k_active}
        if state.k_active == k_before:
            delta_pi = float(np.max(np.abs(new_params.pi - params.pi)))
            entry["delta_pi"] = delta_pi
        else:
            delta_pi = None
        trace.append(entry)
        params = new_params
        if delta_pi is not None and delta_pi <= opts.tol_pi:
            stop = "tol"
            break
        if budget == 0:
            stop = "budget"
            break

    report = criteria.criterion_report(graph, state, params)
    return FitResult(
        selected_k=state.k_active,
        params=params,
        node_marginals=state.node_belief.copy(),
        map_assignment=state.map_assignment(),
        stop=stop,
        trace=trace,
        criteria=report,
        n=graph.n,
        seed=seed,
        method=method,
        warnings=fit_warnings,
        node_ids=graph.node_ids,
    )


def f2ab_fit(graph, k_max, seed, opts=None):
    """One-pass fit: start at k_max, let the penalties prune redundant clusters."""
    return _fit_driver(graph, k_max, seed, opts, "f2ab", "fab")


def fic_bp_fit(graph, k_max, seed, opts=None):
    """One-pass fit with the cluster-size-only penalty scaled by K(K+1)/2."""
    return _fit_driver(graph, k_max, seed, opts, "fic-bp", "fic")


def fixed_k_fit(graph, k, seed, opts=None):
    """Plain BP/EM fit at a fixed cluster count (no penalties, no pruning)."""
    return _fit_driver(graph, k, seed, opts, "fixed-k", "none")


# -- serialization -------------------------------------------------------------


def fit_result_to_json(result):
    payload = {
        "selected_k": result.selected_k,
        "n": result.n,
        "seed": result.seed,
        "method": result.method,
        "rng_algorithm": result.rng_algorithm,
        "stop": result.stop,
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


def _loaded_array(obj, name, shape, dtype=np.float64):
    """Field `name` of fit.json as an array of the given shape."""
    try:
        value = np.array(obj[name], dtype=dtype)
    except (TypeError, ValueError):
        value = None
    if value is None or value.shape != shape:
        raise ValueError(f"fit.json: {name} must be an array of shape {shape}")
    return value


def fit_result_from_json(text):
    """FitResult from fit.json text.

    Files written before the stop reason was recorded carry a "converged"
    flag instead; a converged fit loads with stop "tol", any other with
    None.  A field of the wrong type or shape for the file's selected_k and
    n, a MAP label outside 0..selected_k - 1, node ids that are not n
    strings, or criteria with missing or unknown keys raise ValueError
    naming the field.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("fit.json must hold a JSON object")
    for name in ("selected_k", "n", "seed"):
        if not isinstance(obj[name], int):
            raise ValueError(f"fit.json: {name} must be an integer, got {obj[name]!r}")
    k, n = obj["selected_k"], obj["n"]
    gamma, pi = _loaded_array(obj, "gamma", (k,)), _loaded_array(obj, "pi", (k * k,))
    labels = _loaded_array(obj, "map_assignment", (n,), np.int64)
    if not np.all((labels >= 0) & (labels < k)):
        raise ValueError(f"fit.json: map_assignment entries must lie in 0..{k - 1}")
    node_ids = obj.get("node_ids")
    if node_ids is not None and not (
        isinstance(node_ids, list)
        and len(node_ids) == n
        and all(isinstance(t, str) for t in node_ids)
    ):
        raise ValueError(f"fit.json: node_ids must be null or a list of {n} strings")
    try:
        report = criteria.CriterionReport(**obj["criteria"])
    except TypeError as exc:
        raise ValueError(f"fit.json: criteria: {exc}") from exc
    return FitResult(
        selected_k=k,
        params=Params(gamma, pi.reshape(k, k)),
        node_marginals=_loaded_array(obj, "node_marginals", (n, k)),
        map_assignment=labels,
        stop=obj.get("stop", "tol" if obj.get("converged") else None),
        trace=obj["trace"],
        criteria=report,
        n=n,
        seed=obj["seed"],
        method=obj["method"],
        rng_algorithm=obj.get("rng_algorithm", RNG_ALGORITHM),
        warnings=obj.get("warnings", []),
        node_ids=node_ids,
    )
