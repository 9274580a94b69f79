"""Sparse undirected graphs: edge-list I/O, block-model generation, pair masking.

Node pairs are unordered with i <= j throughout; self-loops are allowed and
count once, so a graph on n nodes has n*(n+1)/2 possible pairs.  Masking
removes pairs from the training edges and the likelihood accounting while
recording the observed bit for held-out evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RNG_ALGORITHM = "pcg64"  # numpy default_rng; recorded in outputs for reproducibility


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based offending line number."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


def _index_pairs(pairs, what):
    """Node pairs as a (P, 2) int64 array.

    A pair holding a value that is not a whole number raises ValueError
    naming the first such pair (`what` says what it is), instead of being
    truncated; whole-number values of any numeric dtype pass.
    """
    raw = np.asarray(pairs).reshape(-1, 2)
    if raw.dtype.kind in "iu":
        return raw.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
        arr = raw.astype(np.int64)
    bad = (arr != raw).any(axis=1)
    if bad.any():
        a, b = raw[np.argmax(bad)].tolist()
        raise ValueError(f"{what} ({a}, {b}) holds a value that is not a whole number")
    return arr


def _canonical_pairs(pairs):
    """Deduplicated (i, j) pairs with i <= j, sorted lexicographically."""
    if len(pairs) == 0:
        return np.empty((0, 2), dtype=np.int64)
    arr = _index_pairs(pairs, "edge")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    arr = np.stack([lo, hi], axis=1)
    arr = np.unique(arr, axis=0)
    return arr


def _message_degrees(graph):
    nonself = graph.edges[graph.edges[:, 0] != graph.edges[:, 1]]
    degrees = np.bincount(nonself.reshape(-1), minlength=graph.n)
    degrees.setflags(write=False)
    return degrees


class Graph:
    """Immutable sparse undirected graph with an optional held-out pair mask.

    Parameters
    ----------
    n : int
        Number of nodes; endpoints must lie in [0, n).
    edges : array-like of (i, j)
        Training edges.  Deduplicated and canonicalized to i <= j.
    masked : dict[(i, j), int], optional
        Held-out pairs mapped to their observed bit (1 = edge was present).
        Masked pairs must not appear in `edges`.
    node_ids : list of str, optional
        Original node identifiers in index order (from edge-list parsing).

    Attributes
    ----------
    masked_index : (P, 2) int64 array
        The keys of `masked` as sorted, read-only rows (i, j) with i <= j,
        built once at construction.  Every held-out statistic reads the
        pairs from here through `model.pair_mass`.

    Structures that depend only on the graph are built on first use and
    kept for its lifetime (see `derived`): the degrees, the message layout
    of `bp.MessageLayout` and the spectral operator of `spectral_init`.  So
    the fits of a K sweep on one Graph build them once.
    """

    __slots__ = ("n", "edges", "masked", "masked_index", "node_ids", "_derived")

    def __init__(self, n, edges, masked=None, node_ids=None):
        if int(n) != n:
            raise ValueError(f"node count {n!r} is not a whole number")
        n = int(n)
        if n <= 0:
            raise ValueError("graph needs at least one node")
        edges = _canonical_pairs(edges)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range [0, n)")
        masked = dict(masked) if masked else {}
        pairs = _index_pairs(list(masked), "masked pair")
        i, j = pairs[:, 0], pairs[:, 1]
        bad = (i < 0) | (i > j) | (j >= n)
        if bad.any():
            a, b = pairs[np.argmax(bad)]
            raise ValueError(f"masked pair ({a}, {b}) out of range or unordered")
        if not set(masked.values()) <= {0, 1}:
            raise ValueError("masked observation must be 0 or 1")
        # pairs as flat keys i*n + j: lexicographic order, one membership test
        keys = i * n + j
        overlap = np.isin(keys, edges[:, 0] * n + edges[:, 1])
        if overlap.any():
            first = pairs[overlap][np.argsort(keys[overlap])][:3]
            raise ValueError(
                f"masked pairs present in training edges: {list(map(tuple, first.tolist()))}"
            )
        self.n = n
        self.edges = edges
        self.edges.setflags(write=False)
        self.masked = masked
        self.masked_index = pairs[np.argsort(keys)]
        self.masked_index.setflags(write=False)
        self.node_ids = list(node_ids) if node_ids is not None else None
        self._derived = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self):
        """Number of training edges (self-loops count once)."""
        return int(self.edges.shape[0])

    @property
    def num_pairs(self):
        """Size of the unordered pair universe n*(n+1)/2."""
        return self.n * (self.n + 1) // 2

    def derived(self, build):
        """build(self), computed on the first call with this build and kept.

        The value must depend on the graph alone and be read-only (arrays
        with the writeable flag off), since every fit on the graph, in any
        thread, shares it.  Two threads may both build it; all callers then
        get the first value stored.
        """
        value = self._derived.get(build)
        if value is None:
            value = self._derived.setdefault(build, build(self))
        return value

    @property
    def degrees(self):
        """Message-passing degrees: neighbor counts excluding self-loops (read-only)."""
        return self.derived(_message_degrees)

    def degree_sum(self):
        return int(self.degrees.sum())

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, masked={len(self.masked)})"


@dataclass
class PlantedAssignment:
    """Ground-truth cluster labels used by synthetic experiments."""

    labels: np.ndarray
    k_true: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-d array")
        if self.k_true < 1:
            raise ValueError("k_true must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k_true):
            raise ValueError("label out of range [0, k_true)")


# -- edge-list text format -------------------------------------------------


def _records(text, width, expected):
    """(line number, tokens) of each data line of text, numbered from 1.

    Blank lines and lines whose first token starts with '#' are skipped.  A
    data line without `width` whitespace-separated tokens raises
    EdgeListParseError with the message `expected`, formatted with the
    token count (found) and the line (raw).
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != width:
            raise EdgeListParseError(expected.format(found=len(tokens), raw=raw), lineno)
        yield lineno, tokens


def parse_edge_list(text):
    """Parse whitespace-separated edge-list text into a Graph.

    Each non-comment line holds two node identifiers (arbitrary tokens).
    Tokens map to dense 0-based indices in first-appearance order.  Lines
    starting with '#' and blank lines are skipped.  Duplicate edges collapse.
    """
    ids = {}  # token -> index, in first-appearance order
    pairs = [
        (ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids)))
        for _, (a, b) in _records(text, 2, "expected two tokens, found {found}: {raw!r}")
    ]
    if not pairs:
        raise EdgeListParseError("no edges")
    return Graph(len(ids), pairs, node_ids=list(ids))


def serialize_edge_list(graph):
    """Canonical edge-list text (sorted pairs, dense indices)."""
    lines = [f"{i} {j}" for i, j in graph.edges]
    return "\n".join(lines) + "\n"


def serialize_labels(labels):
    labels = np.asarray(labels, dtype=np.int64)
    return "\n".join(f"{i} {int(c)}" for i, c in enumerate(labels)) + "\n"


def _ints(tokens, lineno):
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise EdgeListParseError(f"expected integers, found {' '.join(tokens)!r}", lineno) from None


def parse_labels(text):
    entries = {}
    for lineno, tokens in _records(text, 2, "expected 'node_id cluster_index'"):
        node, cluster = _ints(tokens, lineno)
        if node < 0 or cluster < 0:
            raise EdgeListParseError("node ids and cluster indices must be nonnegative", lineno)
        if node in entries:
            raise EdgeListParseError(f"second label for node {node}", lineno)
        entries[node] = cluster
    if not entries:
        raise EdgeListParseError("no labels")
    # ids must be exactly 0..len-1, so any gap shows below len(entries)
    missing = [i for i in range(len(entries)) if i not in entries]
    if missing:
        raise EdgeListParseError(f"no label for node {missing[0]}")
    return np.array([entries[i] for i in range(len(entries))], dtype=np.int64)


def serialize_masked(masked):
    """Masked-pair record: one 'i j observed_bit' line per held-out pair."""
    lines = [f"{i} {j} {bit}" for (i, j), bit in sorted(masked.items())]
    return "\n".join(lines) + "\n"


def parse_masked(text):
    masked = {}
    for lineno, tokens in _records(text, 3, "expected 'i j observed_bit'"):
        i, j, bit = _ints(tokens, lineno)
        if min(i, j) < 0:
            raise EdgeListParseError(f"negative node id in pair ({i}, {j})", lineno)
        if bit not in (0, 1):
            raise EdgeListParseError(f"observed bit must be 0 or 1, found {bit}", lineno)
        pair = (min(i, j), max(i, j))
        if pair in masked:
            raise EdgeListParseError(f"pair {pair} listed twice", lineno)
        masked[pair] = bit
    return masked


# -- pair-universe indexing ------------------------------------------------


def _pair_from_index(r, n):
    """Decode flat indices over {(i, j) : 0 <= i <= j < n} to pair arrays (i, j)."""
    r = np.asarray(r, dtype=np.int64)

    def start(i):  # row i starts at offset i*n - i*(i-1)/2 and holds n - i pairs
        return i * n - i * (i - 1) // 2

    # the float root is a first guess; the integer fix-ups below decide
    i = ((2 * n + 1 - np.sqrt((2 * n + 1) ** 2 - 8 * r)) // 2).astype(np.int64)
    while np.any(low := start(i) > r):
        i -= low
    while np.any(high := start(i + 1) <= r):
        i += high
    return i, i + (r - start(i))


def _sample_distinct_indices(rng, universe, count):
    """Uniform sample of `count` distinct ints from range(universe)."""
    if count > universe:
        raise ValueError("cannot sample more pairs than exist")
    if count == universe:
        return np.arange(universe, dtype=np.int64)
    if count * 3 > universe:
        return rng.permutation(universe)[:count].astype(np.int64)
    chosen = set()
    out = []
    while len(out) < count:
        draw = rng.integers(0, universe, size=count - len(out))
        for r in draw.tolist():
            if r not in chosen:
                chosen.add(r)
                out.append(r)
    return np.array(out, dtype=np.int64)


# -- synthetic generation ----------------------------------------------------


def generate_sbm(n, gamma, pi, seed):
    """Sample a block-model graph and its planted assignment.

    Labels are i.i.d. from `gamma`; each unordered pair (i, j) with i <= j
    (self-pairs included) carries an edge independently with probability
    pi[label_i][label_j].  Sampling draws a binomial edge count per bicluster
    and then a uniform distinct pair subset, which realizes exactly the
    independent-Bernoulli law while staying O(m).  Deterministic given seed.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    k = gamma.shape[0]
    if pi.shape != (k, k):
        raise ValueError("pi must be K x K for K = len(gamma)")
    if np.any(gamma < 0) or abs(gamma.sum() - 1.0) > 1e-12:
        raise ValueError("gamma must be a probability simplex (sum 1 within 1e-12)")
    if np.any(pi < 0) or np.any(pi > 1):
        raise ValueError("pi entries must lie in [0, 1]")
    if np.max(np.abs(pi - pi.T)) > 1e-12:
        raise ValueError("pi must be symmetric within 1e-12")

    rng = np.random.default_rng(seed)
    labels = rng.choice(k, size=n, p=gamma)
    members = [np.flatnonzero(labels == c) for c in range(k)]

    pairs = [np.empty((0, 2), dtype=np.int64)]
    for a in range(k):
        na = members[a].shape[0]
        for b in range(a, k):
            p = float(pi[a, b])
            if p == 0.0:
                continue
            if a == b:
                universe = na * (na + 1) // 2
            else:
                universe = na * members[b].shape[0]
            if universe == 0:
                continue
            count = int(rng.binomial(universe, p))
            if count == 0:
                continue
            idx = _sample_distinct_indices(rng, universe, count)
            if a == b:
                u, v = _pair_from_index(idx, na)
            else:
                u, v = np.divmod(idx, members[b].shape[0])
            pairs.append(np.stack([members[a][u], members[b][v]], axis=1))

    graph = Graph(n, np.concatenate(pairs))
    return graph, PlantedAssignment(labels, k)


def mask_pairs(graph, fraction, seed):
    """Hold out a uniform fraction of all node pairs for prediction scoring.

    Selects ceil(fraction * n*(n+1)/2) pairs without replacement from the
    full pair universe (edges and non-edges alike), records each pair's
    observed bit, and returns a Graph whose training views exclude them.
    A drawn pair that the graph already holds out keeps its recorded bit.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie in (0, 1)")
    n = graph.n
    universe = graph.num_pairs
    count = math.ceil(fraction * universe)
    if count < 1:
        raise ValueError("fraction too small: no pair selected")
    rng = np.random.default_rng(seed)
    i, j = _pair_from_index(np.sort(_sample_distinct_indices(rng, universe, count)), n)
    # pairs as flat keys i*n + j, one membership test each way
    held, edge_keys = i * n + j, graph.edges[:, 0] * n + graph.edges[:, 1]
    bits = np.isin(held, edge_keys).astype(np.int64)
    # a pair masked before keeps its recorded bit: it is no training edge now
    masked = dict(graph.masked)
    masked.update(
        (pair, bit)
        for pair, bit in zip(zip(i.tolist(), j.tolist()), bits.tolist())
        if pair not in graph.masked
    )
    keep = graph.edges[~np.isin(edge_keys, held)]
    return Graph(n, keep, masked=masked, node_ids=graph.node_ids)
