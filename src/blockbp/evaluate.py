"""Held-out prediction scoring, partition agreement, and protocol drivers."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import bp
from .graph import generate_sbm, mask_pairs
from .model import EPS_P


@dataclass
class EvalReport:
    npll: float
    n_masked: int
    ari: float | None
    selected_k: int
    runtime_seconds: float


def npll(fit, masked_observations):
    """Normalized predictive log-likelihood over held-out pairs.

    Each masked pair is scored with the factorized marginal predictor
    E[z_i]^T Pi E[z_j] (diagonal form for self-pairs), clamped away from 0
    and 1; the total is divided by n*(n+1)/2 regardless of how many pairs
    were masked.  A pair naming a node outside the fit raises ValueError.
    """
    if not masked_observations:
        raise ValueError("masked set is empty")
    b = fit.node_marginals
    pi = fit.params.pi
    n = fit.n
    i, j = np.array(list(masked_observations), dtype=np.int64).reshape(-1, 2).T
    outside = (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)
    if outside.any():
        bad = int(np.argmax(outside))
        raise ValueError(f"masked pair ({i[bad]}, {j[bad]}) outside the fit's nodes 0..{n - 1}")
    x = np.fromiter(masked_observations.values(), dtype=bool, count=len(masked_observations))
    p = np.where(i == j, b[i] @ np.diagonal(pi), ((b[i] @ pi) * b[j]).sum(axis=1))
    p = np.clip(p, EPS_P, 1.0 - EPS_P)
    total = np.where(x, np.log(p), np.log1p(-p)).sum()
    return float(total / (n * (n + 1) / 2.0))


def adjusted_rand_index(a, b):
    """Chance-corrected partition agreement from the pair-counting table."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("assignments must have equal length")
    n = a.shape[0]
    ka, kb = int(a.max()) + 1, int(b.max()) + 1
    table = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(table, (a, b), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table.astype(np.float64)).sum()
    sum_rows = comb2(table.sum(axis=1).astype(np.float64)).sum()
    sum_cols = comb2(table.sum(axis=0).astype(np.float64)).sum()
    total = comb2(float(n))
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


# -- method dispatch -----------------------------------------------------------

# the CriterionReport field each per-K selection method maximizes
CRITERION_FIELDS = {"icl": "icl", "cicl": "cicl", "ffic": "ffic_lb", "fic": "fic"}


def sweep_criteria(graph, k_range, seed, opts=None):
    """Fixed-K fits over an inclusive K range, with all criterion values.

    Returns a list of (k, FitResult) in K order; each fit's criterion values
    are its `criteria`.  Each K runs an independent plain-BP fit seeded from
    the same root seed.
    """
    return [(k, bp.fixed_k_fit(graph, k, seed, opts=opts)) for k in k_range]


def best_row(rows, method):
    """The row of `sweep_criteria` whose fit's report maximizes the method's
    criterion (see CRITERION_FIELDS); the first one among ties."""
    field = CRITERION_FIELDS[method]
    return max(rows, key=lambda row: getattr(row[1].criteria, field))


def fit_with_method(graph, method, k_max, seed, opts=None, sweep_range=None):
    """Run one model-selection method end to end and return its FitResult.

    One-pass methods (f2ab, fic-bp) start at k_max and prune; sweep methods
    (icl, cicl) fit every K in sweep_range (default 1..k_max) with plain BP
    and return the fit maximizing their criterion.  An empty K range (k_max
    below 1) raises ValueError, as a one-pass k_max below 1 does.
    """
    if method == "f2ab":
        return bp.f2ab_fit(graph, k_max, seed, opts=opts)
    if method == "fic-bp":
        return bp.fic_bp_fit(graph, k_max, seed, opts=opts)
    if method in ("icl", "cicl"):
        k_range = sweep_range if sweep_range is not None else range(1, k_max + 1)
        if not k_range:
            raise ValueError(f"cluster count must be >= 1, got {k_range.stop - 1}")
        _, best = best_row(sweep_criteria(graph, k_range, seed, opts=opts), method)
        best.method = method
        return best
    raise ValueError(f"unknown method: {method}")


# -- synthetic protocol -----------------------------------------------------------


PROTOCOL_HEADER = "method,n,seed,selected_k,ari,seconds"


def planted_four_params(n):
    """The four-cluster sparse test bed: within 20/n, across 1/n, even sizes."""
    gamma = np.full(4, 0.25)
    pi = np.full((4, 4), 1.0 / n)
    np.fill_diagonal(pi, 20.0 / n)
    return gamma, pi


def run_synthetic_protocol(n_list, seeds, k_max, methods=("f2ab",), opts=None, sweep_max=None):
    """Planted-recovery experiment over sizes, seeds, and methods.

    For each (n, seed): generate the planted four-cluster graph, run every
    method, and record selected K, agreement with the planted labels, and
    wall time.  Fully reproducible from the seed list.  Returns rows of
    (method, n, seed, selected_k, ari, seconds).
    """
    rows = []
    for n in n_list:
        gamma, pi = planted_four_params(n)
        for seed in seeds:
            graph, planted = generate_sbm(n, gamma, pi, seed)
            for method in methods:
                sweep_range = range(1, (sweep_max or k_max) + 1)
                start = time.perf_counter()
                fit = fit_with_method(
                    graph, method, k_max, seed, opts=opts, sweep_range=sweep_range
                )
                seconds = time.perf_counter() - start
                ari = adjusted_rand_index(fit.map_assignment, planted.labels)
                rows.append((method, n, seed, fit.selected_k, ari, seconds))
    return rows


def protocol_table(rows):
    lines = [PROTOCOL_HEADER]
    for method, n, seed, k, ari, seconds in rows:
        lines.append(f"{method},{n},{seed},{k},{ari:.6f},{seconds:.3f}")
    return "\n".join(lines) + "\n"


def masked_prediction_run(n, seed, k_max):
    """Generate, mask, fit, and score one prediction experiment.

    1% of the pairs are held out.  Returns (fit EvalReport, baseline
    EvalReport) where the baseline is the K=1 density-only fit on the same
    masked graph.
    """
    gamma, pi = planted_four_params(n)
    graph, planted = generate_sbm(n, gamma, pi, seed)
    masked_graph = mask_pairs(graph, 0.01, seed + 10_000)
    obs = masked_graph.masked

    start = time.perf_counter()
    fit = bp.f2ab_fit(masked_graph, k_max, seed)
    fit_seconds = time.perf_counter() - start
    report = EvalReport(
        npll=npll(fit, obs),
        n_masked=len(obs),
        ari=adjusted_rand_index(fit.map_assignment, planted.labels),
        selected_k=fit.selected_k,
        runtime_seconds=fit_seconds,
    )

    start = time.perf_counter()
    base = bp.fixed_k_fit(masked_graph, 1, seed)
    base_seconds = time.perf_counter() - start
    base_report = EvalReport(
        npll=npll(base, obs),
        n_masked=len(obs),
        ari=None,
        selected_k=1,
        runtime_seconds=base_seconds,
    )
    return report, base_report
