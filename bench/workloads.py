"""Benchmark workloads: graph inputs made from a seed, the fit a user runs, checks.

Every input comes from the workload seed: graph g of a run is generated from
SeedSequence([seed, g]), which also yields the fit, mask and test-pair
seeds.  blockbp receives only the generated graph (after the edge-list text
round trip a `blockbp fit --input` user goes through) and a fit seed.

Calls into blockbp go through module attributes (`graph.parse_edge_list`,
not a name imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from blockbp import bp, evaluate, graph

K_TRUE = 4  # the planted four-cluster graph of evaluate.planted_four_params
TEST_PAIR_FRACTION = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    method: str  # evaluate.fit_with_method method name
    k_max: int
    mask_fraction: float  # 0.0: no pairs held out of training


WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted_f2ab", 600, "f2ab", 20, 0.0),
        Workload("masked_heldout", 600, "f2ab", 20, 0.04),
        Workload("cicl_sweep", 400, "cicl", 4, 0.0),
    )
}


@dataclass
class Case:
    """One generated input: the parsed graph plus what the checks need."""

    graph: graph.Graph
    labels: np.ndarray  # planted labels in the parsed graph's node order
    pi: np.ndarray  # planted affinities
    heldout: dict  # (i, j) -> observed bit, in the parsed graph's node order
    fit_seed: int


def _direct(_name, fn, *args):
    return fn(*args)


def _fresh_pairs(labels, pi, rng):
    """Held-out pairs from a fresh draw of the planted model on the same nodes.

    Used where no pairs are masked out of training: the fit is scored on new
    Bernoulli bits for a uniform TEST_PAIR_FRACTION of all pairs.
    """
    n = labels.shape[0]
    iu, ju = np.triu_indices(n)
    count = math.ceil(TEST_PAIR_FRACTION * iu.shape[0])
    pick = np.sort(rng.choice(iu.shape[0], size=count, replace=False))
    i, j = iu[pick], ju[pick]
    bits = rng.random(count) < pi[labels[i], labels[j]]
    return {(int(a), int(b)): int(x) for a, b, x in zip(i, j, bits)}


def prepare(workload, seed, g, call=_direct):
    """Generate graph g of a run and take it through the user's input path.

    call(name, fn, *args) runs each step; the traced run passes a span.
    """
    gen_seed, mask_seed, fit_seed, test_seed = (
        int(s) for s in np.random.SeedSequence([seed, g]).generate_state(4)
    )
    gamma, pi = evaluate.planted_four_params(workload.n)
    generated, planted = call("graph.generate_sbm", graph.generate_sbm, workload.n, gamma, pi, gen_seed)
    text = call("graph.serialize_edge_list", graph.serialize_edge_list, generated)
    parsed = call("graph.parse_edge_list", graph.parse_edge_list, text)
    # parsing renumbers nodes by first appearance and drops isolated ones
    labels = planted.labels[np.array([int(tok) for tok in parsed.node_ids])]
    if workload.mask_fraction:
        parsed = call("graph.mask_pairs", graph.mask_pairs, parsed, workload.mask_fraction, mask_seed)
        heldout = parsed.masked
    else:
        heldout = _fresh_pairs(labels, pi, np.random.default_rng(test_seed))
    return Case(parsed, labels, pi, heldout, fit_seed)


def fit(workload, case):
    """The fit a user of `blockbp fit` / `blockbp sweep` waits for."""
    return evaluate.fit_with_method(
        case.graph,
        workload.method,
        workload.k_max,
        case.fit_seed,
        sweep_range=range(1, workload.k_max + 1),
    )


def npll(fit_result, case):
    return evaluate.npll(fit_result, case.heldout)


def check(workload, case, fit_result, npll_value):
    """Reasons the fit output is wrong; empty when every check passes."""
    reasons = []
    n = case.graph.n
    k = fit_result.selected_k
    beliefs = np.asarray(fit_result.node_marginals)
    if not 1 <= k <= workload.k_max:
        reasons.append(f"selected K={k} outside [1, {workload.k_max}]")
    if beliefs.shape != (n, k):
        reasons.append(f"node marginals have shape {beliefs.shape}, expected {(n, k)}")
    elif not np.all(np.isfinite(beliefs)):
        reasons.append("node marginals not finite")
    elif np.max(np.abs(beliefs.sum(axis=1) - 1.0)) > 1e-8:
        reasons.append("node marginal rows do not sum to 1")
    if len(fit_result.map_assignment) != n:
        reasons.append(f"map_assignment has length {len(fit_result.map_assignment)}, expected {n}")
    report = fit_result.criteria
    values = (report.ffic_lb, report.fic, report.icl, report.cicl, report.entropy)
    if report.degenerate:
        reasons.append("criteria flagged degenerate")
    elif not all(map(math.isfinite, values)):
        reasons.append("criteria not finite and not flagged degenerate")
    if not math.isfinite(npll_value):
        reasons.append(f"npll not finite: {npll_value}")
    return reasons


def quality(case, fit_result, npll_value):
    """Quality of one fit against the planted model it was generated from.

    npll_ratio divides the fit's NPLL by the planted model's own NPLL on the
    same held-out pairs.  Raw NPLL is dominated by the Poisson count of edges
    among the held-out pairs (about 12% from graph to graph here); the ratio
    cancels that count and keeps what the fit adds to it.
    """
    planted = SimpleNamespace(
        node_marginals=np.eye(case.pi.shape[0])[case.labels],
        params=SimpleNamespace(pi=case.pi),
        n=case.graph.n,
    )
    planted_npll = evaluate.npll(planted, case.heldout)
    return {
        "k_error": abs(fit_result.selected_k - K_TRUE),
        "ari": evaluate.adjusted_rand_index(fit_result.map_assignment, case.labels),
        "npll": npll_value,
        "planted_npll": planted_npll,
        "npll_ratio": npll_value / planted_npll,
    }


def fit_json(fit_result):
    return bp.fit_result_to_json(fit_result)
