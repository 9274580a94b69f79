import math

import numpy as np
import pytest

from blockbp import Graph, Params, adjusted_rand_index, bp, generate_sbm, mask_pairs, npll, spectral
from blockbp.bp import FitResult, fit_result_to_json, fixed_k_fit
from blockbp.criteria import CriterionReport
from blockbp.evaluate import (
    best_row,
    planted_four_params,
    run_synthetic_protocol,
    sweep_criteria,
)
from oracles import masked_selfloop_graph


def make_fit(n, marginals, params, selected_k=None):
    report = CriterionReport(0, 0, 0, 0, 0, 0, 0, 0)
    return FitResult(
        selected_k=selected_k or params.k,
        params=params,
        node_marginals=np.asarray(marginals, dtype=float),
        map_assignment=np.argmax(marginals, axis=1),
        stop="tol",
        trace=[],
        criteria=report,
        n=n,
        seed=0,
        method="f2ab",
    )


class TestNpll:
    def test_uniform_predictor_formula(self):
        n = 6
        marginals = np.full((n, 2), 0.5)
        params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.5))
        fit = make_fit(n, marginals, params)
        masked = {(0, 1): 1, (2, 3): 0, (4, 5): 1}
        value = npll(fit, masked)
        expected = len(masked) * math.log(0.5) / (n * (n + 1) / 2)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_confident_hit_contributes_nothing(self):
        n = 4
        marginals = np.eye(2)[[0, 0, 1, 1]]
        pi = np.array([[1.0 - 1e-13, 0.5], [0.5, 0.5]])
        params = Params(np.array([0.5, 0.5]), pi)
        fit = make_fit(n, marginals, params)
        value = npll(fit, {(0, 1): 1})
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_self_pair_uses_diagonal(self):
        n = 3
        marginals = np.eye(2)[[0, 1, 0]]
        params = Params(np.array([0.5, 0.5]), np.array([[0.3, 0.1], [0.1, 0.8]]))
        fit = make_fit(n, marginals, params)
        value = npll(fit, {(1, 1): 1})
        assert value == pytest.approx(math.log(0.8) / 6, abs=1e-12)

    def test_matches_pair_loop(self):
        g = masked_selfloop_graph()
        rng = np.random.default_rng(5)
        marginals = rng.dirichlet(np.ones(3), size=g.n)
        pi = rng.uniform(0.05, 0.95, (3, 3))
        pi = (pi + pi.T) / 2
        fit = make_fit(g.n, marginals, Params(np.full(3, 1 / 3), pi))
        total = 0.0
        for (i, j), x in g.masked.items():
            p = marginals[i] @ np.diag(pi) if i == j else marginals[i] @ pi @ marginals[j]
            total += math.log(p) if x else math.log1p(-p)
        assert npll(fit, g.masked) == pytest.approx(total / (g.n * (g.n + 1) / 2), rel=1e-12)

    def test_requires_masked_pairs(self):
        fit = make_fit(3, np.ones((3, 1)), Params(np.array([1.0]), np.array([[0.5]])))
        with pytest.raises(ValueError):
            npll(fit, {})

    def test_npll_nonpositive_and_relabel_invariant(self):
        g, _ = generate_sbm(60, [0.5, 0.5], np.full((2, 2), 0.2), seed=1)
        masked = mask_pairs(g, 0.02, seed=2)
        fit = fixed_k_fit(masked, 2, seed=0)
        value = npll(fit, masked.masked)
        assert value <= 0
        # relabeling clusters leaves the predictor unchanged
        perm = [1, 0]
        swapped = make_fit(
            60,
            fit.node_marginals[:, perm],
            Params(fit.params.gamma[perm], fit.params.pi[np.ix_(perm, perm)]),
        )
        assert npll(swapped, masked.masked) == pytest.approx(value, rel=1e-12)


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        a = np.array([0, 1, 1, 2, 0])
        assert adjusted_rand_index(a, a) == pytest.approx(1.0)

    def test_permuted_labels_still_one(self):
        a = np.array([0, 0, 1, 1, 2])
        b = np.array([2, 2, 0, 0, 1])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_singletons_vs_one_cluster(self):
        a = np.zeros(4, dtype=int)
        b = np.arange(4)
        # contingency: all cells single; index 0, expected 0, max 3 -> ARI 0
        assert adjusted_rand_index(a, b) == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.integers(0, 3, size=30)
            b = rng.integers(0, 4, size=30)
            value = adjusted_rand_index(a, b)
            assert -0.5 - 1e-12 <= value <= 1.0 + 1e-12


class TestProtocol:
    def test_table_schema_and_reproducibility(self):
        rows1 = run_synthetic_protocol([60], [0], k_max=3, methods=("f2ab",))
        rows2 = run_synthetic_protocol([60], [0], k_max=3, methods=("f2ab",))
        assert [r[:5] for r in rows1] == [r[:5] for r in rows2]  # timings differ
        assert len(rows1) == 1
        method, n, seed, k, ari, seconds = rows1[0]
        assert method == "f2ab" and n == 60 and seed == 0
        assert isinstance(k, int) and math.isfinite(ari) and seconds >= 0

    def test_sweep_criteria_rows(self):
        g, _ = generate_sbm(50, [0.5, 0.5], np.full((2, 2), 0.15), seed=5)
        rows = sweep_criteria(g, range(1, 4), seed=0)
        assert [k for k, _ in rows] == [1, 2, 3]
        for _, fit in rows:
            assert math.isfinite(fit.criteria.ffic_lb)

    def test_sweep_builds_layout_and_operator_once(self, monkeypatch):
        calls = {"_greedy_colouring": 0, "_normalized_adjacency": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        counting(bp, "_greedy_colouring")
        counting(spectral, "_normalized_adjacency")
        g, _ = generate_sbm(400, *planted_four_params(400), 1)
        sweep_criteria(g, range(1, 5), 1)
        assert calls == {"_greedy_colouring": 1, "_normalized_adjacency": 1}

    def test_sweep_rows_do_not_depend_on_the_ks_before(self):
        # K=2..4 find the graph's layout and operator built by the K before;
        # each gives the fit a fresh Graph with the same edges gives
        g, _ = generate_sbm(400, *planted_four_params(400), 2)
        for k, fit in sweep_criteria(g, range(1, 5), 2):
            fresh = fixed_k_fit(Graph(g.n, g.edges), k, 2)
            assert fit_result_to_json(fit) == fit_result_to_json(fresh), k

    def test_plain_sweep_counts_on_planted_four(self):
        # the cicl_sweep benchmark's fits: K=1..4 on planted n=400 graphs.
        # Damping every plain update spent 65, 67, 68, 82, 89 and 71 sweeps
        # on these six graphs (442 in all); damping only once the messages
        # oscillate spends 34, 43, 43, 56, 68 and 52 (296)
        total = 0
        for seed in range(6):
            g, _ = generate_sbm(400, *planted_four_params(400), seed)
            rows = sweep_criteria(g, range(1, 5), seed)
            total += sum(entry["sweeps"] for _, fit in rows for entry in fit.trace)
            assert best_row(rows, "cicl")[0] == 4, seed
        assert total <= 360

    def test_cicl_sweep_recovers_planted_four(self):
        from blockbp.bp import BPOptions
        from blockbp.evaluate import fit_with_method

        n = 400
        pi = np.full((4, 4), 1.0 / n)
        np.fill_diagonal(pi, 20.0 / n)
        selections = []
        for seed in range(3):
            g, _ = generate_sbm(n, np.full(4, 0.25), pi, seed=seed)
            fit = fit_with_method(g, "cicl", k_max=8, seed=seed, opts=BPOptions(max_outer=25))
            selections.append(fit.selected_k)
        assert sum(k == 4 for k in selections) >= 2  # majority of seeds
