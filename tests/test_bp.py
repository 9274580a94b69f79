import numpy as np
import pytest

from blockbp import (
    BPOptions,
    BeliefState,
    Graph,
    Params,
    adjusted_rand_index,
    compute_penalty,
    external_field,
    f2ab_fit,
    fabbp_run,
    fic_bp_fit,
    fixed_k_fit,
    generate_sbm,
    parse_edge_list,
)
from blockbp import bp, evaluate
from blockbp.bp import (
    MessageUnderflowError,
    PenaltyTerms,
    fit_result_from_json,
    fit_result_to_json,
)
from blockbp.model import hard_moments, m_step
from oracles import Enumeration, dec_log, per_node_sweep


def path_graph(n):
    return parse_edge_list("\n".join(f"{i} {i+1}" for i in range(n - 1)))


def fresh_state(graph, k, seed=0):
    return BeliefState(graph, k, np.random.default_rng(seed))


def two_cliques(size=25):
    lines = []
    for base in (0, size):
        for i in range(size):
            for j in range(i + 1, size):
                lines.append(f"{base + i} {base + j}")
    return parse_edge_list("\n".join(lines))


def isolated_selfloop_graph():
    """n=10: a triangle-rich component, self-loops on 3 and 6, isolated 7 and 8,
    and node 9 with only a self-loop."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (1, 6), (3, 3), (6, 6), (9, 9)]
    return Graph(10, edges)


def one_sweep(graph, params, state, penalty):
    opts = BPOptions(max_sweeps=1, tol_msg=0.0)
    return fabbp_run(graph, params, state, opts, np.random.default_rng(0), penalty)


def constant_penalty(lam):
    """compute_penalty stand-in giving every node the penalty vector lam."""
    return lambda state, nodes, mode, lists=None: PenaltyTerms(
        np.tile(lam, (len(nodes), 1)), None, None
    )


def no_field(params, zbar, n):
    """external_field stand-in for the edges-only model."""
    return 0.0


class TestBPOptions:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("tol_msg", -1e-3),
            ("tol_msg", float("nan")),
            ("tol_pi", -1e-12),
            ("tol_pi", float("nan")),
            ("max_sweeps", 0),
            ("max_sweeps", -3),
            ("max_outer", 0),
        ],
    )
    def test_rejects_out_of_range_stopping_value(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            BPOptions(**{name: value})

    def test_accepts_the_boundary_values(self):
        opts = BPOptions(tol_msg=0.0, tol_pi=0.0, max_sweeps=1, max_outer=1)
        assert (opts.tol_msg, opts.tol_pi, opts.max_sweeps, opts.max_outer) == (0.0, 0.0, 1, 1)


class TestExternalField:
    def test_single_cluster(self):
        params = Params(np.array([1.0]), np.array([[0.3]]))
        assert external_field(params, np.array([1.0]), 10) == pytest.approx(-3.0)

    def test_zero_affinity_no_repulsion(self):
        params = Params(np.array([0.5, 0.5]), np.zeros((2, 2)))
        assert external_field(params, np.array([0.5, 0.5]), 50) == pytest.approx([0.0, 0.0])

    def test_symmetric_case(self):
        a, b = 0.4, 0.1
        params = Params(np.array([0.5, 0.5]), np.array([[a, b], [b, a]]))
        field = external_field(params, np.array([0.5, 0.5]), 20)
        assert field[0] == pytest.approx(field[1])
        assert field[0] == pytest.approx(-20 * (a + b) / 2)


class TestMessageUpdates:
    """One-sweep fabbp_run checks of the colour-class message update."""

    def test_uniform_fixed_point_for_identical_rows(self):
        g = path_graph(4)
        k = 3
        params = Params(np.full(k, 1 / k), np.full((k, k), 0.2))
        state = fresh_state(g, k)
        state.messages[:] = 1.0 / k
        state.node_belief[:] = 1.0 / k
        state.h = state.node_belief.sum(axis=0)
        one_sweep(g, params, state, penalty="none")
        assert state.messages == pytest.approx(np.full(state.messages.shape, 1 / k), abs=1e-12)
        assert state.node_belief == pytest.approx(np.full((4, k), 1 / k), abs=1e-12)

    def test_degree_one_node_ignores_absent_neighbors(self, monkeypatch):
        # nodes 0 and 2 of the path have degree 1 and share a colour class:
        # their only out-message carries the prior and the field alone,
        # whatever the message into them holds.  Under a zero penalty the
        # undamped penalized update sets it to exactly the live prior h/n
        # times the field, both read from h as it stood when their class
        # started
        g = path_graph(3)
        params = Params(np.array([0.7, 0.3]), np.array([[0.5, 0.1], [0.1, 0.4]]))
        state = fresh_state(g, 2, seed=3)
        h_at_class_start = {}
        update_class = bp._update_class

        def recording(state, cls, params, penalty):
            h_at_class_start.update({int(v): state.h.copy() for v in cls.nodes})
            return update_class(state, cls, params, penalty)

        monkeypatch.setattr(bp, "_update_class", recording)
        monkeypatch.setattr(bp, "compute_penalty", constant_penalty(np.zeros(2)))
        one_sweep(g, params, state, penalty="fab")
        for end in (0, 2):
            leaf_to_centre = np.flatnonzero((state.src == end) & (state.dst == 1))[0]
            h = h_at_class_start[end]
            expected = (h / g.n) * np.exp(-params.pi @ h)
            assert state.messages[leaf_to_centre] == pytest.approx(
                expected / expected.sum(), abs=1e-12
            )

    def test_constant_penalty_shift_is_invisible(self, monkeypatch):
        g = path_graph(5)
        params = Params(np.array([0.6, 0.4]), np.array([[0.4, 0.1], [0.1, 0.5]]))
        runs = []
        for lam in (np.zeros(2), np.array([3.7, 3.7])):
            state = fresh_state(g, 2, seed=1)
            monkeypatch.setattr(bp, "compute_penalty", constant_penalty(lam))
            one_sweep(g, params, state, penalty="fab")
            runs.append(state)
        unpenalized, shifted = runs
        assert shifted.messages == pytest.approx(unpenalized.messages, abs=1e-12)
        assert shifted.node_belief == pytest.approx(unpenalized.node_belief, abs=1e-12)

    def test_larger_penalty_shrinks_that_component(self, monkeypatch):
        g = path_graph(5)
        params = Params(np.array([0.5, 0.5]), np.array([[0.4, 0.2], [0.2, 0.4]]))
        runs = []
        for lam in (np.zeros(2), np.array([0.8, 0.0])):
            state = fresh_state(g, 2, seed=2)
            monkeypatch.setattr(bp, "compute_penalty", constant_penalty(lam))
            one_sweep(g, params, state, penalty="fab")
            runs.append(state)
        base, penalized = runs
        assert np.all(penalized.messages[:, 0] < base.messages[:, 0])
        assert np.all(penalized.node_belief[:, 0] < base.node_belief[:, 0])

    def test_underflow_raises_with_edge_name(self):
        g = Graph(2, [(0, 1)])
        params = Params(np.array([0.5, 0.5]), np.array([[0.4, 0.1], [0.1, 0.4]]))
        state = fresh_state(g, 2)
        state.messages[:] = np.nan
        with pytest.raises(MessageUnderflowError) as caught:
            one_sweep(g, params, state, penalty="none")
        i, j = caught.value.edge
        assert {i, j} == {0, 1}
        assert str(caught.value) == f"message underflow on edge {i}->{j}"

    def test_tree_marginals_match_enumeration(self, monkeypatch):
        # edges-only model: sum-product on a tree is exact
        monkeypatch.setattr(bp, "external_field", no_field)
        g = path_graph(3)
        params = Params(np.array([0.6, 0.4]), np.array([[0.7, 0.2], [0.2, 0.5]]))
        opts = BPOptions(tol_msg=1e-13, max_sweeps=300)
        state = fresh_state(g, 2, seed=5)
        state, _, info = fabbp_run(g, params, state, opts, np.random.default_rng(6), "none")
        enum = Enumeration(g, params, include_nonedges=False)
        assert np.max(np.abs(state.node_belief - enum.node_marginals)) < 1e-8


class TestColourClasses:
    def graphs(self):
        sbm, _ = generate_sbm(120, [0.5, 0.5], np.array([[0.2, 0.02], [0.02, 0.2]]), seed=3)
        return [isolated_selfloop_graph(), path_graph(7), two_cliques(6), sbm]

    def test_colouring_is_proper_and_partitions_nodes(self):
        for g in self.graphs():
            state = fresh_state(g, 2)
            nodes = np.concatenate([cls.nodes for cls in state.classes])
            assert np.array_equal(np.sort(nodes), np.arange(g.n))
            colour = np.empty(g.n, dtype=np.int64)
            for c, cls in enumerate(state.classes):
                colour[cls.nodes] = c
                # in-lists grouped by node: each id points into its owner
                assert np.array_equal(state.dst[cls.ids], cls.nodes[cls.owner])
            edges = g.edges[g.edges[:, 0] != g.edges[:, 1]]
            assert np.all(colour[edges[:, 0]] != colour[edges[:, 1]])

    def test_colouring_draws_nothing_from_the_rng(self):
        g = isolated_selfloop_graph()
        rng = np.random.default_rng(5)
        state = BeliefState(g, 3, rng)
        # the message and belief draws are all the constructor takes
        reference = np.random.default_rng(5)
        reference.uniform(size=(state.m_directed, 3))
        reference.uniform(size=(g.n, 3))
        assert rng.uniform() == reference.uniform()

    @pytest.mark.parametrize("include_field", [False, True])
    @pytest.mark.parametrize("penalized", [False, True])
    def test_class_sweep_matches_per_node_reference(self, include_field, penalized, monkeypatch):
        # plain sweeps: the gamma prior, damped by a half; penalized sweeps
        # with a zero penalty: the live prior, undamped
        g = isolated_selfloop_graph()
        pi = np.array([[0.6, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.7]])
        params = Params(np.array([0.5, 0.3, 0.2]), pi)
        state = fresh_state(g, 3, seed=4)
        order = np.random.default_rng(7).permutation(len(state.classes))
        damping = 0.0 if penalized else bp.PLAIN_DAMPING
        msgs, beliefs = per_node_sweep(state, params, order, damping, include_field, penalized)
        monkeypatch.setattr(bp, "compute_penalty", constant_penalty(np.zeros(3)))
        if not include_field:
            monkeypatch.setattr(bp, "external_field", no_field)
        opts = BPOptions(max_sweeps=1, tol_msg=0.0)
        fabbp_run(g, params, state, opts, np.random.default_rng(7), "fab" if penalized else "none")
        assert np.max(np.abs(state.messages - msgs)) < 1e-12
        assert np.max(np.abs(state.node_belief - beliefs)) < 1e-12


class TestComputePenalty:
    def test_single_cluster_value_against_high_precision(self):
        # n=10 path graph: m=9 edges, node 3 has degree 2
        g = path_graph(10)
        state = fresh_state(g, 1)
        state.node_belief[:] = 1.0
        state.h = state.node_belief.sum(axis=0)
        params = Params(np.array([1.0]), np.array([[0.2]]))
        state.refresh_moments(params)
        terms = compute_penalty(state, 3)
        d = 2  # degree of node 3
        t = 10.0  # h - b + 1
        big_t = 2 * 9 - d + 1  # n^2 * zzbar - own contribution + 1
        expected = float(
            (dec_log((t + 1) / t) + dec_log((big_t + d) / big_t)) / 2
        )
        assert terms.lam[0] == pytest.approx(expected, abs=1e-12)
        assert terms.t_excl[0] == pytest.approx(t)
        assert terms.T_excl[0, 0] == pytest.approx(big_t)

    def test_penalty_strictly_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(1, 6))
            g, _ = generate_sbm(n, np.full(k, 1 / k), np.full((k, k), 0.3), seed=int(rng.integers(999)))
            state = fresh_state(g, k, seed=int(rng.integers(999)))
            params = Params(np.full(k, 1 / k), np.full((k, k), 0.3))
            state.refresh_moments(params)
            terms = compute_penalty(state, int(rng.integers(n)))
            assert np.all(terms.lam > 0)
            assert np.all(terms.t_excl >= 1)
            assert np.all(terms.T_excl >= 1)

    def test_cluster_size_term_vanishes_with_n(self):
        # proportion-penalty term decreases toward zero as n grows
        values = []
        for n in (100, 1000, 10000):
            g = path_graph(4)  # graph size irrelevant; use state scaffolding
            state = fresh_state(g, 2)
            state.node_belief[:] = 0.5
            state.h = np.full(2, n * 0.5)  # as if n nodes split evenly
            state.n = n
            params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.2))
            b = state.node_belief[0]
            t = np.clip(state.h - b + 1.0, 1.0, None)
            term = 0.5 * np.log1p(1.0 / t)
            values.append(float(term[0]))
            approx = 0.5 * np.log1p(1.0 / (n * 0.5))
            assert term[0] == pytest.approx(approx, rel=0.05)
        assert values[0] > values[1] > values[2]

    def test_exclusion_terms_negligible_at_scale(self):
        # with all proportions of order one, dropping the sending node's
        # exclusion terms changes the penalty only at O(1/n)
        n = 5000
        g, _ = generate_sbm(n, np.full(4, 0.25), np.full((4, 4), 4.0 / n), seed=0)
        state = fresh_state(g, 4, seed=1)
        params = Params(np.full(4, 0.25), np.full((4, 4), 4.0 / n))
        state.refresh_moments(params)
        node = 17
        terms = compute_penalty(state, node)
        nbr = state.neighbor_belief_sum(node)
        simple = 0.5 * np.log1p(1.0 / state.h) + 0.5 * np.log1p(
            nbr[None, :] / np.clip(n * n * state.zzbar_cache, 1.0, None)
        ).sum(axis=1)
        rel = np.abs(terms.lam - simple) / np.abs(terms.lam)
        assert rel.max() < 0.01

    def test_fic_mode_scales_cluster_term(self):
        g = path_graph(6)
        k = 3
        state = fresh_state(g, k, seed=4)
        params = Params(np.full(k, 1 / k), np.full((k, k), 0.25))
        state.refresh_moments(params)
        node = 2
        b = state.node_belief[node]
        t = np.clip(state.h - b + 1.0, 1.0, None)
        expected = (k * (k + 1) / 2) * 0.5 * np.log1p(1.0 / t)
        lam = compute_penalty(state, node, "fic").lam
        assert lam == pytest.approx(expected, rel=1e-12)

    def test_node_array_matches_scalar_calls(self):
        g = isolated_selfloop_graph()
        state = fresh_state(g, 3, seed=6)
        state.refresh_moments(Params(np.full(3, 1 / 3), np.full((3, 3), 0.3)))
        nodes = np.array([3, 7, 0, 9])
        for mode in ("fab", "fic"):
            batch = compute_penalty(state, nodes, mode)
            for row, node in enumerate(nodes):
                single = compute_penalty(state, int(node), mode)
                assert single.lam.shape == (3,)
                assert batch.lam[row] == pytest.approx(single.lam, rel=1e-15)
                if mode == "fab":
                    assert single.T_excl.shape == (3, 3)
                    assert batch.T_excl[row] == pytest.approx(single.T_excl, rel=1e-15)


class TestFabbpRun:
    def test_k1_converges_immediately(self):
        g, _ = generate_sbm(40, [1.0], np.array([[0.2]]), seed=1)
        params = Params(np.array([1.0]), np.array([[0.2]]))
        state = fresh_state(g, 1)
        state, _, info = fabbp_run(g, params, state, BPOptions(), np.random.default_rng(0))
        assert info["sweeps"] <= 2 and info["converged"]
        assert state.zbar_cache == pytest.approx([1.0])

    def test_spurious_cluster_mass_shrinks_over_sweeps(self, monkeypatch):
        # planted two blocks, four initial clusters: redundant mass decays;
        # pruning stays off, so both masses are of the same two clusters
        monkeypatch.setattr(bp, "PRUNE_SCALE", 0.0)
        n = 200
        pi = np.array([[30 / n, 1 / n], [1 / n, 30 / n]])
        g, planted = generate_sbm(n, [0.5, 0.5], pi, seed=3)
        from blockbp.bp import _soft_init

        labels4 = planted.labels * 2 + (np.arange(n) % 2)  # 4-way split of 2 blocks
        params, _ = _soft_init(g, labels4, 4)
        state = fresh_state(g, 4, seed=7)
        opts = BPOptions(tol_msg=0.0, max_sweeps=5)
        state, _, _ = fabbp_run(g, params, state, opts, np.random.default_rng(8))
        mass_at_5 = np.sort(state.h)[:2].sum()  # two smallest clusters
        opts = BPOptions(tol_msg=0.0, max_sweeps=15)
        state, _, _ = fabbp_run(g, params, state, opts, np.random.default_rng(9))
        mass_at_20 = np.sort(state.h)[:2].sum()
        assert mass_at_20 < mass_at_5

    def test_prune_trigger_removes_low_mass_cluster(self):
        g, _ = generate_sbm(50, [1.0], np.array([[0.15]]), seed=2)
        state = fresh_state(g, 2, seed=1)
        beliefs = np.zeros((50, 2))
        beliefs[:, 0] = 1.0 - 0.001
        beliefs[:, 1] = 0.001  # h[1] = 0.05 < 0.1
        state.node_belief = beliefs
        state.h = beliefs.sum(axis=0)
        params = Params(np.array([0.999, 0.001]), np.full((2, 2), 0.15))
        opts = BPOptions(max_sweeps=1, tol_msg=0.0)
        state, working, _ = fabbp_run(g, params, state, opts, np.random.default_rng(4))
        assert state.k_active == 1
        assert state.removed == [1]
        assert working.k == 1

    def test_planted_two_blocks_from_eight(self):
        n = 400
        pi = np.array([[30 / n, 1 / n], [1 / n, 30 / n]])
        g, planted = generate_sbm(n, [0.5, 0.5], pi, seed=0)
        fit = f2ab_fit(g, k_max=8, seed=0)
        assert fit.selected_k in (2, 3)
        assert adjusted_rand_index(fit.map_assignment, planted.labels) >= 0.9

    def test_incremental_zbar_drift_bounded(self):
        g, _ = generate_sbm(150, [0.5, 0.5], np.full((2, 2), 0.08), seed=5)
        params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.08))
        state = fresh_state(g, 2, seed=6)
        opts = BPOptions(tol_msg=0.0, max_sweeps=10)
        state, _, _ = fabbp_run(g, params, state, opts, np.random.default_rng(7))
        assert max(state.drift_log) < 1e-6

    def test_rejects_unknown_penalty_mode(self):
        g = path_graph(4)
        params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.3))
        with pytest.raises(ValueError, match="unknown penalty mode 'FAB'"):
            fabbp_run(g, params, fresh_state(g, 2), BPOptions(), None, "FAB")

    def test_messages_stay_normalized(self):
        # one damped plain sweep, then one undamped penalized sweep
        g, _ = generate_sbm(60, [0.5, 0.5], np.full((2, 2), 0.1), seed=8)
        params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.1))
        state = fresh_state(g, 2, seed=9)
        opts = BPOptions(max_sweeps=1, tol_msg=0.0)
        for penalty in ("none", "fab"):
            state, _, info = fabbp_run(g, params, state, opts, np.random.default_rng(10), penalty)
            assert info["sweeps"] == 1
            assert np.all(state.messages >= 0.0)
            assert np.max(np.abs(state.messages.sum(axis=1) - 1.0)) <= 1e-9


class TestFitDrivers:
    def test_two_cliques_selects_two_exact(self):
        g = two_cliques()
        fit = f2ab_fit(g, k_max=6, seed=0)
        assert fit.selected_k == 2
        truth = np.array([0] * 25 + [1] * 25)
        assert adjusted_rand_index(fit.map_assignment, truth) == pytest.approx(1.0)

    def test_two_cliques_select_two_on_ten_seeds(self):
        g = two_cliques()
        assert [f2ab_fit(g, k_max=6, seed=seed).selected_k for seed in range(10)] == [2] * 10

    def test_hard_zero_affinity_gives_finite_fit(self):
        # one edge among 50 nodes: the M-step sets some affinities to exactly 0
        fit = fixed_k_fit(Graph(50, [(0, 1)]), 2, 0)
        assert fit.selected_k == 2
        assert np.all(np.isfinite(fit.node_marginals))
        assert np.all(np.isfinite(fit.params.pi))

    def test_kmax_one_degenerates_to_density(self):
        g, _ = generate_sbm(80, [0.5, 0.5], np.full((2, 2), 0.1), seed=3)
        fit = f2ab_fit(g, k_max=1, seed=0)
        assert fit.selected_k == 1
        assert fit.params.pi[0, 0] == pytest.approx(g.m / g.num_pairs, rel=1e-9)

    def test_cluster_count_clamped_to_n(self):
        fit = f2ab_fit(Graph(5, [(i, i) for i in range(5)]), 20, 0)
        assert fit.selected_k <= 5
        assert fit.params.k == fit.selected_k
        assert any("clamped to 5" in w for w in fit.warnings)
        assert not f2ab_fit(two_cliques(), 6, 0).warnings

    def test_planted_four_at_n_20000_prunes_in_few_sweeps(self):
        # scale-ladder regression: from k_max=20 the spectral partition on the
        # columns above the bulk edge prunes to the planted four in 15 sweeps
        # (54 when k-means clustered all 20 columns)
        n = 20000
        g, planted = generate_sbm(n, *evaluate.planted_four_params(n), 1)
        fit = f2ab_fit(g, 20, 0)
        assert fit.selected_k == 4
        assert adjusted_rand_index(fit.map_assignment, planted.labels) >= 0.9
        assert fit.converged
        assert sum(entry["sweeps"] for entry in fit.trace) <= 30

    def test_empty_graph_returns_trivial_fit(self):
        g = Graph(5, [])
        for fit_method in (f2ab_fit, fic_bp_fit, fixed_k_fit):
            fit = fit_method(g, 3, 0)
            assert fit.selected_k == 1 and fit.params.k == 1
            assert fit.warnings[0] == "graph has no edges; returning K=1 fit"
            assert np.array_equal(fit.node_marginals, np.ones((5, 1)))
            report = fit.criteria
            assert not report.degenerate
            for value in (report.ffic_lb, report.fic, report.icl, report.cicl):
                assert np.isfinite(value)

    def test_zero_tolerances_stop_at_an_exact_fixed_point(self):
        # every message of an edgeless or one-cluster fit is fixed after one
        # sweep, and the affinities after at most two M-steps
        opts = BPOptions(tol_msg=0.0, tol_pi=0.0)
        g, _ = generate_sbm(40, [1.0], np.array([[0.2]]), seed=1)
        for graph, k in ((Graph(5, []), 3), (g, 1)):
            for fit_method in (f2ab_fit, fic_bp_fit, fixed_k_fit):
                fit = fit_method(graph, k, 0, opts)
                assert fit.converged
                assert [entry["sweeps"] for entry in fit.trace] in ([1], [1, 1])

    @pytest.mark.parametrize("fit_method", [f2ab_fit, fic_bp_fit, fixed_k_fit])
    def test_rejects_cluster_count_below_one(self, fit_method):
        with pytest.raises(ValueError, match="cluster count must be >= 1"):
            fit_method(two_cliques(3), 0, 0)

    def test_k_active_never_increases(self):
        n = 300
        pi = np.array([[25 / n, 1 / n], [1 / n, 25 / n]])
        g, _ = generate_sbm(n, [0.5, 0.5], pi, seed=4)
        fit = f2ab_fit(g, k_max=8, seed=1)
        ks = [entry["k_active"] for entry in fit.trace]
        assert all(b <= a for a, b in zip(ks, ks[1:]))

    def test_fic_bp_variant_runs_and_prunes(self):
        n = 300
        pi = np.array([[25 / n, 1 / n], [1 / n, 25 / n]])
        g, planted = generate_sbm(n, [0.5, 0.5], pi, seed=6)
        fit = fic_bp_fit(g, k_max=8, seed=2)
        assert fit.method == "fic-bp"
        assert fit.selected_k <= 8

    def test_fixed_k_fit_keeps_k(self):
        g, _ = generate_sbm(100, [0.5, 0.5], np.full((2, 2), 0.08), seed=7)
        fit = fixed_k_fit(g, 3, seed=0)
        assert fit.selected_k == 3
        assert fit.node_marginals.shape == (100, 3)

    def test_fit_determinism(self):
        n = 200
        pi = np.array([[20 / n, 2 / n], [2 / n, 20 / n]])
        g, _ = generate_sbm(n, [0.5, 0.5], pi, seed=9)
        a = f2ab_fit(g, k_max=5, seed=12)
        b = f2ab_fit(g, k_max=5, seed=12)
        assert a.selected_k == b.selected_k
        assert np.array_equal(a.node_marginals, b.node_marginals)
        assert fit_result_to_json(a) == fit_result_to_json(b)

    def test_fit_result_roundtrip(self):
        g, _ = generate_sbm(60, [0.5, 0.5], np.full((2, 2), 0.15), seed=10)
        fit = fixed_k_fit(g, 2, seed=3)
        back = fit_result_from_json(fit_result_to_json(fit))
        assert back.selected_k == fit.selected_k
        assert np.array_equal(back.map_assignment, fit.map_assignment)
        assert back.params.pi == pytest.approx(fit.params.pi, abs=0)
        assert back.criteria.ffic_lb == fit.criteria.ffic_lb
