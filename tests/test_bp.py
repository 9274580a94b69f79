import json
import warnings
from concurrent.futures import ThreadPoolExecutor

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
from blockbp import bp, criteria, evaluate
from blockbp.bp import (
    MessageUnderflowError,
    fit_result_from_json,
    fit_result_to_json,
)
from blockbp.model import hard_moments, m_step
from oracles import Enumeration, dec_log, per_node_sweep, random_state


def path_graph(n):
    return parse_edge_list("\n".join(f"{i} {i+1}" for i in range(n - 1)))


def fresh_state(graph, k, seed=0):
    return random_state(graph, k, np.random.default_rng(seed))


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


def every_node_linked_graph():
    """n=8: a cycle with three chords and a self-loop on 3; every node has an
    edge to another node, so every node of every colour class has in-messages."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (1, 5), (2, 6), (3, 3)]
    return Graph(8, edges)


def csr_arrays(matrix):
    return matrix.data, matrix.indices, matrix.indptr


def empty_rows(cls):
    """Whether some node of the colour class has no in-message."""
    return bool((np.diff(cls.incidence.indptr) == 0).any())


def one_sweep(params, state, penalty):
    opts = BPOptions(max_sweeps=1, tol_msg=0.0)
    return fabbp_run(params, state, opts, np.random.default_rng(0), penalty)


def constant_penalty(lam):
    """compute_penalty stand-in giving every node the penalty vector lam."""
    return lambda state, nodes, mode, lists=None: np.tile(lam, (len(nodes), 1))


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
            ("max_sweeps", 2.5),
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
        one_sweep(params, state, penalty="none")
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
        one_sweep(params, state, penalty="fab")
        for end in (0, 2):
            # message e runs from src[e] to src[e ^ 1]
            ids = np.arange(state.m_directed)
            src = state.layout.src
            leaf_to_centre = np.flatnonzero((src == end) & (src[ids ^ 1] == 1))[0]
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
            one_sweep(params, state, penalty="fab")
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
            one_sweep(params, state, penalty="fab")
            runs.append(state)
        base, penalized = runs
        assert np.all(penalized.messages[:, 0] < base.messages[:, 0])
        assert np.all(penalized.node_belief[:, 0] < base.node_belief[:, 0])

    @pytest.mark.parametrize("penalty", ["none", "fab"])
    def test_underflow_raises_with_edge_name(self, penalty):
        g = Graph(2, [(0, 1)])
        params = Params(np.array([0.5, 0.5]), np.array([[0.4, 0.1], [0.1, 0.4]]))
        state = fresh_state(g, 2)
        state.messages[:] = np.nan
        with pytest.raises(MessageUnderflowError) as caught:
            one_sweep(params, state, penalty=penalty)
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
        state, _, info = fabbp_run(params, state, opts, np.random.default_rng(6), "none")
        enum = Enumeration(g, params, include_nonedges=False)
        assert np.max(np.abs(state.node_belief - enum.node_marginals)) < 1e-8


class TestColourClasses:
    def graphs(self):
        sbm, _ = generate_sbm(120, [0.5, 0.5], np.array([[0.2, 0.02], [0.02, 0.2]]), seed=3)
        return [isolated_selfloop_graph(), path_graph(7), two_cliques(6), sbm]

    def test_colouring_is_proper_and_partitions_nodes(self):
        for g in self.graphs():
            layout = fresh_state(g, 2).layout
            nodes = np.concatenate([cls.nodes for cls in layout.classes])
            assert np.array_equal(np.sort(nodes), np.arange(g.n))
            colour = np.empty(g.n, dtype=np.int64)
            edges = g.edges[g.edges[:, 0] != g.edges[:, 1]]
            # edge row r's messages i->j and j->i sit at rows 2r and 2r + 1
            assert np.array_equal(layout.src[0::2], edges[:, 0])
            assert np.array_equal(layout.src[1::2], edges[:, 1])
            for c, cls in enumerate(layout.classes):
                colour[cls.nodes] = c
                # in-lists grouped by node: each id's reverse ids ^ 1 is
                # sent by its owner, so each id points into its owner
                assert np.array_equal(cls.src, layout.src[cls.ids])
                assert np.array_equal(layout.src[cls.ids ^ 1], cls.nodes[cls.owner])
            assert np.all(colour[edges[:, 0]] != colour[edges[:, 1]])

    def test_layout_is_built_once_per_graph_and_read_only(self):
        # every state on a graph shares one layout, so no fit may write into it
        g = isolated_selfloop_graph()
        layout = fresh_state(g, 2).layout
        assert fresh_state(g, 3).layout is layout is g.derived(bp.MessageLayout)
        assert fresh_state(Graph(g.n, g.edges), 2).layout is not layout
        arrays = [layout.src, layout.self_loops, *csr_arrays(layout.into)]
        for cls in layout.classes:
            arrays += [cls.nodes, cls.ids, cls.owner, cls.src, *csr_arrays(cls.incidence)]
        assert layout.self_loops.size and not any(a.flags.writeable for a in arrays)

    def test_colouring_draws_nothing_from_the_rng(self):
        g = isolated_selfloop_graph()
        rng = np.random.default_rng(5)
        state = random_state(g, 3, rng)
        # the message and belief draws are all the state takes
        reference = np.random.default_rng(5)
        reference.uniform(size=(state.m_directed, 3))
        reference.uniform(size=(g.n, 3))
        assert rng.uniform() == reference.uniform()

    @staticmethod
    def check_class_sweep(g, include_field, penalized, monkeypatch):
        # plain sweeps: the gamma prior, undamped on a fresh state and damped
        # by PLAIN_DAMPING on one already switched to damping; penalized
        # sweeps with a zero penalty: the live prior, undamped on both
        pi = np.array([[0.6, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.7]])
        params = Params(np.array([0.5, 0.3, 0.2]), pi)
        monkeypatch.setattr(bp, "compute_penalty", constant_penalty(np.zeros(3)))
        if not include_field:
            monkeypatch.setattr(bp, "external_field", no_field)
        opts = BPOptions(max_sweeps=1, tol_msg=0.0)
        for state_damping in (0.0, bp.PLAIN_DAMPING):
            state = fresh_state(g, 3, seed=4)
            state.damping = state_damping
            order = np.random.default_rng(7).permutation(len(state.layout.classes))
            damping = 0.0 if penalized else state_damping
            msgs, beliefs = per_node_sweep(state, params, order, damping, include_field, penalized)
            fabbp_run(params, state, opts, np.random.default_rng(7), "fab" if penalized else "none")
            assert np.max(np.abs(state.messages - msgs)) < 1e-12
            assert np.max(np.abs(state.node_belief - beliefs)) < 1e-12

    @pytest.mark.parametrize("include_field", [False, True])
    @pytest.mark.parametrize("penalized", [False, True])
    def test_class_sweep_matches_per_node_reference(self, include_field, penalized, monkeypatch):
        # isolated nodes: some class holds a node without in-messages (an
        # empty incidence row), whose in-message sum is zero
        g = isolated_selfloop_graph()
        assert any(empty_rows(cls) for cls in fresh_state(g, 3).layout.classes)
        self.check_class_sweep(g, include_field, penalized, monkeypatch)

    @pytest.mark.parametrize("include_field", [False, True])
    @pytest.mark.parametrize("penalized", [False, True])
    def test_all_linked_class_sweep_matches_per_node_reference(
        self, include_field, penalized, monkeypatch
    ):
        # every node linked: no class holds an empty incidence row
        g = every_node_linked_graph()
        assert not any(empty_rows(cls) for cls in fresh_state(g, 3).layout.classes)
        self.check_class_sweep(g, include_field, penalized, monkeypatch)


class TestComputePenalty:
    def test_single_cluster_value_against_high_precision(self):
        # n=10 path graph: m=9 edges, node 3 has degree 2
        g = path_graph(10)
        state = fresh_state(g, 1)
        state.node_belief[:] = 1.0
        state.h = state.node_belief.sum(axis=0)
        params = Params(np.array([1.0]), np.array([[0.2]]))
        state.refresh_moments(params)
        lam = compute_penalty(state, 3)
        d = 2  # degree of node 3
        t = 10.0  # h - b + 1
        big_t = 2 * 9 - d + 1  # n^2 * zzbar - own contribution + 1
        expected = float(
            (dec_log((t + 1) / t) + dec_log((big_t + d) / big_t)) / 2
        )
        assert lam[0] == pytest.approx(expected, abs=1e-12)
        assert np.all(np.isfinite(lam)) and np.all(lam > 0)

    def test_penalty_strictly_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(1, 6))
            g, _ = generate_sbm(n, np.full(k, 1 / k), np.full((k, k), 0.3), seed=int(rng.integers(999)))
            state = fresh_state(g, k, seed=int(rng.integers(999)))
            params = Params(np.full(k, 1 / k), np.full((k, k), 0.3))
            state.refresh_moments(params)
            lam = compute_penalty(state, int(rng.integers(n)))
            assert np.all(lam > 0)
            assert np.all(np.isfinite(lam))

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
        lam = compute_penalty(state, node)
        nbr = state.neighbor_belief_sum(node)
        simple = 0.5 * np.log1p(1.0 / state.h) + 0.5 * np.log1p(
            nbr[None, :] / np.clip(n * n * state.zzbar_cache, 1.0, None)
        ).sum(axis=1)
        rel = np.abs(lam - simple) / np.abs(lam)
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
        lam = compute_penalty(state, node, "fic")
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
                assert single.shape == (3,)
                assert batch[row] == pytest.approx(single, rel=1e-15)
                assert np.all(np.isfinite(single)) and np.all(single > 0)


class TestFabbpRun:
    def test_k1_converges_immediately(self):
        g, _ = generate_sbm(40, [1.0], np.array([[0.2]]), seed=1)
        params = Params(np.array([1.0]), np.array([[0.2]]))
        state = fresh_state(g, 1)
        state, _, info = fabbp_run(params, state, BPOptions(), np.random.default_rng(0), "fab")
        assert info["sweeps"] <= 2 and info["stop"] == "tol"
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
        state, _, _ = fabbp_run(params, state, opts, np.random.default_rng(8), "fab")
        mass_at_5 = np.sort(state.h)[:2].sum()  # two smallest clusters
        opts = BPOptions(tol_msg=0.0, max_sweeps=15)
        state, _, _ = fabbp_run(params, state, opts, np.random.default_rng(9), "fab")
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
        state, working, _ = fabbp_run(params, state, opts, np.random.default_rng(4), "fab")
        assert state.k_active == 1
        assert working.gamma.tolist() == [0.999]
        assert working.k == 1

    def test_planted_two_blocks_from_eight(self):
        n = 400
        pi = np.array([[30 / n, 1 / n], [1 / n, 30 / n]])
        g, planted = generate_sbm(n, [0.5, 0.5], pi, seed=0)
        fit = f2ab_fit(g, k_max=8, seed=0)
        assert fit.selected_k in (2, 3)
        assert adjusted_rand_index(fit.map_assignment, planted.labels) >= 0.9

    @pytest.mark.parametrize("penalty", ["none", "fab", "fic"])
    def test_incremental_zbar_drift_bounded(self, monkeypatch, penalty):
        # every mode refreshes both caches once per sweep, at its boundary,
        # where the incremental h may differ from the exact summed beliefs
        # only by rounding, relative to n
        g, _ = generate_sbm(150, [0.5, 0.5], np.full((2, 2), 0.08), seed=5)
        params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.08))
        state = fresh_state(g, 2, seed=6)
        drifts = []
        refresh = BeliefState.refresh_moments

        def recording(state, params):
            drifts.append(float(np.max(np.abs(state.h - state.node_belief.sum(axis=0)) / state.n)))
            return refresh(state, params)

        monkeypatch.setattr(BeliefState, "refresh_moments", recording)
        opts = BPOptions(tol_msg=0.0, max_sweeps=10)
        state, _, info = fabbp_run(params, state, opts, np.random.default_rng(7), penalty)
        assert len(drifts) == info["sweeps"]
        if penalty == "fab":
            assert len(drifts) == 10
        assert max(drifts) < 1e-6

    def test_plain_run_ends_with_exact_moment_caches(self):
        # the last sweep boundary leaves both caches exactly what
        # refresh_moments gives on the same state
        g, _ = generate_sbm(150, [0.5, 0.5], np.array([[0.1, 0.03], [0.03, 0.1]]), seed=5)
        params = Params(np.array([0.5, 0.5]), np.array([[0.1, 0.03], [0.03, 0.1]]))
        state = fresh_state(g, 2, seed=6)
        opts = BPOptions(tol_msg=0.0, max_sweeps=6)
        state, _, info = fabbp_run(params, state, opts, np.random.default_rng(7), "none")
        assert info["sweeps"] == 6
        h, zzbar = state.h.copy(), state.zzbar_cache.copy()
        state.refresh_moments(params)
        assert np.array_equal(state.h, h)
        assert np.array_equal(state.zzbar_cache, zzbar)

    @pytest.mark.parametrize("penalty", ["none", "fab", "fic"])
    def test_class_update_writes_h_and_no_zzbar_cache(self, penalty):
        # within a sweep zzbar_cache keeps its sweep-start value in every
        # mode; only h takes each class's belief change
        g, _ = generate_sbm(150, [0.5, 0.5], np.array([[0.1, 0.03], [0.03, 0.1]]), seed=5)
        params = Params(np.array([0.5, 0.5]), np.array([[0.1, 0.03], [0.03, 0.1]]))
        state = fresh_state(g, 2, seed=6)
        state.refresh_moments(params)
        h, zzbar = state.h.copy(), state.zzbar_cache.copy()
        for cls in state.layout.classes:
            bp._update_class(state, cls, params, penalty)
            assert np.array_equal(state.zzbar_cache, zzbar)
        assert not np.array_equal(state.h, h)
        np.testing.assert_allclose(state.h, state.node_belief.sum(axis=0), rtol=1e-12)

    def test_edge_contraction_sums_every_edge_row(self):
        # self-loop rows (3, 3), (6, 6) and (9, 9) hold diag(b_i), as in edge_beliefs
        g = isolated_selfloop_graph()
        pi = np.array([[0.6, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.7]])
        params = Params(np.full(3, 1 / 3), pi)
        state = fresh_state(g, 3, seed=4)
        _, s = state.edge_contraction(params)
        np.testing.assert_allclose(s, state.edge_beliefs(params).sum(axis=0), rtol=1e-12)

    def test_rejects_unknown_penalty_mode(self):
        g = path_graph(4)
        params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.3))
        with pytest.raises(ValueError, match="unknown penalty mode 'FAB'"):
            fabbp_run(params, fresh_state(g, 2), BPOptions(), np.random.default_rng(0), "FAB")

    def test_plain_damping_turns_on_at_the_first_rising_sweep(self, monkeypatch):
        # dense n=12 graph: undamped messages oscillate; record the damping
        # each class update reads and the message change it returns
        g, _ = generate_sbm(12, [1.0], np.array([[0.5]]), seed=1)
        calls = []
        update = bp._update_class

        def recording(state, cls, params, penalty):
            calls.append((state.damping, update(state, cls, params, penalty)))
            return calls[-1][1]

        def run(penalty, pi):
            # one 20-sweep run from a fresh state; per sweep, its mean
            # message change and the damping values its updates read
            calls.clear()
            state = fresh_state(g, 2, seed=1)
            params = Params(np.array([0.5, 0.5]), np.array(pi))
            opts = BPOptions(tol_msg=0.0, max_sweeps=20)
            state, params, info = fabbp_run(params, state, opts, np.random.default_rng(2), penalty)
            size, m_edges = len(state.layout.classes), state.m_directed // 2
            sweeps = [calls[i : i + size] for i in range(0, len(calls), size)]
            change = [sum(delta for _, delta in sweep) / m_edges for sweep in sweeps]
            seen = [{damping for damping, _ in sweep} for sweep in sweeps]
            rise = next(s for s in range(1, len(change)) if change[s] >= change[s - 1])
            return state, params, info, seen, rise

        monkeypatch.setattr(bp, "_update_class", recording)
        # plain: undamped through the first sweep whose change does not
        # fall, damped from the next one on
        state, params, info, seen, rise = run("none", [[0.75, 0.35], [0.35, 0.65]])
        assert 1 < rise < len(seen) - 1
        assert seen == [{0.0}] * (rise + 1) + [{bp.PLAIN_DAMPING}] * (len(seen) - rise - 1)
        assert info["damped"] is True
        # ... and a later run on the same state starts damped
        calls.clear()
        opts = BPOptions(tol_msg=0.0, max_sweeps=2)
        fabbp_run(params, state, opts, np.random.default_rng(3), "none")
        assert {damping for damping, _ in calls} == {bp.PLAIN_DAMPING}
        # penalized: never damped, though its change rises at once under
        # these sharper affinities
        state, _, info, seen, _ = run("fab", [[0.9, 0.2], [0.2, 0.8]])
        assert seen == [{0.0}] * len(seen)
        assert state.damping == 0.0 and info["damped"] is False

        # a whole fit records whether each run ended damped: once on,
        # damping stays on; penalized fits never damp.  Two blocks: the
        # single-block graph's plain fit starts from one cluster and settles
        g, _ = generate_sbm(12, [0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]], seed=3)
        damped = [entry["damped"] for entry in fixed_k_fit(g, 2, 1).trace]
        assert True in damped and damped == sorted(damped)
        assert not any(entry["damped"] for entry in f2ab_fit(g, 2, 1).trace)

    def test_messages_stay_normalized(self):
        # one plain sweep (undamped: a run's first sweep has nothing to
        # compare with), then one penalized sweep
        g, _ = generate_sbm(60, [0.5, 0.5], np.full((2, 2), 0.1), seed=8)
        params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.1))
        state = fresh_state(g, 2, seed=9)
        opts = BPOptions(max_sweeps=1, tol_msg=0.0)
        for penalty in ("none", "fab"):
            state, _, info = fabbp_run(params, state, opts, np.random.default_rng(10), penalty)
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

    def test_concurrent_fits_leave_warning_filters_alone(self):
        # four threads fit one shared graph at the same seeds: each thread
        # gets the same bytes, and no fit touches the process-wide filters
        n = 200
        g, _ = generate_sbm(n, *evaluate.planted_four_params(n), 0)
        before = list(warnings.filters)

        def fits(_):
            return [fit_result_to_json(f2ab_fit(g, 6, seed)) for seed in range(5)]

        with ThreadPoolExecutor(4) as pool:
            runs = list(pool.map(fits, range(4)))
        assert warnings.filters == before
        assert all(run == runs[0] for run in runs)

    def test_planted_four_at_n_20000_prunes_in_few_sweeps(self):
        # scale-ladder regression: from k_max=20 the spectral partition on the
        # columns above the bulk edge prunes to the planted four in 15 sweeps
        # (54 when k-means clustered all 20 columns)
        n = 20000
        g, planted = generate_sbm(n, *evaluate.planted_four_params(n), 1)
        fit = f2ab_fit(g, 20, 0)
        assert fit.selected_k == 4
        assert adjusted_rand_index(fit.map_assignment, planted.labels) >= 0.9
        assert fit.stop == "tol"
        assert sum(entry["sweeps"] for entry in fit.trace) <= 30

    def test_dense_structureless_graph_settles_at_one_cluster(self):
        # Erdős–Rényi: no structure, so the spectral start has one occupied
        # cluster, the bound keeps K=1, and the messages settle well inside
        # the sweep budget; a plain fit keeps its K, with the extra clusters
        # empty
        for fit_method, n, p, k, seed in (
            (f2ab_fit, 42, 0.4, 20, 504548),
            (f2ab_fit, 51, 0.4, 20, 509447),
            (fixed_k_fit, 60, 0.1, 3, 3),
        ):
            g, _ = generate_sbm(n, [1.0], [[p]], seed)
            fit = fit_method(g, k, seed)
            if fit_method is f2ab_fit:
                assert fit.selected_k == 1, n
            assert fit.stop == "tol", n
            assert sum(entry["sweeps"] for entry in fit.trace) <= BPOptions().max_sweeps

    @pytest.mark.parametrize(
        "n, c, seed", [(300, 4, 0), (300, 4, 1), (1000, 8, 0), (1000, 8, 1)]
    )
    def test_sparse_structureless_graph_selects_one_cluster(self, n, c, seed):
        # Erdős–Rényi at mean degree c: only the Perron Ritz value clears the
        # bulk edge, so the one-pass fit and the cicl sweep both select K=1
        g, _ = generate_sbm(n, [1.0], [[c / n]], seed)
        fit = f2ab_fit(g, 20, seed)
        assert fit.selected_k == 1
        assert fit.stop == "tol"
        assert evaluate.fit_with_method(g, "cicl", 4, seed).selected_k == 1

    @pytest.mark.parametrize(
        "fit_method, n, p, k, seed",
        [
            pytest.param(f2ab_fit, 51, 0.4, 20, 509447, id="51-509447"),
            pytest.param(fixed_k_fit, 60, 0.1, 3, 3, id="fixed-k-60-3"),
        ],
    )
    def test_structureless_graph_ends_on_the_sweep_budget(self, fit_method, n, p, k, seed):
        # the same Erdős–Rényi graphs settle on tol after 4 and 42 sweeps;
        # a budget of three stops both first and names the budget
        g, _ = generate_sbm(n, [1.0], [[p]], seed)
        fit = fit_method(g, k, seed, BPOptions(max_sweeps=3))
        assert fit.stop == "budget"
        assert sum(entry["sweeps"] for entry in fit.trace) == 3

    @pytest.mark.parametrize("fit_method, k", [(f2ab_fit, 20), (fixed_k_fit, 6)])
    def test_fit_ends_on_the_sweep_budget(self, fit_method, k):
        # three sweeps are too few for the planted graph's messages to settle
        n = 600
        g, _ = generate_sbm(n, *evaluate.planted_four_params(n), 1)
        fit = fit_method(g, k, 0, BPOptions(max_sweeps=3))
        assert fit.stop == "budget"
        assert sum(entry["sweeps"] for entry in fit.trace) == 3

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
                assert fit.stop == "tol"
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

    def test_planted_four_isolated_nodes_hold_no_cluster(self):
        # regression over the 40 seeds recorded when penalized fits kept a
        # cluster held only by nodes without an edge to another node
        n = 600
        for seed in range(100, 140):
            g, _ = generate_sbm(n, *evaluate.planted_four_params(n), seed)
            fit = f2ab_fit(g, 20, seed)
            assert fit.selected_k == 4, seed
            pairs = g.edges[g.edges[:, 0] != g.edges[:, 1]]
            linked = np.bincount(pairs.reshape(-1), minlength=n) > 0
            for c in range(fit.selected_k):
                assert linked[fit.map_assignment == c].any(), (seed, c)

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

    @pytest.mark.parametrize("fit_method", [f2ab_fit, fic_bp_fit, fixed_k_fit])
    def test_every_fit_starts_from_the_spectral_partition(self, fit_method, monkeypatch):
        # penalized fits start from the partition mixed with the uniform
        # distribution; plain fits from its one-hot rows and the M-step of
        # the hard partition
        from blockbp.spectral import spectral_init

        n, k, seed = 200, 4, 5
        pi = np.array([[20 / n, 2 / n], [2 / n, 20 / n]])
        g, _ = generate_sbm(n, [0.5, 0.5], pi, seed=9)
        spectral_seed = np.random.SeedSequence(seed).spawn(3)[0].generate_state(1)[0]
        labels = spectral_init(g, k, spectral_seed)
        hard_params, _ = m_step(hard_moments(g, labels, k))
        starts = []
        init = BeliefState.__init__

        def recording(state, graph, beliefs, params):
            starts.append((np.array(beliefs), params))
            init(state, graph, beliefs, params)

        monkeypatch.setattr(BeliefState, "__init__", recording)
        fit_method(g, k, seed)
        assert len(starts) == 1
        beliefs, params = starts[0]
        confidence = 1.0 if fit_method is fixed_k_fit else bp.START_CONFIDENCE
        expected = np.full((n, k), (1.0 - confidence) / k)
        expected[np.arange(n), labels] += confidence
        assert np.array_equal(beliefs, expected)
        assert np.array_equal(np.argmax(beliefs, axis=1), labels)
        if fit_method is fixed_k_fit:
            assert params.gamma == pytest.approx(hard_params.gamma, rel=1e-12)
            assert params.pi == pytest.approx(hard_params.pi, rel=1e-12)

    def test_fits_never_call_the_lower_bound(self, monkeypatch):
        # the bound is computed once, inside criterion_report; the driver's
        # loop must not evaluate it per outer iteration
        def refuse(*_args):
            raise AssertionError("ffic_lower_bound called during a fit")

        monkeypatch.setattr(criteria, "ffic_lower_bound", refuse)
        n = 300
        pi = np.array([[25 / n, 1 / n], [1 / n, 25 / n]])
        g, _ = generate_sbm(n, [0.5, 0.5], pi, seed=4)
        for fit_method in (f2ab_fit, fic_bp_fit, fixed_k_fit):
            fit = fit_method(g, 6, 1)
            assert np.isfinite(fit.criteria.ffic_lb)

    def test_trace_entry_keys(self):
        # delta_pi is recorded exactly when K held through the outer iteration
        n = 300
        pi = np.array([[25 / n, 1 / n], [1 / n, 25 / n]])
        g, _ = generate_sbm(n, [0.5, 0.5], pi, seed=4)
        fit = f2ab_fit(g, k_max=8, seed=1)
        base = {"outer", "sweeps", "mean_delta", "stop", "damped", "k_active"}
        k_before = 8
        for index, entry in enumerate(fit.trace):
            held = entry["k_active"] == k_before
            assert set(entry) == (base | {"delta_pi"} if held else base)
            assert entry["damped"] is False  # penalized runs never damp
            assert entry["outer"] == index
            k_before = entry["k_active"]
        assert fit.trace[0]["k_active"] < 8  # some entries lack delta_pi
        assert "delta_pi" in fit.trace[-1]

    def test_trace_with_criterion_key_still_loads(self):
        # older fit.json files carry a "criterion" value in every trace entry,
        # a "converged" flag in place of the stop reasons and no "damped"
        g, _ = generate_sbm(60, [0.5, 0.5], np.full((2, 2), 0.15), seed=10)
        text = fit_result_to_json(fixed_k_fit(g, 2, seed=3))
        # files from the releases with stall guards name "stall" as the
        # reason of the fit and of its runs; a stored reason loads as it is
        payload = json.loads(text)
        payload["stop"] = "stall"
        for entry in payload["trace"]:
            entry["stop"] = "stall"
        back = fit_result_from_json(json.dumps(payload))
        assert back.stop == "stall"
        assert back.trace == payload["trace"]

        payload = json.loads(text)
        del payload["stop"]
        for entry in payload["trace"]:
            del entry["stop"], entry["damped"]
            entry["criterion"] = -123.5
        for converged, stop in ((True, "tol"), (False, None)):
            payload["converged"] = converged
            back = fit_result_from_json(json.dumps(payload))
            assert back.stop == stop
            assert back.trace == payload["trace"]
            assert back.criteria.ffic_lb == payload["criteria"]["ffic_lb"]

    def test_fit_result_roundtrip(self):
        g, _ = generate_sbm(60, [0.5, 0.5], np.full((2, 2), 0.15), seed=10)
        fit = fixed_k_fit(g, 2, seed=3)
        back = fit_result_from_json(fit_result_to_json(fit))
        assert back.selected_k == fit.selected_k
        assert np.array_equal(back.map_assignment, fit.map_assignment)
        assert back.params.pi == pytest.approx(fit.params.pi, abs=0)
        assert back.criteria.ffic_lb == fit.criteria.ffic_lb
        assert back.stop == fit.stop
