import math

import numpy as np
import pytest

from blockbp import (
    Moments,
    Params,
    expected_joint_log_likelihood,
    generate_sbm,
    hessian_blocks,
    joint_log_likelihood,
    m_step,
    mask_pairs,
    mean_from_natural,
    natural_from_mean,
    parse_edge_list,
)
from blockbp.model import (
    EmptyClusterError,
    bicluster_counts,
    hard_moments,
)
from oracles import (
    Enumeration,
    bicluster_counts_bruteforce,
    expected_ll_bruteforce,
    joint_ll_bruteforce,
    masked_selfloop_graph,
)


def small_graph():
    # n=4, m=3, no self-loops (10 pairs total)
    return parse_edge_list("0 1\n1 2\n2 3")


class TestJointLogLikelihood:
    def test_single_cluster_closed_form(self):
        g = small_graph()
        params = Params(np.array([1.0]), np.array([[0.3]]))
        labels = np.zeros(4, dtype=int)
        expected = 3 * math.log(0.3) + 7 * math.log(0.7)
        assert joint_log_likelihood(g, labels, params) == pytest.approx(expected, abs=1e-12)

    def test_half_affinity_is_label_independent(self):
        g = small_graph()
        params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.5))
        pair_term = g.num_pairs * math.log(0.5)
        for labels in ([0, 0, 0, 0], [0, 1, 0, 1], [1, 1, 0, 0]):
            value = joint_log_likelihood(g, np.array(labels), params)
            prop = sum(math.log(0.5) for _ in range(4))
            assert value == pytest.approx(pair_term + prop, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        g = parse_edge_list("0 1\n1 2")
        params = Params(np.array([0.6, 0.4]), np.array([[0.8, 0.2], [0.2, 0.5]]))
        labels = np.array([0, 0, 1])
        assert joint_log_likelihood(g, labels, params) == pytest.approx(
            joint_ll_bruteforce(g, labels, params), abs=1e-12
        )

    def test_bruteforce_agreement_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g, planted = generate_sbm(8, [0.5, 0.5], np.full((2, 2), 0.4), seed=rng.integers(99))
            params = Params(np.array([0.3, 0.7]), np.clip(rng.uniform(0.05, 0.95, (2, 2)), 0, 1))
            params.pi = (params.pi + params.pi.T) / 2
            labels = rng.integers(0, 2, size=8)
            assert joint_log_likelihood(g, labels, params) == pytest.approx(
                joint_ll_bruteforce(g, labels, params), rel=1e-12
            )

    def test_zero_probability_conflict_returns_neg_inf(self):
        g = parse_edge_list("0 1")
        params = Params(np.array([1.0]), np.array([[0.0]]))
        assert joint_log_likelihood(g, np.zeros(2, dtype=int), params) == float("-inf")

    def test_masked_pairs_excluded(self):
        g = parse_edge_list("0 1\n1 2\n2 3")
        masked = mask_pairs(g, 0.11, seed=1)  # masks ceil(1.1)=2 of 10 pairs
        params = Params(np.array([1.0]), np.array([[0.3]]))
        labels = np.zeros(4, dtype=int)
        e = masked.m
        c = masked.num_pairs - len(masked.masked)
        expected = e * math.log(0.3) + (c - e) * math.log(0.7)
        assert joint_log_likelihood(masked, labels, params) == pytest.approx(expected, abs=1e-12)


class TestExpectedJointLogLikelihood:
    def test_point_mass_reduces_to_hard(self):
        g = small_graph()
        params = Params(np.array([0.6, 0.4]), np.array([[0.7, 0.3], [0.3, 0.6]]))
        labels = np.array([0, 1, 0, 1])
        beliefs = np.eye(2)[labels]
        soft = expected_joint_log_likelihood(g, beliefs, params)
        hard = joint_log_likelihood(g, labels, params)
        assert soft == pytest.approx(hard, abs=1e-10)

    def test_single_cluster_equals_hard(self):
        g = small_graph()
        params = Params(np.array([1.0]), np.array([[0.3]]))
        beliefs = np.ones((4, 1))
        assert expected_joint_log_likelihood(g, beliefs, params) == pytest.approx(
            joint_log_likelihood(g, np.zeros(4, dtype=int), params), abs=1e-12
        )

    def test_matches_bruteforce_with_exact_posterior(self):
        # enumeration posterior supplies node and edge-pair marginals
        g, _ = generate_sbm(7, [0.5, 0.5], np.full((2, 2), 0.35), seed=11)
        params = Params(np.array([0.55, 0.45]), np.array([[0.5, 0.15], [0.15, 0.4]]))
        enum = Enumeration(g, params)
        edge_beliefs = np.array(
            [
                enum.pair_marginal(i, j) if i != j else np.diag(enum.node_marginals[i])
                for i, j in g.edges
            ]
        )
        fast = expected_joint_log_likelihood(
            g, enum.node_marginals, params, edge_beliefs.sum(axis=0)
        )
        slow = expected_ll_bruteforce(g, enum.node_marginals, params, edge_beliefs)
        assert fast == pytest.approx(slow, abs=1e-8)

    def test_bruteforce_with_masked_pairs(self):
        g, _ = generate_sbm(6, [0.5, 0.5], np.full((2, 2), 0.5), seed=2)
        rng = np.random.default_rng(0)
        params = Params(np.array([0.5, 0.5]), np.array([[0.6, 0.2], [0.2, 0.7]]))
        # the second graph's mask holds self-pairs, a former edge and non-edges
        for masked in (mask_pairs(g, 0.1, seed=4), masked_selfloop_graph()):
            beliefs = rng.dirichlet([1, 1], size=masked.n)
            edge_beliefs = rng.dirichlet(np.ones(4), size=masked.m).reshape(-1, 2, 2)
            self_rows = masked.edges[:, 0] == masked.edges[:, 1]
            edge_beliefs[self_rows] = beliefs[masked.edges[self_rows, 0], :, None] * np.eye(2)
            for eb in (None, edge_beliefs):
                eb_sum = None if eb is None else eb.sum(axis=0)
                assert expected_joint_log_likelihood(masked, beliefs, params, eb_sum) == pytest.approx(
                    expected_ll_bruteforce(masked, beliefs, params, eb), abs=1e-9
                )


class TestHardCounts:
    def test_match_pair_walk_bit_for_bit(self):
        g = masked_selfloop_graph()
        n, k = g.n, 3
        double_diag = 1.0 + np.eye(k)
        for labels in ([0, 1, 2, 0, 1, 2, 0], [2, 2, 0, 0, 2, 0, 2], [1] * 7):
            labels = np.array(labels)
            e, c, held = bicluster_counts_bruteforce(g, labels, k)
            got_e, got_c = bicluster_counts(g, labels, k)
            assert np.array_equal(got_e, e) and np.array_equal(got_c, c)
            moments = hard_moments(g, labels, k)
            assert np.array_equal(moments.zbar, np.bincount(labels, minlength=k) / n)
            assert np.array_equal(moments.zzbar, double_diag * e / n**2)
            assert np.array_equal(moments.masked_mass, double_diag * held / n**2)


class TestMStep:
    def test_single_cluster_density(self):
        g = small_graph()
        moments = hard_moments(g, np.zeros(4, dtype=int), 1)
        assert moments.zzbar[0, 0] == pytest.approx(2 * 3 / 16)
        params, empty = m_step(moments)
        assert not empty.any()
        assert params.pi[0, 0] == pytest.approx(0.3)

    def test_single_entry_identity(self):
        # pi_hat * (1 + 1/n) = zzbar for K=1
        g = small_graph()
        moments = hard_moments(g, np.zeros(4, dtype=int), 1)
        params, _ = m_step(moments)
        assert params.pi[0, 0] * (1 + 1 / 4) == pytest.approx(moments.zzbar[0, 0], abs=1e-14)

    def test_point_mass_gives_empirical_proportions(self):
        g, planted = generate_sbm(30, [0.3, 0.7], np.full((2, 2), 0.2), seed=8)
        moments = hard_moments(g, planted.labels, 2)
        params, _ = m_step(moments)
        counts = np.bincount(planted.labels, minlength=2)
        assert params.gamma == pytest.approx(counts / 30, abs=1e-14)

    def test_empty_cluster_flagged_with_neutral_fill(self):
        g = small_graph()
        moments = hard_moments(g, np.zeros(4, dtype=int), 2)  # cluster 1 empty
        params, empty = m_step(moments)
        assert list(empty) == [False, True]
        assert params.pi[1, 1] == pytest.approx(1e-12)

    def test_maximizes_expected_ll_against_grid(self):
        # coordinate-separable grid search at 1e-3 resolution
        rng = np.random.default_rng(17)
        for trial in range(20):
            k = 2 if trial % 2 == 0 else 3
            n = int(rng.integers(10, 60))
            zbar = rng.dirichlet(np.ones(k))
            d = np.outer(zbar, zbar) + np.diag(zbar) / n
            # zzbar uniform within the feasible box [0, d]
            zzbar = d * rng.uniform(0.05, 0.95, size=(k, k))
            zzbar = (zzbar + zzbar.T) / 2
            moments = Moments(zbar, zzbar, n)
            params, _ = m_step(moments)

            grid = np.arange(1, 1000) / 1000.0
            # pi coordinates decouple: check per-entry grid maxima
            scale = n * n / 2.0
            for a in range(k):
                for b in range(a, k):
                    w = 1.0 if a == b else 2.0
                    zz, dd = zzbar[a, b], d[a, b]
                    vals = w * scale * (zz * np.log(grid) + (dd - zz) * np.log1p(-grid))
                    trial_pi = params.pi.copy()
                    base = vals.max() - w * scale * (
                        zz * np.log(trial_pi[a, b]) + (dd - zz) * np.log1p(-trial_pi[a, b])
                    )
                    assert base <= 1e-6
            # gamma grid on the simplex
            if k == 2:
                gvals = n * (zbar[0] * np.log(grid) + zbar[1] * np.log1p(-grid))
                gap = gvals.max() - n * float(zbar @ np.log(params.gamma))
                assert gap <= 1e-6
            else:
                g1, g2 = np.meshgrid(grid, grid, indexing="ij")
                ok = g1 + g2 < 1.0
                lls = n * (
                    zbar[0] * np.log(g1[ok]) + zbar[1] * np.log(g2[ok])
                    + zbar[2] * np.log1p(-(g1[ok] + g2[ok]))
                )
                gap = lls.max() - n * float(zbar @ np.log(params.gamma))
                assert gap <= 1e-6

    def test_mask_adjusted_density(self):
        g, _ = generate_sbm(40, [1.0], np.array([[0.3]]), seed=5)
        masked = mask_pairs(g, 0.05, seed=6)
        params, _ = m_step(hard_moments(masked, np.zeros(40, dtype=int), 1))
        expected = masked.m / (masked.num_pairs - len(masked.masked))
        assert params.pi[0, 0] == pytest.approx(expected, rel=1e-12)


class TestNaturalMeanMaps:
    def test_zero_theta_is_half(self):
        from blockbp.model import NaturalParams

        nat = NaturalParams(np.array([]), np.zeros((1, 1)))
        params = mean_from_natural(nat)
        assert params.pi[0, 0] == pytest.approx(0.5)

    def test_zero_eta_is_uniform(self):
        from blockbp.model import NaturalParams

        nat = NaturalParams(np.zeros(2), np.zeros((3, 3)))
        params = mean_from_natural(nat)
        assert params.gamma == pytest.approx(np.full(3, 1 / 3))

    def test_roundtrip_interior(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            gamma = rng.dirichlet(np.ones(k) * 3)
            pi = rng.uniform(0.05, 0.95, (k, k))
            pi = (pi + pi.T) / 2
            params = Params(gamma, pi)
            nat, clamped = natural_from_mean(params)
            assert not clamped
            back = mean_from_natural(nat)
            assert back.pi == pytest.approx(params.pi, abs=1e-10)
            assert back.gamma == pytest.approx(params.gamma, abs=1e-10)

    def test_boundary_values_clamped_and_flagged(self):
        params = Params(np.array([1.0]), np.array([[0.0]]))
        nat, clamped = natural_from_mean(params)
        assert clamped
        assert np.isfinite(nat.theta).all()

    def test_monotone_componentwise(self):
        pis = np.linspace(0.05, 0.95, 12)
        thetas = [
            natural_from_mean(Params(np.array([1.0]), np.array([[p]])))[0].theta[0, 0]
            for p in pis
        ]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))


class TestHessianBlocks:
    def test_single_cluster_values(self):
        n = 10
        params = Params(np.array([1.0]), np.array([[0.3]]))
        blocks = hessian_blocks(np.zeros(n, dtype=int), params, n)
        assert blocks.f_eta.shape == (0, 0)
        assert blocks.f_theta[0] == pytest.approx(n * (n + 1) / 2 * 0.3 * 0.7)

    def test_half_affinity_is_quarter_mbar(self):
        n = 12
        labels = np.array([0] * 6 + [1] * 6)
        params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.5))
        blocks = hessian_blocks(labels, params, n)
        zbar = np.array([0.5, 0.5])
        for pos, (a, b) in enumerate(blocks.index):
            mbar = n * n / 2 * zbar[a] * (zbar[b] + (1 / n if a == b else 0))
            assert blocks.f_theta[pos] == pytest.approx(mbar / 4)

    def test_empty_cluster_raises_with_name(self):
        params = Params(np.array([0.5, 0.5]), np.full((2, 2), 0.5))
        with pytest.raises(EmptyClusterError, match="cluster 1"):
            hessian_blocks(np.zeros(6, dtype=int), params, 6)

    def test_f_eta_positive_definite_when_occupied(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            gamma = rng.dirichlet(np.ones(k) * 2)
            params = Params(gamma, np.full((k, k), 0.3))
            labels = rng.integers(0, k, size=50)
            labels[:k] = np.arange(k)  # ensure occupancy
            blocks = hessian_blocks(labels, params, 50)
            np.linalg.cholesky(blocks.f_eta)  # raises if not PD

    def test_matches_finite_differences(self):
        # natural-parameter likelihood with the symmetrized full-matrix form;
        # second derivatives at the symmetric point match the analytic blocks
        rng = np.random.default_rng(9)
        n, k = 60, 3
        for _ in range(10):
            labels = rng.integers(0, k, size=n)
            labels[:k] = np.arange(k)
            gamma = rng.dirichlet(np.ones(k) * 4)
            pi = rng.uniform(0.15, 0.85, (k, k))
            pi = (pi + pi.T) / 2
            params = Params(gamma, pi)
            g, _ = generate_sbm(n, np.full(k, 1 / k), np.full((k, k), 0.3), seed=int(rng.integers(99)))

            from blockbp.model import bicluster_counts, label_counts

            e, c = bicluster_counts(g, labels, k)
            counts = label_counts(labels, k)

            def psi(x):
                return np.logaddexp(0.0, x)

            def neg_ll(theta_full, eta):
                # pair part: symmetrized over orientations; proportion part
                val = 0.0
                for a in range(k):
                    for b in range(a, k):
                        if a == b:
                            val += e[a, a] * theta_full[a, a] - c[a, a] * psi(theta_full[a, a])
                        else:
                            val += e[a, b] * (theta_full[a, b] + theta_full[b, a]) / 2
                            val -= c[a, b] * (psi(theta_full[a, b]) + psi(theta_full[b, a])) / 2
                phi = np.log1p(np.sum(np.exp(eta)))
                val += float(counts[:-1] @ eta) - n * phi
                return -val

            nat, _ = natural_from_mean(params)
            blocks = hessian_blocks(labels, params, n)
            h = 1e-4
            for pos, (a, b) in enumerate(blocks.index):
                tp = nat.theta.copy()
                tp[a, b] += h
                up = neg_ll(tp, nat.eta)
                tp[a, b] -= 2 * h
                dn = neg_ll(tp, nat.eta)
                mid = neg_ll(nat.theta, nat.eta)
                fd = (up + dn - 2 * mid) / h**2
                assert fd == pytest.approx(blocks.f_theta[pos], rel=1e-4, abs=1e-8)
            for i in range(k - 1):
                for j in range(k - 1):
                    ei = np.zeros(k - 1)
                    ej = np.zeros(k - 1)
                    ei[i] = h
                    ej[j] = h
                    fd = (
                        neg_ll(nat.theta, nat.eta + ei + ej)
                        - neg_ll(nat.theta, nat.eta + ei - ej)
                        - neg_ll(nat.theta, nat.eta - ei + ej)
                        + neg_ll(nat.theta, nat.eta - ei - ej)
                    ) / (4 * h**2)
                    assert fd == pytest.approx(blocks.f_eta[i, j], rel=2e-4, abs=1e-6)
