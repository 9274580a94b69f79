import numpy as np
import pytest

from blockbp import adjusted_rand_index, evaluate, generate_sbm, parse_edge_list, spectral_init
from blockbp import spectral
from blockbp.spectral import EIG_TOL, _normalized_adjacency, kmeans, orthogonal_iteration


def two_cliques(size=25):
    lines = []
    for base in (0, size):
        for i in range(size):
            for j in range(i + 1, size):
                lines.append(f"{base + i} {base + j}")
    return parse_edge_list("\n".join(lines))


class TestSpectralInit:
    def test_two_cliques_separated_exactly(self):
        g = two_cliques()
        labels, params = spectral_init(g, 2, 0)
        truth = np.array([0] * 25 + [1] * 25)
        assert adjusted_rand_index(labels, truth) == pytest.approx(1.0)
        off = params.pi[0, 1]
        assert off == pytest.approx(0.0, abs=1e-15)

    def test_k1_density(self):
        g, _ = generate_sbm(60, [1.0], np.array([[0.1]]), seed=1)
        labels, params = spectral_init(g, 1, 0)
        assert set(labels.tolist()) == {0}
        assert params.pi[0, 0] == pytest.approx(g.m / g.num_pairs, rel=1e-12)

    def test_deterministic_given_seed(self):
        g, _ = generate_sbm(120, [0.5, 0.5], np.full((2, 2), 0.08), seed=2)
        a, pa = spectral_init(g, 3, 9)
        b, pb = spectral_init(g, 3, 9)
        assert np.array_equal(a, b)
        assert np.array_equal(pa.pi, pb.pi)

    def test_labels_in_range(self):
        g, _ = generate_sbm(80, [0.5, 0.5], np.full((2, 2), 0.1), seed=3)
        labels, _ = spectral_init(g, 5, 1)
        assert labels.min() >= 0 and labels.max() < 5

    def test_planted_four_recovery_majority(self):
        n = 800
        pi = np.full((4, 4), 1.0 / n)
        np.fill_diagonal(pi, 20.0 / n)
        hits = 0
        for seed in range(10):
            g, planted = generate_sbm(n, np.full(4, 0.25), pi, seed=seed)
            labels, _ = spectral_init(g, 4, seed)
            if adjusted_rand_index(labels, planted.labels) >= 0.5:
                hits += 1
        assert hits > 5

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            spectral_init(two_cliques(), 0, 0)

    def test_random_fallback_when_iteration_stops_above_tol(self, monkeypatch):
        # no residual falls below a zero tolerance, so the iteration runs to
        # its cap and the labels are drawn at random
        monkeypatch.setattr(spectral, "EIG_TOL", 0.0)
        g, _ = generate_sbm(60, [0.5, 0.5], np.full((2, 2), 0.1), seed=7)
        with pytest.warns(UserWarning, match="did not converge"):
            labels, params = spectral_init(g, 3, 4)
        assert labels.min() >= 0 and labels.max() < 3
        assert params.k == 3
        with pytest.warns(UserWarning, match="did not converge"):
            again, _ = spectral_init(g, 3, 4)
        assert np.array_equal(labels, again)


class TestOrthogonalIteration:
    def test_columns_orthonormal(self):
        g, _ = generate_sbm(150, [0.5, 0.5], np.full((2, 2), 0.1), seed=4)
        op = _normalized_adjacency(g, 2.0)
        q, residual = orthogonal_iteration(op, 150, 4, np.random.default_rng(0))
        gram = q.T @ q
        assert np.max(np.abs(gram - np.eye(4))) < 1e-6

    def test_recovers_dominant_subspace_of_dense_matrix(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 40))
        a = a + a.T
        w, v = np.linalg.eigh(a)
        op = a / np.abs(w).max()  # scale into [-1, 1] like a normalized adjacency
        q, residual = orthogonal_iteration(op, 40, 3, rng)
        assert residual < EIG_TOL
        # Davis-Kahan: ||sin theta||_F <= ||op q - q ritz||_F / gap, where the
        # gap separates the Ritz values from the rest of op's spectrum; the
        # projector distance is sqrt(2) ||sin theta||_F
        ritz = q.T @ op @ q
        frob_residual = np.linalg.norm(op @ q - q @ ritz)
        lam = np.sort(np.linalg.eigvalsh(op))
        gap = np.linalg.eigvalsh(ritz).min() - lam[-4]
        assert gap > 0
        top = v[:, np.argsort(w)[-3:]]
        proj_gap = np.linalg.norm(q @ q.T - top @ top.T)
        assert proj_gap <= np.sqrt(2) * frob_residual / gap

    @pytest.mark.parametrize("tol", [EIG_TOL, 0.0], ids=["stops_at_tol", "runs_to_cap"])
    def test_returns_residual_of_returned_subspace(self, tol, monkeypatch):
        monkeypatch.setattr(spectral, "EIG_TOL", tol)
        n = 600
        g, _ = generate_sbm(n, *evaluate.planted_four_params(n), seed=3)
        op = _normalized_adjacency(g, float(g.degree_sum()) / n)
        q, residual = orthogonal_iteration(op, n, 20, np.random.default_rng(0))
        opq = op @ q
        assert residual == float(np.max(np.abs(opq - q @ (q.T @ opq))))


class TestKmeans:
    def test_separated_blobs(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(0, 0.05, (30, 2)), rng.normal(3, 0.05, (40, 2))])
        labels, cost = kmeans(x, 2, rng)
        assert len(set(labels[:30].tolist())) == 1
        assert len(set(labels[30:].tolist())) == 1
        assert labels[0] != labels[-1]

    def test_ties_break_to_lowest_index(self):
        x = np.zeros((4, 2))  # all identical points
        labels, _ = kmeans(x, 3, np.random.default_rng(0))
        assert set(labels.tolist()) == {0}
