import warnings

import numpy as np
import pytest

from blockbp import Graph, adjusted_rand_index, evaluate, f2ab_fit, generate_sbm, parse_edge_list, spectral_init
from blockbp import spectral
from blockbp.model import hard_moments, m_step
from blockbp.spectral import EIG_TOL, _bulk_edge, _normalized_adjacency, kmeans, orthogonal_iteration
from oracles import dense_top_subspace, kmeans_reference


def planted_operator(seed, n=600):
    g, _ = generate_sbm(n, *evaluate.planted_four_params(n), seed=seed)
    return _normalized_adjacency(g, float(g.degree_sum()) / n)


def same_state(rng):
    """A generator that draws the same stream as `rng` from here on."""
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def two_cliques(size=25):
    lines = []
    for base in (0, size):
        for i in range(size):
            for j in range(i + 1, size):
                lines.append(f"{base + i} {base + j}")
    return parse_edge_list("\n".join(lines))


def captured_signal(q, labels):
    """||q^T U||_F^2 for U the column-normalized one-hot planted labels: the
    planted signal a subspace holds, at most the number of planted blocks."""
    u = np.eye(labels.max() + 1)[labels]
    return float(np.linalg.norm(q.T @ (u / np.linalg.norm(u, axis=0))) ** 2)


def assert_within_davis_kahan(op, q, k):
    """Davis-Kahan: ||sin theta||_F <= ||op q - q ritz||_F / gap, where the gap
    separates the Ritz values from the rest of op's spectrum; the projector
    distance to the dense top-k eigenvectors is sqrt(2) ||sin theta||_F."""
    top, next_eigenvalue = dense_top_subspace(op, k)
    ritz = q.T @ (op @ q)
    frob_residual = np.linalg.norm(op @ q - q @ ritz)
    gap = np.linalg.eigvalsh(ritz).min() - next_eigenvalue
    assert gap > 0
    proj_gap = np.linalg.norm(q @ q.T - top @ top.T)
    assert proj_gap <= np.sqrt(2) * frob_residual / gap


@pytest.fixture
def eig_runs(monkeypatch):
    """The (q, residual, theta) of every orthogonal_iteration call spectral_init makes."""
    runs = []

    def recorded(*args):
        runs.append(orthogonal_iteration(*args))
        return runs[-1]

    monkeypatch.setattr(spectral, "orthogonal_iteration", recorded)
    return runs


@pytest.fixture
def kmeans_inputs(monkeypatch):
    """The embedding x of every kmeans call spectral_init makes."""
    inputs = []

    def recorded(x, k, rng):
        inputs.append(x.copy())
        return kmeans(x, k, rng)

    monkeypatch.setattr(spectral, "kmeans", recorded)
    return inputs


def row_normalized(q):
    return q / np.clip(np.linalg.norm(q, axis=1, keepdims=True), 1e-12, None)


class FixedStart:
    """Stands in for a Generator: the start block is the given matrix."""

    def __init__(self, start):
        self.start = np.asarray(start, dtype=np.float64)

    def standard_normal(self, shape):
        assert shape == self.start.shape
        return self.start.copy()


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# graphs whose operator has repeated eigenvalues, a symmetric spectrum or a
# null space, each with the cluster count spectral_init is asked for
DEGENERATE_GRAPHS = {
    "perfect_matching": (Graph(12, [(i, i + 1) for i in range(0, 12, 2)]), 3),
    "complete": (complete_graph(8), 3),
    "star": (Graph(9, [(0, i) for i in range(1, 9)]), 4),
    "two_cliques": (two_cliques(5), 3),
    "k_at_n_after_clamping": (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 8),
    "isolated_and_selfloop_only": (Graph(9, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 4), (5, 5)]), 4),
    # no edge between two nodes, so the mean degree tau is 0
    "selfloops_only": (Graph(6, [(i, i) for i in range(6)]), 3),
    # tau is 0 and the isolated node's degree is 0 as well
    "selfloops_and_isolated": (Graph(5, [(i, i) for i in range(4)]), 3),
}


class TestSpectralInit:
    def test_two_cliques_separated_exactly(self):
        g = two_cliques()
        labels = spectral_init(g, 2, 0)
        params, _ = m_step(hard_moments(g, labels, 2))
        truth = np.array([0] * 25 + [1] * 25)
        assert adjusted_rand_index(labels, truth) == pytest.approx(1.0)
        off = params.pi[0, 1]
        assert off == pytest.approx(0.0, abs=1e-15)

    def test_k1_density(self):
        g, _ = generate_sbm(60, [1.0], np.array([[0.1]]), seed=1)
        labels = spectral_init(g, 1, 0)
        params, _ = m_step(hard_moments(g, labels, 1))
        assert set(labels.tolist()) == {0}
        assert params.pi[0, 0] == pytest.approx(g.m / g.num_pairs, rel=1e-12)

    def test_deterministic_given_seed(self):
        g, _ = generate_sbm(120, [0.5, 0.5], np.full((2, 2), 0.08), seed=2)
        a = spectral_init(g, 3, 9)
        b = spectral_init(g, 3, 9)
        assert np.array_equal(a, b)

    def test_labels_in_range(self):
        g, _ = generate_sbm(80, [0.5, 0.5], np.full((2, 2), 0.1), seed=3)
        labels = spectral_init(g, 5, 1)
        assert labels.min() >= 0 and labels.max() < 5

    def test_planted_four_recovery_majority(self):
        n = 800
        pi = np.full((4, 4), 1.0 / n)
        np.fill_diagonal(pi, 20.0 / n)
        hits = 0
        for seed in range(10):
            g, planted = generate_sbm(n, np.full(4, 0.25), pi, seed=seed)
            labels = spectral_init(g, 4, seed)
            if adjusted_rand_index(labels, planted.labels) >= 0.5:
                hits += 1
        assert hits > 5

    def test_operator_is_built_once_per_graph_and_read_only(self):
        g, _ = generate_sbm(120, [0.5, 0.5], np.full((2, 2), 0.08), seed=2)
        spectral_init(g, 3, 9)
        op, edge = g.derived(spectral._operator)
        assert g.derived(spectral._operator)[0] is op
        assert not any(a.flags.writeable for a in (op.data, op.indices, op.indptr))
        reference = _normalized_adjacency(g, float(g.degree_sum()) / g.n)
        assert (op != reference).nnz == 0 and edge == _bulk_edge(reference)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            spectral_init(two_cliques(), 0, 0)

    def test_graph_without_edges_gets_label_zero(self):
        labels = spectral_init(Graph(6, []), 3, 0)
        assert labels.dtype == np.int64 and labels.tolist() == [0] * 6

    def test_iteration_at_its_cap_still_gives_the_partition(self, monkeypatch):
        # no residual falls below a zero tolerance, so the iteration runs to
        # its cap; k-means clusters the Ritz vectors it stopped with
        g, _ = generate_sbm(200, [0.5, 0.5], [[0.1, 0.01], [0.01, 0.1]], seed=7)
        converged = spectral_init(g, 3, 4)
        monkeypatch.setattr(spectral, "EIG_TOL", 0.0)
        labels = spectral_init(g, 3, 4)
        assert labels.shape == (g.n,) and labels.min() >= 0 and labels.max() < 3
        assert adjusted_rand_index(labels, converged) == pytest.approx(1.0)

    def test_fit_from_a_capped_iteration_records_no_warning(self, monkeypatch):
        # the fit starts from the capped iteration's partition without a
        # warning, and FitResult.warnings stays empty
        g, _ = generate_sbm(200, [0.5, 0.5], [[0.1, 0.01], [0.01, 0.1]], seed=7)
        monkeypatch.setattr(spectral, "EIG_TOL", 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = f2ab_fit(g, 6, 0)
        assert fit.warnings == []
        assert fit.selected_k == 2

    def test_planted_four_recovered_at_n_50000(self, eig_runs):
        n = 50000
        g, planted = generate_sbm(n, *evaluate.planted_four_params(n), seed=1)
        labels = spectral_init(g, 4, 0)
        (q, residual, _), = eig_runs
        assert residual < EIG_TOL
        assert captured_signal(q, planted.labels) >= 2.9
        assert adjusted_rand_index(labels, planted.labels) >= 0.85

    @pytest.mark.parametrize("name", list(DEGENERATE_GRAPHS))
    def test_degenerate_spectrum(self, name, eig_runs):
        # finite orthonormal q, a residual below EIG_TOL and a partition
        # with finite parameters on every graph
        g, k = DEGENERATE_GRAPHS[name]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            labels = spectral_init(g, k, 0)
        (q, residual, _), = eig_runs
        assert np.all(np.isfinite(q)) and residual < EIG_TOL
        assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) < 1e-12
        assert not caught
        params, _ = m_step(hard_moments(g, labels, k))
        assert labels.shape == (g.n,) and labels.min() >= 0 and labels.max() < k
        assert np.all(np.isfinite(params.pi)) and np.all(np.isfinite(params.gamma))


class TestBulkEdgeColumns:
    """k-means clusters the Perron Ritz vector (the largest Ritz value) and the
    Ritz vectors above the bulk edge 2 sqrt(tr(op^2) / n)."""

    @staticmethod
    def bulk_edge(g):
        return _bulk_edge(_normalized_adjacency(g, float(g.degree_sum()) / g.n))

    def test_edge_at_constant_degree_is_one_over_sqrt_tau(self):
        # circulant: each node joined to the three nearest on either side, so
        # every degree is c = tau = 6 and the edge is 2 sqrt(c) / (c + tau)
        n = 50
        g = Graph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2, 3)])
        assert self.bulk_edge(g) == pytest.approx(1.0 / np.sqrt(6.0), rel=1e-12)

    def test_planted_k20_clusters_the_four_columns_above_the_edge(self, eig_runs, kmeans_inputs):
        n = 600
        g, _ = generate_sbm(n, *evaluate.planted_four_params(n), seed=1)
        spectral_init(g, 20, 0)
        (q, _, theta), = eig_runs
        (x,) = kmeans_inputs
        above = theta > self.bulk_edge(g)
        assert above.sum() == 4
        assert np.array_equal(x, row_normalized(q[:, above]))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_planted_small_k_keeps_every_column(self, k, eig_runs, kmeans_inputs):
        n = 600
        g, _ = generate_sbm(n, *evaluate.planted_four_params(n), seed=2)
        labels = spectral_init(g, k, 5)
        (q, _, theta), = eig_runs
        (x,) = kmeans_inputs
        assert (theta > self.bulk_edge(g)).all()
        assert np.array_equal(x, row_normalized(q))
        # the labels of clustering every column, as before the rule
        rng = np.random.default_rng(5)
        op = _normalized_adjacency(g, float(g.degree_sum()) / n)
        q_ref, _, _ = orthogonal_iteration(op, n, k, rng)
        labels_ref, _ = kmeans(row_normalized(q_ref), k, rng)
        assert np.array_equal(labels, labels_ref)

    def test_planted_column_under_one_over_sqrt_tau_is_kept(self, eig_runs, kmeans_inputs):
        # at n=400 the fourth planted Ritz value, 0.407, sits under the
        # constant-degree edge 1/sqrt(tau) = 0.409 but above the edge over
        # the actual degrees, 0.392; the bulk starts at 0.371
        n = 400
        g, _ = generate_sbm(n, *evaluate.planted_four_params(n), seed=29)
        spectral_init(g, 4, 0)
        (q, _, theta), = eig_runs
        (x,) = kmeans_inputs
        assert theta.min() * np.sqrt(g.degree_sum() / n) < 1.0
        assert (theta > self.bulk_edge(g)).all()
        assert np.array_equal(x, row_normalized(q))
        spectral_init(g, 20, 0)
        assert (eig_runs[1][2] > self.bulk_edge(g)).sum() == 4
        assert kmeans_inputs[1].shape == (n, 4)

    def test_structureless_graph_clusters_the_perron_column(self, eig_runs, kmeans_inputs):
        # Erdos-Renyi: only the top Ritz value (the degree direction) clears,
        # and the seven columns inside the bulk are noise to k-means
        n = 600
        g, _ = generate_sbm(n, [1.0], np.array([[6.0 / n]]), seed=3)
        labels = spectral_init(g, 8, 0)
        (q, _, theta), = eig_runs
        (x,) = kmeans_inputs
        assert (theta > self.bulk_edge(g)).sum() == 1
        assert x.shape == (n, 1)
        assert np.array_equal(x, row_normalized(q[:, [-1]]))
        assert labels is not None

    def test_perfect_matching_keeps_the_perron_column(self, eig_runs, kmeans_inputs):
        # 20 disjoint edges: every Ritz value is 1 / (1 + tau) = 0.5, which
        # sits under the edge 1.0, so only the Perron column reaches k-means
        n = 40
        g = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        labels = spectral_init(g, 4, 0)
        (q, _, theta), = eig_runs
        (x,) = kmeans_inputs
        assert self.bulk_edge(g) == pytest.approx(1.0)
        assert not (theta > self.bulk_edge(g)).any()
        assert x.shape == (n, 1)
        assert np.array_equal(x, row_normalized(q[:, [-1]]))
        assert labels is not None and labels.shape == (n,)


class TestOrthogonalIteration:
    def test_columns_orthonormal(self):
        g, _ = generate_sbm(150, [0.5, 0.5], np.full((2, 2), 0.1), seed=4)
        op = _normalized_adjacency(g, 2.0)
        q, residual, _ = orthogonal_iteration(op, 150, 4, np.random.default_rng(0))
        gram = q.T @ q
        assert np.max(np.abs(gram - np.eye(4))) < 1e-6

    def test_recovers_dominant_subspace_of_dense_matrix(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 40))
        a = a + a.T
        op = a / np.abs(np.linalg.eigvalsh(a)).max()  # scale into [-1, 1] like a normalized adjacency
        q, residual, _ = orthogonal_iteration(op, 40, 3, rng)
        assert residual < EIG_TOL
        assert_within_davis_kahan(op, q, 3)

    @pytest.mark.parametrize("tol", [EIG_TOL, 0.0], ids=["stops_at_tol", "runs_to_cap"])
    def test_returns_residual_of_returned_subspace(self, tol, monkeypatch):
        monkeypatch.setattr(spectral, "EIG_TOL", tol)
        n = 600
        g, _ = generate_sbm(n, *evaluate.planted_four_params(n), seed=3)
        op = _normalized_adjacency(g, float(g.degree_sum()) / n)
        q, residual, ritz = orthogonal_iteration(op, n, 20, np.random.default_rng(0))
        # the columns are Ritz vectors, so each Rayleigh quotient is its Ritz
        # value; the residual is the largest column 2-norm of op q - q diag(theta)
        opq = op @ q
        theta = np.einsum("ij,ij->j", q, opq)
        assert np.max(np.abs(q.T @ opq - np.diag(theta))) < 1e-12
        assert np.all(np.diff(ritz) >= 0)
        assert np.max(np.abs(ritz - theta)) < 1e-12
        expected = float(np.linalg.norm(opq - q * theta, axis=0).max())
        assert residual == pytest.approx(expected, rel=1e-9, abs=1e-13)
        assert (residual < spectral.EIG_TOL) == (tol > 0)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_matches_dense_top_subspace(self, seed):
        # the planted four eigenvalues clear the bulk, so the Davis-Kahan gap
        # is positive at k=4
        op = planted_operator(seed)
        q, residual, _ = orthogonal_iteration(op, 600, 4, np.random.default_rng(1))
        assert residual < EIG_TOL
        assert_within_davis_kahan(op, q, 4)

    def test_zero_width_damping_interval_stops_cleanly(self):
        # the start block holds the eigenvector of -1 exactly, so the lowest
        # Ritz value is -1 and there is no interval left to damp; the other
        # column is not converged, and the iteration must stop without a step
        op = np.diag([-1.0, 0.9, 0.8])
        start = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, residual, _ = orthogonal_iteration(op, 3, 2, FixedStart(start))
        assert np.allclose(q.T @ q, np.eye(2))
        # (e1 + e2)/sqrt(2) has Ritz value 0.85 and residual (0.05, -0.05)/sqrt(2)
        assert residual == pytest.approx(0.05, rel=1e-9)

    @pytest.mark.parametrize("name", list(DEGENERATE_GRAPHS))
    def test_degenerate_spectrum(self, name):
        g, k = DEGENERATE_GRAPHS[name]
        k = min(k, g.n)
        op = _normalized_adjacency(g, float(g.degree_sum()) / g.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, residual, _ = orthogonal_iteration(op, g.n, k, np.random.default_rng(0))
        assert q.shape == (g.n, k)
        assert np.all(np.isfinite(q)) and np.isfinite(residual)
        assert np.max(np.abs(q.T @ q - np.eye(k))) < 1e-12
        assert residual < EIG_TOL


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

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        q, _, _ = orthogonal_iteration(planted_operator(seed), 600, 20, rng)
        x = q / np.clip(np.linalg.norm(q, axis=1, keepdims=True), 1e-12, None)
        twin = same_state(rng)
        labels, cost = kmeans(x, 20, rng)
        labels_ref, cost_ref = kmeans_reference(x, 20, twin)
        # at n=600 OpenBLAS adds a cluster's rows in the GEMM in row order,
        # as the per-cluster mean does, so the centroids agree bit for bit
        assert np.array_equal(labels, labels_ref)
        assert cost == cost_ref

    @pytest.mark.parametrize("seed", range(5))
    def test_empty_cluster_keeps_stale_centroid(self, seed):
        # three distinct points for six clusters: k-means++ runs out of
        # distinct seeds, so duplicate centroids lose every tie and stay empty
        x = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [5, 7, 4], axis=0)
        rng = np.random.default_rng(seed)
        twin = same_state(rng)
        labels, cost = kmeans(x, 6, rng)
        labels_ref, cost_ref = kmeans_reference(x, 6, twin)
        assert np.array_equal(labels, labels_ref)
        assert cost == cost_ref == 0.0
        assert len(set(labels.tolist())) == 3

    def test_first_assignment_is_followed_by_an_update(self, monkeypatch):
        # every point starts nearest centroid 0, so the first assignment equals
        # the all-zero start; centroid 0 must still move to the mean before
        # the stop check, and the two far centroids stay empty and stale
        seeds = np.array([[0.2, 0.0], [10.0, 10.0], [-10.0, 10.0]])
        monkeypatch.setattr(spectral, "_kmeans_pp_centers", lambda x, k, rng: seeds.copy())
        x = np.repeat([[0.0, 0.0], [1.0, 0.0]], 3, axis=0)
        labels, cost = kmeans(x, 3, np.random.default_rng(0))
        labels_ref, cost_ref = kmeans_reference(x, 3, np.random.default_rng(0))
        assert labels.tolist() == labels_ref.tolist() == [0] * 6
        assert cost == cost_ref == pytest.approx(6 * 0.25)
