import numpy as np
import pytest

from blockbp import (
    EdgeListParseError,
    Graph,
    PlantedAssignment,
    evaluate,
    generate_sbm,
    mask_pairs,
    parse_edge_list,
    serialize_edge_list,
)
from blockbp.graph import (
    _pair_from_index,
    parse_labels,
    parse_masked,
    serialize_labels,
    serialize_masked,
)
from oracles import (
    all_pairs,
    edge_set,
    mask_pairs_reference,
    masked_selfloop_graph,
    pair_from_index_scalar,
)


def self_loop_count(graph):
    return sum(i == j for i, j in edge_set(graph))


class TestParseEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3 and g.m == 2
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_dedup_comments_and_self_loop(self):
        g = parse_edge_list("a b\nb a\n# note\na a")
        assert g.n == 2
        assert g.m == 2  # one edge plus one self-loop; duplicate collapsed
        assert self_loop_count(g) == 1
        assert g.node_ids == ["a", "b"]

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("0 1\n0 1 2\n")
        assert exc.value.line_number == 2
        assert str(exc.value) == "line 2: expected two tokens, found 3: '0 1 2'"

    def test_empty_input(self):
        with pytest.raises(EdgeListParseError, match="no edges"):
            parse_edge_list("# only a comment\n")

    def test_large_file_matches_set_insertion_oracle(self):
        # 9,999 distinct pairs plus one duplicate line
        rng = np.random.default_rng(0)
        pairs = set()
        while len(pairs) < 9999:
            i, j = rng.integers(0, 500, size=2)
            pairs.add((min(i, j), max(i, j)))
        lines = [f"{i} {j}" for i, j in pairs]
        lines.append(lines[0])
        assert len(lines) == 10000
        g = parse_edge_list("\n".join(lines))
        oracle = {tuple(sorted(map(int, ln.split()))) for ln in lines}
        assert g.m == len(oracle) == 9999

    def test_roundtrip_on_canonical_graph(self):
        # one parse/serialize pass canonicalizes (sorted pairs, first-appearance
        # indices); after that the round trip is the identity
        raw = parse_edge_list("0 1\n1 2\n0 3\n3 3")
        canonical = parse_edge_list(serialize_edge_list(raw))
        text = serialize_edge_list(canonical)
        g2 = parse_edge_list(text)
        assert g2.n == canonical.n
        assert np.array_equal(g2.edges, canonical.edges)
        assert serialize_edge_list(g2) == text


class TestGenerateSbm:
    def test_zero_probability_gives_empty_graph(self):
        for seed in (0, 7):
            g, _ = generate_sbm(10, [0.5, 0.5], np.zeros((2, 2)), seed)
            assert g.m == 0

    def test_certain_edges_give_complete_graph_with_self_loops(self):
        g, _ = generate_sbm(3, [1.0], np.ones((1, 1)), seed=5)
        assert g.m == 6  # n(n+1)/2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            generate_sbm(5, [0.6, 0.5], np.full((2, 2), 0.1), 0)
        with pytest.raises(ValueError):
            generate_sbm(5, [0.5, 0.5], np.full((2, 2), 1.5), 0)
        with pytest.raises(ValueError):
            generate_sbm(5, [0.5, 0.5], np.array([[0.1, 0.2], [0.3, 0.1]]), 0)

    def test_planted_assignment_shape(self):
        g, planted = generate_sbm(50, [0.25] * 4, np.full((4, 4), 0.1), seed=1)
        assert isinstance(planted, PlantedAssignment)
        assert planted.labels.shape == (50,)
        assert planted.k_true == 4

    def test_seed_reproducibility(self):
        a1 = generate_sbm(200, [0.25] * 4, np.full((4, 4), 0.02), seed=42)
        a2 = generate_sbm(200, [0.25] * 4, np.full((4, 4), 0.02), seed=42)
        assert np.array_equal(a1[0].edges, a2[0].edges)
        assert np.array_equal(a1[1].labels, a2[1].labels)
        b = generate_sbm(200, [0.25] * 4, np.full((4, 4), 0.02), seed=43)
        assert not np.array_equal(a1[0].edges, b[0].edges)

    def test_mean_edge_count_matches_expectation(self):
        # Monte Carlo mean over 200 seeds vs sum of pi over pair-type counts
        n, k = 400, 4
        gamma = np.full(k, 0.25)
        pi = np.full((k, k), 1.0 / n)
        np.fill_diagonal(pi, 20.0 / n)
        # E[m] = C(n,2) E[pi_{zi zj}] + n E[pi_kk] over label draws
        cross = float(gamma @ pi @ gamma)
        diag = float(np.sum(gamma * np.diag(pi)))
        expected = n * (n - 1) / 2 * cross + n * diag
        counts = [generate_sbm(n, gamma, pi, seed)[0].m for seed in range(200)]
        se = np.std(counts, ddof=1) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - expected) <= 3 * se


class TestMaskPairs:
    def test_single_pair_from_two_nodes(self):
        # n=2 has 3 pairs; fraction 1/3 masks exactly one pair
        g = parse_edge_list("0 1\n0 0\n1 1")
        masked = mask_pairs(g, 0.34, seed=3)
        assert len(masked.masked) == 2  # ceil(0.34*3)
        masked = mask_pairs(g, 0.3, seed=3)
        assert len(masked.masked) == 1
        (pair, bit), = masked.masked.items()
        assert bit == 1  # all three pairs carry edges here
        assert pair not in edge_set(masked)

    def test_masking_an_edge_reduces_training_m(self):
        g = parse_edge_list("\n".join(f"{i} {i+1}" for i in range(30)))
        masked = mask_pairs(g, 0.01, seed=0)
        n_masked_edges = sum(masked.masked.values())
        assert masked.m == g.m - n_masked_edges

    def test_count_formula(self):
        g, _ = generate_sbm(200, [1.0], np.array([[0.05]]), seed=0)
        masked = mask_pairs(g, 0.01, seed=1)
        assert len(masked.masked) == 201  # ceil(0.01 * 20100)

    def test_fraction_domain(self):
        g = parse_edge_list("0 1")
        with pytest.raises(ValueError):
            mask_pairs(g, 0.0, seed=0)
        with pytest.raises(ValueError):
            mask_pairs(g, 1.0, seed=0)

    def test_masked_disjoint_and_recorded(self):
        g, _ = generate_sbm(100, [0.5, 0.5], np.full((2, 2), 0.1), seed=2)
        masked = mask_pairs(g, 0.05, seed=5)
        training, full = edge_set(masked), edge_set(g)
        for (i, j), bit in masked.masked.items():
            assert (i, j) not in training
            assert bit == (1 if (i, j) in full else 0)
        assert masked.masked_index.tolist() == [list(p) for p in sorted(masked.masked)]
        assert not masked.masked_index.flags.writeable

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pair_by_pair_reference(self, seed):
        n = 600
        g, _ = generate_sbm(n, *evaluate.planted_four_params(n), seed=seed)
        # the second graph already holds masked pairs, which the draw may hit
        for graph, fraction in ((g, 0.04), (masked_selfloop_graph(), 0.3)):
            got = mask_pairs(graph, fraction, seed)
            want = mask_pairs_reference(graph, fraction, seed)
            assert np.array_equal(got.edges, want.edges)
            assert list(got.masked.items()) == list(want.masked.items())
            assert np.array_equal(got.masked_index, want.masked_index)


    def test_remasking_keeps_recorded_bits(self):
        g = masked_selfloop_graph()
        assert g.masked[(0, 3)] == 1
        got = mask_pairs(g, 0.3, seed=2)
        assert got.masked[(0, 3)] == 1  # drawn again; it read 0 when re-recorded
        assert {p: got.masked[p] for p in g.masked} == g.masked


class TestPairIndex:
    @pytest.mark.parametrize("n", [1, 2, 7, 600])
    def test_decodes_every_index_like_the_scalar_decoder(self, n):
        r = np.arange(n * (n + 1) // 2)
        i, j = _pair_from_index(r, n)
        scalar = [pair_from_index_scalar(int(x), n) for x in r]
        assert list(zip(i.tolist(), j.tolist())) == scalar == list(all_pairs(n))

    def test_row_boundaries_at_large_n(self):
        # at n = 1e9 the float root cannot resolve the last pair of a row from
        # the first of the next, so the integer fix-ups must decide
        n = 10**9
        rows = np.random.default_rng(0).integers(1, n, size=2000)
        starts = rows * n - rows * (rows - 1) // 2
        i, j = _pair_from_index(np.concatenate([starts, starts - 1]), n)
        assert np.array_equal(i, np.concatenate([rows, rows - 1]))
        assert np.array_equal(j, np.concatenate([rows, np.full_like(rows, n - 1)]))


class TestGraphInvariants:
    def test_degree_sum_identity(self):
        for seed in range(5):
            g, _ = generate_sbm(60, [0.5, 0.5], np.full((2, 2), 0.15), seed=seed)
            assert g.degree_sum() == 2 * (g.m - self_loop_count(g))

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (2, 1)])
        assert g.m == 2

    def test_endpoint_range_checked(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "n, edges, masked, message",
        [
            (3, [(0, 1.7), (1, 2)], None, r"edge \(0\.0, 1\.7\) holds a value that is not a whole"),
            (3, [(0, 1), (1, float("nan"))], None, r"edge \(1\.0, nan\) holds a value"),
            (3, [(0, 1)], {(0.5, 2.9): 1}, r"masked pair \(0\.5, 2\.9\) holds a value"),
            (2.5, [(0, 1)], None, "node count 2.5 is not a whole number"),
        ],
        ids=["fractional-edge", "nan-edge", "fractional-masked-pair", "fractional-n"],
    )
    def test_non_integer_ids_rejected(self, n, edges, masked, message):
        # a fractional id is an error, not truncated to its integer part
        with pytest.raises(ValueError, match=message):
            Graph(n, edges, masked=masked)

    def test_whole_number_ids_of_any_dtype_load(self):
        g = Graph(np.float64(3.0), np.array([[1.0, 0.0], [2.0, 1.0]]),
                  masked={(np.int8(0), np.float32(2.0)): 1})
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.edges.dtype == g.masked_index.dtype == np.int64
        assert g.masked_index.tolist() == [[0, 2]]

    def test_degrees_count_adjacency(self):
        g = Graph(6, [(0, 1), (1, 2), (1, 1), (3, 3), (0, 2), (2, 4)])
        want = [sum(v in (i, j) for i, j in edge_set(g) if i != j) for v in range(g.n)]
        assert g.degrees.tolist() == want == [2, 2, 3, 0, 1, 0]
        assert g.degrees.dtype == np.int64
        assert not g.degrees.flags.writeable

    @pytest.mark.parametrize(
        "masked, message",
        [
            ({(0, 2): 0, (1, 5): 0}, r"masked pair \(1, 5\) out of range or unordered"),
            ({(2, 1): 0}, r"masked pair \(2, 1\) out of range or unordered"),
            ({(-1, 2): 1}, r"masked pair \(-1, 2\) out of range or unordered"),
            ({(0, 2): 2}, "masked observation must be 0 or 1"),
            (
                {(3, 4): 1, (0, 2): 0, (2, 3): 1, (0, 1): 1, (1, 2): 1},
                r"masked pairs present in training edges: \[\(0, 1\), \(1, 2\), \(2, 3\)\]",
            ),
        ],
    )
    def test_masked_pairs_checked(self, masked, message):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        with pytest.raises(ValueError, match=message):
            Graph(5, edges, masked=masked)

    def test_masked_index_sorted_in_any_dict_order(self):
        masked = {(4, 4): 1, (0, 3): 0, (2, 4): 1, (0, 0): 0, (1, 3): 1}
        g = Graph(5, [(0, 1)], masked=masked)
        assert g.masked_index.tolist() == [list(p) for p in sorted(masked)]
        assert g.masked_index.dtype == np.int64
        assert not g.masked_index.flags.writeable
        assert Graph(5, [(0, 1)]).masked_index.shape == (0, 2)


class TestSerializationFormats:
    def test_labels_roundtrip(self):
        labels = np.array([0, 2, 1, 1])
        assert np.array_equal(parse_labels(serialize_labels(labels)), labels)

    def test_labels_reject_gaps(self):
        with pytest.raises(EdgeListParseError, match="no label for node 1"):
            parse_labels("0 1\n2 0\n")

    def test_labels_reject_negative_ids(self):
        with pytest.raises(EdgeListParseError, match="line 2: node ids and cluster"):
            parse_labels("0 1\n1 -1\n")
        with pytest.raises(EdgeListParseError, match="line 1: expected integers"):
            parse_labels("0 a\n")

    def test_labels_reject_repeated_node(self):
        with pytest.raises(EdgeListParseError, match="line 3: second label for node 1"):
            parse_labels("0 0\n1 1\n1 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1 1\n-1 3 1\n", r"line 2: negative node id in pair \(-1, 3\)"),
            ("0 1 2\n", "line 1: observed bit must be 0 or 1, found 2"),
            ("0 1 x\n", "line 1: expected integers"),
            ("0 1 1\n1 0 0\n", r"line 2: pair \(0, 1\) listed twice"),
        ],
    )
    def test_masked_rejects_bad_lines(self, text, message):
        with pytest.raises(EdgeListParseError, match=message):
            parse_masked(text)

    def test_masked_roundtrip(self):
        masked = {(0, 3): 1, (2, 2): 0}
        assert parse_masked(serialize_masked(masked)) == masked
