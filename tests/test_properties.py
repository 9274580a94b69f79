"""Property tests: every fit method finishes on any small graph.

Graphs have 1-18 nodes and random pairs, self-loops and isolated nodes
included; the cluster count asked for runs from 1 to 6, above n as well.
Each fit must end without an exception (a RuntimeWarning is one under the
suite's filters) and within its sweep budget, name one of the three fit stop
reasons and one of the two run stop reasons in each trace entry, give (n, K)
beliefs that are finite with rows summing to 1, and criteria that are finite
or flagged degenerate.
"""

import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blockbp import BPOptions, Graph, f2ab_fit, fic_bp_fit, fixed_k_fit

OPTS = BPOptions(max_sweeps=40, max_outer=15)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 18))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return Graph(n, pairs)


@seed(20161)
@settings(max_examples=200, deadline=None, database=None)
@given(
    graph=graphs(),
    k=st.integers(1, 6),
    fit_method=st.sampled_from([f2ab_fit, fic_bp_fit, fixed_k_fit]),
    fit_seed=st.integers(0, 2**32 - 1),
)
def test_every_small_graph_gives_a_finished_fit(graph, k, fit_method, fit_seed):
    fit = fit_method(graph, k, fit_seed, OPTS)
    assert sum(entry["sweeps"] for entry in fit.trace) <= OPTS.max_sweeps
    assert fit.stop in ("tol", "budget", "max_outer")
    assert all(entry["stop"] in ("tol", "cap") for entry in fit.trace)
    beliefs = fit.node_marginals
    assert beliefs.shape == (graph.n, fit.selected_k)
    assert np.all(np.isfinite(beliefs))
    assert np.allclose(beliefs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
    report = fit.criteria
    values = (report.ffic_lb, report.fic, report.icl, report.cicl)
    assert report.degenerate or all(map(math.isfinite, values))
