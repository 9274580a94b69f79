"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
captured output) before asserting, so a red run still reports every
criterion's outcome.
"""

import time

import numpy as np

from blockbp import (
    BPOptions,
    Graph,
    Params,
    adjusted_rand_index,
    bethe_entropy,
    compute_penalty,
    exact_joint_marginal,
    f2ab_fit,
    fabbp_run,
    generate_sbm,
    hessian_blocks,
    joint_marginal_laplace,
    m_step,
    natural_from_mean,
)
from blockbp.evaluate import fit_with_method, masked_prediction_run
from blockbp.model import Moments, bicluster_counts, label_counts
from oracles import Enumeration, random_state


def report(cid, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid} {status}: {description} {detail}".rstrip())
    assert ok, f"criterion {cid} failed: {description} {detail}"


def planted_four(n, seed):
    gamma = np.full(4, 0.25)
    pi = np.full((4, 4), 1.0 / n)
    np.fill_diagonal(pi, 20.0 / n)
    return generate_sbm(n, gamma, pi, seed)


def test_criterion_1_synthetic_model_recovery():
    start = time.perf_counter()
    means = {}
    details = {}
    for n in (400, 800):
        ks, aris = [], []
        for seed in range(10):
            g, planted = planted_four(n, seed)
            fit = f2ab_fit(g, k_max=20, seed=seed)
            ks.append(fit.selected_k)
            aris.append(adjusted_rand_index(fit.map_assignment, planted.labels))
        means[n] = float(np.mean(ks))
        details[n] = (ks, float(np.mean(aris)))
    elapsed = time.perf_counter() - start

    # non-binding regression note: classification-likelihood sweeps tend to
    # pick fewer clusters than the one-pass fit on this suite
    icl_ks = []
    note_opts = BPOptions(max_outer=30)
    for seed in range(2):
        g, _ = planted_four(400, seed)
        fit = fit_with_method(g, "icl", k_max=8, seed=seed, opts=note_opts)
        icl_ks.append(fit.selected_k)
    print(
        f"NOTE (non-binding): icl-sweep mean K {np.mean(icl_ks):.2f} vs "
        f"one-pass mean K {means[400]:.2f} at n=400"
    )

    ok = 3.5 <= means[800] <= 4.5
    report(
        1,
        "planted K=4 recovery, mean selected K at n=800 in [3.5, 4.5]",
        ok,
        f"(means: n=400 {means[400]:.2f} {details[400][0]}, "
        f"n=800 {means[800]:.2f} {details[800][0]}; "
        f"mean ARI {details[800][1]:.3f}; {elapsed:.0f}s)",
    )


def test_criterion_2_joint_marginal_fidelity():
    errs = {}
    for n in (100, 200, 400, 800):
        labels = np.zeros(n, dtype=np.int64)
        labels[n // 2 :] = 1
        rng = np.random.default_rng(42)
        pi = np.array([[20 / n, 2 / n], [2 / n, 20 / n]])
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i, n)
            if rng.random() < pi[labels[i], labels[j]]
        ]
        g = Graph(n, pairs)
        exact = exact_joint_marginal(g, labels)
        assert not exact.divergent
        terms = joint_marginal_laplace(g, labels)
        errs[n] = abs(terms.total - exact.value)
    grid = [errs[n] for n in (100, 200, 400, 800)]
    decreasing = all(b < a for a, b in zip(grid, grid[1:]))
    tail = errs[800] < 0.25 * errs[100]
    report(
        2,
        "asymptotic joint marginal error strictly decreases; err(800) < 0.25 err(100)",
        decreasing and tail,
        f"(errors: {', '.join(f'{n}:{errs[n]:.5f}' for n in (100, 200, 400, 800))})",
    )


def test_criterion_3_closed_form_m_step_is_maximal():
    rng = np.random.default_rng(17)
    worst = -np.inf
    grid = np.arange(1, 1000) / 1000.0
    for trial in range(20):
        k = 2 if trial % 2 == 0 else 3
        n = int(rng.integers(10, 60))
        zbar = rng.dirichlet(np.ones(k))
        d = np.outer(zbar, zbar) + np.diag(zbar) / n
        zzbar = d * rng.uniform(0.05, 0.95, size=(k, k))
        zzbar = (zzbar + zzbar.T) / 2
        moments = Moments(zbar, zzbar, n)
        params, _ = m_step(moments)
        scale = n * n / 2.0
        gap = 0.0
        for a in range(k):
            for b in range(a, k):
                w = 1.0 if a == b else 2.0
                zz, dd = zzbar[a, b], d[a, b]
                vals = w * scale * (zz * np.log(grid) + (dd - zz) * np.log1p(-grid))
                at_hat = w * scale * (
                    zz * np.log(params.pi[a, b]) + (dd - zz) * np.log1p(-params.pi[a, b])
                )
                gap += max(vals.max() - at_hat, 0.0)
        if k == 2:
            gvals = n * (zbar[0] * np.log(grid) + zbar[1] * np.log1p(-grid))
            gap += max(gvals.max() - n * float(zbar @ np.log(params.gamma)), 0.0)
        else:
            g1, g2 = np.meshgrid(grid, grid, indexing="ij")
            ok = g1 + g2 < 1.0
            lls = n * (
                zbar[0] * np.log(g1[ok])
                + zbar[1] * np.log(g2[ok])
                + zbar[2] * np.log1p(-(g1[ok] + g2[ok]))
            )
            gap += max(lls.max() - n * float(zbar @ np.log(params.gamma)), 0.0)
        worst = max(worst, gap)
    report(
        3,
        "closed-form update beats the 1e-3 grid within 1e-6 on 20 moment sets",
        worst <= 1e-6,
        f"(worst grid excess {worst:.2e})",
    )


def test_criterion_4_hessian_blocks_match_finite_differences():
    rng = np.random.default_rng(9)
    n, k = 60, 3
    worst_rel = 0.0
    for _ in range(10):
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        gamma = rng.dirichlet(np.ones(k) * 4)
        pi = rng.uniform(0.15, 0.85, (k, k))
        pi = (pi + pi.T) / 2
        params = Params(gamma, pi)
        g, _ = generate_sbm(n, np.full(k, 1 / k), np.full((k, k), 0.3), seed=int(rng.integers(99)))
        e, c = bicluster_counts(g, labels, k)
        counts = label_counts(labels, k)

        def neg_ll(theta_full, eta):
            val = 0.0
            for a in range(k):
                for b in range(a, k):
                    if a == b:
                        val += e[a, a] * theta_full[a, a]
                        val -= c[a, a] * np.logaddexp(0.0, theta_full[a, a])
                    else:
                        val += e[a, b] * (theta_full[a, b] + theta_full[b, a]) / 2
                        val -= c[a, b] * (
                            np.logaddexp(0.0, theta_full[a, b])
                            + np.logaddexp(0.0, theta_full[b, a])
                        ) / 2
            val += float(counts[:-1] @ eta) - n * np.log1p(np.sum(np.exp(eta)))
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
            worst_rel = max(worst_rel, abs(fd - blocks.f_theta[pos]) / abs(blocks.f_theta[pos]))
        for i in range(k - 1):
            for j in range(k - 1):
                ei, ej = np.zeros(k - 1), np.zeros(k - 1)
                ei[i] = h
                ej[j] = h
                fd = (
                    neg_ll(nat.theta, nat.eta + ei + ej)
                    - neg_ll(nat.theta, nat.eta + ei - ej)
                    - neg_ll(nat.theta, nat.eta - ei + ej)
                    + neg_ll(nat.theta, nat.eta - ei - ej)
                ) / (4 * h**2)
                denom = max(abs(blocks.f_eta[i, j]), 1e-3)
                worst_rel = max(worst_rel, abs(fd - blocks.f_eta[i, j]) / denom)
    report(
        4,
        "analytic Hessian blocks match central differences within 1e-4 relative",
        worst_rel < 1e-4,
        f"(worst relative error {worst_rel:.2e})",
    )


def test_criterion_5_bp_exact_on_trees(monkeypatch):
    # edges-only model: no external field
    monkeypatch.setattr("blockbp.bp.external_field", lambda params, zbar, n: 0.0)
    rng = np.random.default_rng(31)
    worst_marginal = 0.0
    worst_entropy = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 13))
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        g = Graph(n, edges)
        gamma = rng.dirichlet([3, 3])
        pi = rng.uniform(0.2, 0.8, (2, 2))
        pi = (pi + pi.T) / 2
        params = Params(gamma, pi)
        opts = BPOptions(tol_msg=1e-13, max_sweeps=500)
        state = random_state(g, 2, np.random.default_rng(trial))
        state, _, info = fabbp_run(params, state, opts, np.random.default_rng(trial + 1), "none")
        enum = Enumeration(g, params, include_nonedges=False)
        worst_marginal = max(worst_marginal, float(np.max(np.abs(state.node_belief - enum.node_marginals))))
        worst_entropy = max(
            worst_entropy, abs(bethe_entropy(g, state, params) - enum.entropy())
        )
    report(
        5,
        "tree marginals and Bethe entropy match enumeration within 1e-8",
        worst_marginal < 1e-8 and worst_entropy < 1e-8,
        f"(worst marginal err {worst_marginal:.2e}, entropy err {worst_entropy:.2e})",
    )


def test_criterion_6_penalty_positive_and_prunes():
    rng = np.random.default_rng(11)
    min_lambda = np.inf
    for _ in range(1000):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, 7))
        g, _ = generate_sbm(
            n, np.full(k, 1 / k), np.full((k, k), float(rng.uniform(0.05, 0.5))),
            seed=int(rng.integers(10_000)),
        )
        state = random_state(g, k, np.random.default_rng(int(rng.integers(10_000))))
        params = Params(np.full(k, 1 / k), np.full((k, k), 0.3))
        state.refresh_moments(params)
        lam = compute_penalty(state, int(rng.integers(n)))
        min_lambda = min(min_lambda, float(lam.min()))
    positive = min_lambda > 0

    n = 400
    pi = np.array([[30 / n, 1 / n], [1 / n, 30 / n]])
    wins = 0
    results = []
    for seed in range(10):
        g, planted = generate_sbm(n, [0.5, 0.5], pi, seed=seed)
        fit = f2ab_fit(g, k_max=8, seed=seed)
        ari = adjusted_rand_index(fit.map_assignment, planted.labels)
        results.append((fit.selected_k, round(ari, 3)))
        wins += fit.selected_k <= 4 and ari >= 0.9
    report(
        6,
        "penalties positive on 1000 states; strong-signal K<=4 & ARI>=0.9 on >=8/10 seeds",
        positive and wins >= 8,
        f"(min lambda {min_lambda:.2e}; wins {wins}/10 {results})",
    )


def test_criterion_7_prediction_beats_density_baseline():
    wins = 0
    rows = []
    for seed in range(5):
        rep, base = masked_prediction_run(400, seed, k_max=20)
        rows.append((round(rep.npll, 6), round(base.npll, 6), rep.selected_k))
        wins += rep.npll > base.npll
    report(
        7,
        "held-out NPLL beats the K=1 baseline on >=4/5 seeds",
        wins >= 4,
        f"(wins {wins}/5 {rows})",
    )


def test_criterion_8_sweep_time_linear_in_edges():
    def timed_sweep(m_target, seed):
        n = int(m_target / 4)
        c = 8.0
        pi = np.full((4, 4), 0.2 * c / n)
        np.fill_diagonal(pi, 3.4 * c / n)
        g, _ = generate_sbm(n, np.full(4, 0.25), pi, seed)
        state = random_state(g, 8, np.random.default_rng(seed))
        params = Params(np.full(8, 1 / 8), np.full((8, 8), g.m / g.num_pairs))
        opts = BPOptions(max_sweeps=1, tol_msg=0.0)
        rng = np.random.default_rng(seed + 1)
        fabbp_run(params, state, opts, rng, "fab")  # warm-up, not timed

        def sweep():
            t0 = time.perf_counter()
            fabbp_run(params, state, opts, rng, "fab")
            return time.perf_counter() - t0

        return g.m, sweep

    # each round times one sweep of each size back to back and the ratio is
    # the median over rounds, so a host slowdown that spans one size's
    # timing but not the other's does not read as superlinear cost
    (m1, sweep1), (m2, sweep2) = timed_sweep(20_000, 0), timed_sweep(40_000, 0)
    times = np.array([(sweep1(), sweep2()) for _ in range(10)])
    t1, t2 = np.median(times, axis=0)
    ratio = float(np.median(times[:, 1] / times[:, 0]))
    report(
        8,
        "fixed-K sweep time at m~4e4 is <= 2.5x the time at m~2e4",
        ratio <= 2.5,
        f"(m={m1}: {t1*1e3:.0f} ms; m={m2}: {t2*1e3:.0f} ms; ratio {ratio:.2f})",
    )
