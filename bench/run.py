"""Fit benchmark for blockbp: end-to-end fit time and quality, per-layer timings.

Run from the repository root:

    python3 bench/run.py --workload planted_f2ab --seed 1 --seconds 36 --trace 0

One invocation runs one workload.  Each graph of the seed's input sequence
(see workloads.py) is set up and fitted in a fresh interpreter (`--graph g`)
that pays its own import and warm-up fit.  The same fit runs up to 40%
slower in one process than in the next (memory layout), so a median over
several processes is steadier than repeats in one.  Graphs 0, 1, 2, ... run
one after another while the next one is expected to finish within
--seconds, always at least one.  Peak RSS is the largest graph process's.

--trace 0 reports the end-to-end metrics (medians over the graphs).
--trace 1 fits each graph twice in its process, untraced and traced (the
two take turns going first), requires byte-identical fit.json output from
the two, and reports per-layer self times from the traced fit (medians over
the graphs).

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  The line before it records the machine and library versions.
Per-graph records (and the spans, when traced) go to bench/out/.
"""

import os
import sys
import time

T_START = time.perf_counter()

THREADS = 1  # BLAS/OpenMP threads; set before numpy loads, recorded in the output
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(THREADS)

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# a run must end within 180 s; a graph process still going at this point is
# stopped and counted as failed (penalized fits have no sweep budget of their own)
HARD_LIMIT_S = 165.0

# per-layer metric -> span name whose total self time it reports
LAYER_SPANS = {
    "spectral.init_s": "spectral.spectral_init",
    "spectral.eig_s": "spectral.orthogonal_iteration",
    "spectral.kmeans_s": "spectral.kmeans",
    "bp.sweep_s": "bp.fabbp_run",
    "bp.refresh_s": "bp.BeliefState.refresh_moments",
    "bp.edge_beliefs_s": "bp.BeliefState.edge_beliefs",
    "bp.moments_s": "bp.BeliefState.moments",
    "bp.fit_json_s": "bp.fit_result_to_json",
    "model.m_step_s": "model.m_step",
    "model.hard_moments_s": "model.hard_moments",
    "model.expected_ll_s": "model.expected_joint_log_likelihood",
    "criteria.outer_s": "criteria.ffic_lower_bound",
    "criteria.report_s": "criteria.criterion_report",
    "graph.generate_s": "graph.generate_sbm",
    "graph.serialize_s": "graph.serialize_edge_list",
    "graph.parse_s": "graph.parse_edge_list",
    "graph.mask_s": "graph.mask_pairs",
    "evaluate.npll_s": "evaluate.npll",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--graph", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load():
    """Import blockbp and the benchmark modules."""
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import blockbp
    import numpy  # noqa: F401  (import cost belongs to setup_s)
    import scipy.sparse  # noqa: F401

    import tracing
    import workloads

    return blockbp, tracing, workloads


def _install_wraps(tracer, blockbp):
    """Trace the public functions of every blockbp module where they are called."""
    from blockbp import bp, criteria, evaluate, graph, model, spectral

    modules = [blockbp, bp, criteria, evaluate, graph, model, spectral]

    def on_spectral(t, _args, _result):
        t.counts["spectral.calls"] += 1

    def on_eig(t, _args, result):
        t.values["spectral.eig_residual"].append(float(result[1]))

    def on_sweeps(t, _args, result):
        state, _params, info = result
        t.counts["bp.outer_iters"] += 1
        t.counts["bp.sweeps"] += info["sweeps"]
        t.counts["bp.node_visits"] += info["sweeps"] * state.n

    hooks = {"spectral_init": on_spectral, "orthogonal_iteration": on_eig, "fabbp_run": on_sweeps}
    owners = {"bp.BeliefState": bp.BeliefState}
    for mod in modules[1:]:
        owners[mod.__name__.split(".")[-1]] = mod
    for span_name in list(LAYER_SPANS.values()) + ["evaluate.fit_with_method"]:
        owner_name, attr = span_name.rsplit(".", 1)
        tracer.wrap(modules, owners[owner_name], attr, span_name, hooks.get(attr))


def _layer_metrics(tracer):
    self_s = tracer.self_seconds()
    out = {metric: self_s.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
    counts = tracer.counts
    residuals = tracer.values["spectral.eig_residual"]
    out["spectral.eig_residual"] = max(residuals) if residuals else 0.0
    for name in ("spectral.calls", "bp.sweeps", "bp.outer_iters", "bp.node_visits"):
        out[name] = counts[name]
    visits = counts["bp.node_visits"]
    out["bp.us_per_node_visit"] = out["bp.sweep_s"] / visits * 1e6 if visits else 0.0
    return out


UNITS = {
    "fit_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ari": "1",
    "npll_ratio": "1",
    "spectral.eig_residual": "1",
    "spectral.calls": "count",
    "bp.sweeps": "count",
    "bp.outer_iters": "count",
    "bp.node_visits": "count",
    "bp.us_per_node_visit": "us",
    "trace.overhead_frac": "1",
    "k_error": "count",
    "failed_frac": "1",
}


def _environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _warm_up(workloads):
    """A tiny masked fit, scored and serialized, before any timing.

    It runs every module the workloads use (the plain path of cicl_sweep
    shares all of them), so first-call costs land in setup_s.
    """
    small = workloads.Workload("warm_up", 40, "f2ab", 3, 0.05)
    case = workloads.prepare(small, 0, 0)
    result = workloads.fit(small, case)
    workloads.npll(result, case)
    workloads.fit_json(result)


def _timed_fit(workload, workloads, case):
    """Fit (plus npll where pairs are held out, as fit_s counts it), then serialize."""
    timed_npll = workload.mask_fraction > 0
    t0 = time.perf_counter()
    result = workloads.fit(workload, case)
    value = workloads.npll(result, case) if timed_npll else None
    seconds = time.perf_counter() - t0
    if value is None:
        value = workloads.npll(result, case)
    return result, value, seconds, workloads.fit_json(result)


def _traced_fit(workload, workloads, case, tracer, blockbp):
    _install_wraps(tracer, blockbp)
    try:
        return _timed_fit(workload, workloads, case)
    finally:
        tracer.restore()


def _run_graph(args, workload, workloads, g, tracer_cls, blockbp):
    """Set up and fit graph g; returns the per-graph record."""
    rec = {"graph": g, "failures": []}
    tracer = tracer_cls() if args.trace else None

    t0 = time.perf_counter()
    if tracer:
        case = workloads.prepare(workload, args.seed, g, tracer.span)
    else:
        case = workloads.prepare(workload, args.seed, g)
    rec["setup_s"] = time.perf_counter() - t0
    rec["n"], rec["m"], rec["heldout_pairs"] = case.graph.n, case.graph.m, len(case.heldout)

    # the traced run alternates which fit goes first, so the second fit's
    # warmer caches do not bias trace.overhead_frac
    if tracer and g % 2:
        again = _traced_fit(workload, workloads, case, tracer, blockbp)
        result, value, rec["fit_s"], text = _timed_fit(workload, workloads, case)
    else:
        result, value, rec["fit_s"], text = _timed_fit(workload, workloads, case)
        again = _traced_fit(workload, workloads, case, tracer, blockbp) if tracer else None
    rec["fit_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    rec["failures"] += workloads.check(workload, case, result, value)
    rec["failed_fits"] = int(bool(rec["failures"]))
    rec.update(workloads.quality(case, result, value))
    rec["selected_k"] = result.selected_k
    rec["sweeps"] = sum(entry["sweeps"] for entry in result.trace)

    if tracer:
        result_t, value_t, rec["traced_fit_s"], text_t = again
        traced_failures = ["traced: " + r for r in workloads.check(workload, case, result_t, value_t)]
        if text_t != text:
            traced_failures.append("repeat with the same seed gave different fit.json bytes")
        rec["failures"] += traced_failures
        rec["failed_fits"] += int(bool(traced_failures))
        rec["layers"] = _layer_metrics(tracer)
        rec["layers"]["trace.overhead_frac"] = rec["traced_fit_s"] / rec["fit_s"] - 1.0
        rec["spans"] = tracer.spans
    return rec


def _graph_process(args):
    """--graph g: set up and fit one graph in this fresh interpreter.

    Prints the graph's record as one JSON line.  Import and warm-up are
    timed here because each graph pays them in its own process.
    """
    blockbp, tracing, workloads = _load()
    import_s = time.perf_counter() - T_START
    t0 = time.perf_counter()
    _warm_up(workloads)
    warm_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[args.workload]
    try:
        rec = _run_graph(args, workload, workloads, args.graph, tracing.Tracer, blockbp)
    except Exception:  # a crashing fit is a counted failure, not a crash
        rec = {"graph": args.graph, "failures": ["exception: " + traceback.format_exc()],
               "failed_fits": 2 if args.trace else 1}
    rec["import_s"], rec["warm_s"] = import_s, warm_s
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(rec))
    return 0


def _spawn_graph(args, g, timeout):
    """Run graph g in a fresh interpreter and return its record."""
    fits = 2 if args.trace else 1
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--graph", str(g)]
    try:
        # on timeout, run() kills the process and waits for it
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"graph": g, "failed_fits": fits,
                "failures": [f"stopped at the run's {HARD_LIMIT_S:.0f} s limit"]}
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"graph": g, "failed_fits": fits,
                "failures": [f"graph process exited with {out.returncode}: {out.stderr[-2000:]}"]}
    return json.loads(lines[-1])


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC_DIR / "blockbp" / "__init__.py").is_file():
        print(f"error: blockbp sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    if args.graph is not None:
        return _graph_process(args)
    _blockbp, _tracing, workloads = _load()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    fits_per_graph = 2 if args.trace else 1
    records = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        g = len(records)
        t0 = time.perf_counter()
        rec = _spawn_graph(args, g, timeout=max(HARD_LIMIT_S - (t0 - T_START), 1.0))
        rec["wall_s"] = time.perf_counter() - t0
        records.append(rec)
        attempted += fits_per_graph
        failed += rec["failed_fits"]
        for reason in rec["failures"]:
            print(f"graph {g} failed: {reason}", file=sys.stderr)
        per_graph = statistics.median(r["wall_s"] for r in records)
        if time.perf_counter() - start + per_graph > args.seconds:
            break

    ok = [r for r in records if not r["failures"]]
    metrics = {}
    if args.trace:
        layers = [r["layers"] for r in records if "layers" in r]
        for name in layers[0] if layers else ():
            metrics[name] = statistics.median(layer[name] for layer in layers)
        k_errors = [r["k_error"] for r in records if "k_error" in r]
        if k_errors:
            metrics["k_error"] = statistics.median(k_errors)
        metrics["failed_frac"] = failed / attempted
    elif ok:
        metrics["fit_s"] = statistics.median(r["fit_s"] for r in ok)
        metrics["setup_s"] = statistics.median(r["import_s"] + r["warm_s"] + r["setup_s"] for r in ok)
        metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in ok)
        metrics["ari"] = statistics.median(r["ari"] for r in ok)
        metrics["npll_ratio"] = statistics.median(r["npll_ratio"] for r in ok)

    env = _environment()
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "records": records, "metrics": metrics}, fh)
    print(json.dumps({"env": env, "graphs": len(records),
                      "detail": str(out_path.relative_to(BENCH_DIR.parent))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
