"""Command-line entry point: generate, fit, sweep, eval.

All randomness derives from --seed; identical (input, flags, seed) produce
byte-identical outputs.  Result files are written via write-then-rename so a
failed run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict

import numpy as np

from . import bp, evaluate
from .graph import (
    generate_sbm,
    mask_pairs,
    parse_edge_list,
    parse_labels,
    parse_masked,
    serialize_edge_list,
    serialize_labels,
    serialize_masked,
)

METHODS = ("f2ab", "fic-bp", "icl", "cicl")


def _atomic_write(path, text):
    # a unique temp name per call, so runs writing the same output never
    # share one; mkstemp creates it 0600, so give it the usual umask mode
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=f"{os.path.basename(path)}.", suffix=".tmp"
    )
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _build_parser():
    # the four stopping values of BPOptions, shared by fit and sweep
    stopping = argparse.ArgumentParser(add_help=False)
    stopping.add_argument("--tol-msg", type=float, default=bp.BPOptions.tol_msg)
    stopping.add_argument("--tol-pi", type=float, default=bp.BPOptions.tol_pi)
    stopping.add_argument("--max-sweeps", type=int, default=bp.BPOptions.max_sweeps,
                          help="sweep budget of each fit, summed over its M-steps")
    stopping.add_argument("--max-outer", type=int, default=bp.BPOptions.max_outer)

    parser = argparse.ArgumentParser(prog="blockbp")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic edge list and planted labels")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--pin", type=float, required=True, help="within-cluster edge probability")
    gen.add_argument("--pout", type=float, required=True, help="across-cluster edge probability")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True, help="edge-list path; labels go to <output>.labels")

    fit = sub.add_parser("fit", parents=[stopping], help="fit one method and write the result")
    fit.add_argument("--input", required=True)
    fit.add_argument("--k-max", type=int, default=20)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--method", choices=METHODS, default="f2ab")
    fit.add_argument("--output", required=True)
    fit.add_argument("--mask-fraction", type=float, default=0.0,
                     help="hold out this fraction of all pairs before fitting; "
                          "records go to <output>.masked")

    sweep = sub.add_parser("sweep", parents=[stopping],
                           help="per-K criterion table over a K interval")
    sweep.add_argument("--input", required=True)
    sweep.add_argument("--method", choices=tuple(evaluate.CRITERION_FIELDS), default="cicl")
    sweep.add_argument("--sweep", required=True, metavar="A:B", type=_parse_sweep_range,
                       help="inclusive K interval")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--output", required=True)

    ev = sub.add_parser("eval", help="score a fit against held-out observations")
    ev.add_argument("--fit", required=True)
    ev.add_argument("--masked", required=True)
    ev.add_argument("--labels", default=None)
    ev.add_argument("--output", required=True)
    return parser


def _read(path):
    with open(path) as fh:
        return fh.read()


def _cmd_generate(args):
    gamma = np.full(args.k, 1.0 / args.k)
    pi = np.full((args.k, args.k), args.pout)
    np.fill_diagonal(pi, args.pin)
    graph, planted = generate_sbm(args.n, gamma, pi, args.seed)
    _atomic_write(args.output, serialize_edge_list(graph))
    _atomic_write(f"{args.output}.labels", serialize_labels(planted.labels))
    print(f"wrote {args.output} (n={graph.n}, m={graph.m}) and {args.output}.labels")
    return 0


def _options(args):
    """BPOptions from the stopping flags; an out-of-range value raises ValueError."""
    return bp.BPOptions(
        tol_msg=args.tol_msg,
        tol_pi=args.tol_pi,
        max_sweeps=args.max_sweeps,
        max_outer=args.max_outer,
    )


def _cmd_fit(args):
    graph = parse_edge_list(_read(args.input))
    opts = _options(args)
    # a negative fraction goes to mask_pairs too, which rejects it
    if args.mask_fraction != 0.0:
        graph = mask_pairs(graph, args.mask_fraction, args.seed)
        _atomic_write(f"{args.output}.masked", serialize_masked(graph.masked))
    start = time.perf_counter()
    fit = evaluate.fit_with_method(graph, args.method, args.k_max, args.seed, opts=opts)
    seconds = time.perf_counter() - start
    _atomic_write(args.output, bp.fit_result_to_json(fit))
    print(f"method={args.method} selected_k={fit.selected_k} "
          f"stop={fit.stop} seconds={seconds:.2f}")
    return 0


def _parse_sweep_range(text):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep range {text!r}; expected A:B") from exc
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad sweep range {text!r}; need 1 <= A <= B")
    return range(lo, hi + 1)


def _cmd_sweep(args):
    graph = parse_edge_list(_read(args.input))
    k_range = args.sweep
    rows = evaluate.sweep_criteria(graph, k_range, args.seed, opts=_options(args))
    best_k, _ = evaluate.best_row(rows, args.method)
    lines = ["k,ffic_lb,fic,icl,cicl,entropy,selected"]
    for k, fit in rows:
        report = fit.criteria
        mark = "*" if k == best_k else ""
        lines.append(
            f"{k},{report.ffic_lb:.6f},{report.fic:.6f},{report.icl:.6f},"
            f"{report.cicl:.6f},{report.entropy:.6f},{mark}"
        )
    _atomic_write(args.output, "\n".join(lines) + "\n")
    print(f"swept K={k_range.start}..{k_range.stop - 1}; best {args.method} at K={best_k}")
    return 0


def _cmd_eval(args):
    start = time.perf_counter()
    fit = bp.fit_result_from_json(_read(args.fit))
    masked = parse_masked(_read(args.masked))
    value = evaluate.npll(fit, masked)
    ari = None
    if args.labels:
        labels = parse_labels(_read(args.labels))
        # fit-internal node indices follow first-appearance order in the edge
        # list; align through the recorded tokens before comparing partitions
        if fit.node_ids is not None:
            try:
                order = [int(tok) for tok in fit.node_ids]
            except ValueError as exc:
                raise ValueError(
                    "labels file is indexed by integer node ids but the fitted "
                    "graph uses non-integer tokens"
                ) from exc
            unlabelled = [tok for tok in order if not 0 <= tok < len(labels)]
            if unlabelled:
                raise ValueError(
                    f"labels file covers nodes 0..{len(labels) - 1}; "
                    f"the fit has node {unlabelled[0]}"
                )
            labels = labels[order]
        ari = evaluate.adjusted_rand_index(fit.map_assignment, labels)
    report = evaluate.EvalReport(
        npll=value,
        n_masked=len(masked),
        ari=ari,
        selected_k=fit.selected_k,
        runtime_seconds=time.perf_counter() - start,
    )
    _atomic_write(args.output, json.dumps(asdict(report)) + "\n")
    print(f"npll={value:.6f} n_masked={len(masked)} selected_k={fit.selected_k}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "generate": _cmd_generate,
        "fit": _cmd_fit,
        "sweep": _cmd_sweep,
        "eval": _cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
