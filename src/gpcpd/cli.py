"""Command-line front end.

Subcommands: ``decompose`` (single tensor file), ``fixture`` (write reference
tensors), ``bench`` (seeded method comparison to JSON/CSV), and
``check-jacobians`` (finite-difference validation of the analytic Jacobians).
Exit codes: 0 success, 1 solve failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io as tio
from .assembly import decompose
from .bench import load_config, run_benchmark, write_report
from .exceptions import FormatError, GpcpdError, UnsupportedRankError
from .fixtures import FIXTURES, gen_random_rank_r
from .linalg import as_rng
from .lm import finite_difference_check
from .options import SUCCESS_TOL, SolveOptions
from .preprocess import build_reduced_tensor
from .stage1 import EigRowSet, build_frame, eval_fQ, jac_fQ
from .stage2 import assemble_stage2, eval_g, jac_g

EXIT_OK = 0
EXIT_SOLVE_FAILURE = 1
EXIT_USAGE = 2

JACOBIAN_FD_BOUND = 1e-6


def _cmd_decompose(args) -> int:
    try:
        opts = SolveOptions(seed=args.seed, success_tol=args.tol)
        tensor = tio.load_tensor(args.input)
    except (OSError, ValueError) as exc:  # invalid options, or a FormatError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        factors, report = decompose(tensor, args.rank, opts)
    except UnsupportedRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GpcpdError as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return EXIT_SOLVE_FAILURE
    summary = {
        "dims": list(tensor.dims),
        "rank": args.rank,
        "err_rel": report.err_rel,
        "success": report.success,
        "stage_used": report.stage_used,
        "retries": report.retries,
        "elapsed": report.elapsed,
        "seed": report.seed,
    }
    print(json.dumps(summary))
    if args.output:
        try:
            tio.save_factors(factors, args.output)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK if report.success else EXIT_SOLVE_FAILURE


def _cmd_fixture(args) -> int:
    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
        tensor, triple = FIXTURES[args.name]()
        tensor_path = os.path.join(out_dir, f"{args.name}_tensor.json")
        factors_path = os.path.join(out_dir, f"{args.name}_factors.json")
        tio.save_tensor(tensor, tensor_path)
        tio.save_factors(triple, factors_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps({"tensor": tensor_path, "factors": factors_path}))
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        cfg = load_config(args.config)
    except (OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = run_benchmark(cfg)
    try:
        write_report(report, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for row in report.aggregates:
        err = "fail" if row["error"] is None else f"{row['error']:.4e}"
        print(f"{row['dims']} r={row['rank']} {row['method']}: s_rate={row['s_rate']:.3g} error={err}")
    return EXIT_OK


_JACOBIAN_PROFILES = [(5, 3, 3, 5), (6, 4, 3, 5), (7, 3, 3, 6), (9, 4, 4, 9), (8, 4, 3, 7)]
_JACOBIAN_POINTS = 20  # random points per residual and instance


def check_jacobians(seed: int = 0):
    """Finite-difference sweep over random instances; returns the two maxima."""
    rng = as_rng(seed)
    worst_fq = 0.0
    worst_g = 0.0
    for n1, n2, n3, r in _JACOBIAN_PROFILES:
        tensor, _ = gen_random_rank_r(n1, n2, n3, r, seed=rng)
        rt = build_reduced_tensor(tensor, r, seed=rng)
        frame = build_frame(rt, EigRowSet.empty(rt), rng)
        for _ in range(_JACOBIAN_POINTS):
            x = (rng.standard_normal(r - 1) + 1j * rng.standard_normal(r - 1)) / np.sqrt(2)
            worst_fq = max(
                worst_fq,
                finite_difference_check(
                    lambda v: eval_fQ(v, frame, rt), lambda v: jac_fQ(v, frame, rt), x
                ),
            )
        sys2 = assemble_stage2(rt, EigRowSet.empty(rt))
        for _ in range(_JACOBIAN_POINTS):
            x = (rng.standard_normal(sys2.d) + 1j * rng.standard_normal(sys2.d)) / np.sqrt(2)
            worst_g = max(
                worst_g,
                finite_difference_check(
                    lambda v: eval_g(v, sys2, rt), lambda v: jac_g(v, sys2, rt), x
                ),
            )
    return worst_fq, worst_g


def _cmd_check_jacobians(args) -> int:
    worst_fq, worst_g = check_jacobians(seed=args.seed)
    ok = worst_fq <= JACOBIAN_FD_BOUND and worst_g <= JACOBIAN_FD_BOUND
    print(f"projected-residual jacobian: max fd discrepancy {worst_fq:.3e}")
    print(f"commutation jacobian:        max fd discrepancy {worst_g:.3e}")
    print("OK" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_SOLVE_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpcpd", description="CP decomposition of order-3 tensors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=SUCCESS_TOL)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("fixture", help="write a reference tensor and its factors")
    p.add_argument("--name", required=True, choices=sorted(FIXTURES))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("bench", help="run a benchmark config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check-jacobians", help="finite-difference Jacobian validation")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_jacobians)
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


def entrypoint():
    sys.exit(cli_main(sys.argv[1:]))
