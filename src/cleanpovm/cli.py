"""Command-line interface.

Exit code contract (frozen): 0 = clean / all checks passed, 1 = input
error, 2 = internal failure, 3 = not clean / failed checks / violations.
Every command accepts ``--json-out FILE`` for a machine-readable report.
Element indices in all human-facing output are 1-based.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from dataclasses import asdict

import numpy as np

from . import fileio
from .cleanness import VerdictReason, decide_clean, oracle_verdict
from .errors import CleanPovmError, ConstructionFailed, InfeasibleRequest, NotQuasiQubit
from .fuzz import run_fuzz
from .linalg import DEFAULT_TOL, Tolerances
from .povm import random_povm
from .witness import build_witness, verify_witness

EXIT_CLEAN = 0
EXIT_INPUT_ERROR = 1
EXIT_INTERNAL = 2
EXIT_NOT_CLEAN = 3

_RANDOM_KINDS = ("rank-one", "full-rank", "strict-quasi-qubit", "scalar")


def _check_ranges(args) -> None:
    """Numeric arguments out of range are input errors."""
    tol = getattr(args, "tol", None)
    if tol is not None and not 0 <= tol < float("inf"):
        raise InfeasibleRequest(f"--tol must be finite and nonnegative, got {tol}")
    if getattr(args, "dim", 2) < 2:
        raise InfeasibleRequest(f"--dim must be at least 2, got {args.dim}")
    for name in ("seed", "count"):
        if getattr(args, name, 0) < 0:
            raise InfeasibleRequest(f"--{name} must be nonnegative, got {getattr(args, name)}")


def _tolerances(args) -> Tolerances:
    if getattr(args, "tol", None) is None:
        return DEFAULT_TOL
    # --tol overrides the rank/zero decision tolerances only.
    return Tolerances(rank=args.tol, zero=args.tol)


def _write_json(args, payload: dict) -> None:
    if getattr(args, "json_out", None):
        fileio.save_json(args.json_out, payload)


def _blocks_for_display(verdict) -> list[list]:
    if verdict.partition is None:
        return []
    blocks = []
    for block in verdict.partition.block_element_indices():
        blocks.append([i + 1 if i is not None else None for i in block])
    return blocks


def cmd_check(args) -> int:
    tol = _tolerances(args)
    povm = fileio.load_povm(args.input, tol)
    verdict = decide_clean(povm, tol)

    print(f"verdict: {'clean' if verdict.clean else 'not clean'}")
    print(f"reason: {verdict.reason.value}")
    blocks = _blocks_for_display(verdict)
    if blocks:
        print(f"partition blocks (element indices, None = completion): {blocks}")
    if verdict.separating_pair is not None:
        v_pos, w_pos = verdict.separating_pair
        print(f"separating pair (basis positions): V={list(v_pos)} W={list(w_pos)}")

    payload = {
        "clean": verdict.clean,
        "reason": verdict.reason.value,
        "blocks": blocks or None,
        "separating_pair": (
            [list(verdict.separating_pair[0]), list(verdict.separating_pair[1])]
            if verdict.separating_pair
            else None
        ),
    }

    if args.oracle:
        if verdict.reason is VerdictReason.TRIVIAL_SINGLE_OUTCOME:
            print("oracle: skipped (single-outcome POVM {1} is clean by convention)")
            payload["oracle"] = {"skipped": True}
        else:
            oracle = oracle_verdict(povm, tol)
            agrees = oracle.clean == verdict.clean
            print(
                f"oracle: nullspace dimension {oracle.nullity}, clean={oracle.clean}, "
                f"agreement={agrees}"
            )
            payload["oracle"] = {
                "nullspace_dimension": oracle.nullity,
                "clean": oracle.clean,
                "agreement": agrees,
            }
            if not agrees:
                _write_json(args, payload)
                print("internal failure: oracle disagrees with the decision", file=sys.stderr)
                return EXIT_INTERNAL

    if not verdict.clean and args.witness_out:
        witness = build_witness(povm, verdict, tol)
        fileio.save_witness_bundle(args.witness_out, povm, witness)
        print(
            f"witness: case {witness.case_tag}, eps={witness.epsilon:.6g}, "
            f"widened element {witness.widened_index + 1} ({witness.direction}); "
            f"written to {args.witness_out}"
        )
        payload["witness"] = {
            "path": str(args.witness_out),
            "case": witness.case_tag,
            "epsilon": witness.epsilon,
            "widened_index": witness.widened_index + 1,
            "direction": witness.direction,
        }

    _write_json(args, payload)
    return EXIT_CLEAN if verdict.clean else EXIT_NOT_CLEAN


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    povm, witness = fileio.load_verify_inputs(args.povm, args.witness, tol)
    report = verify_witness(povm, witness, tol)
    print(f"q_valid: {report.q_valid}")
    print(f"channel_unital: {report.channel_unital} (closure residual {report.closure_residual:.3e})")
    print(f"maps_to_target: {report.maps_to_target} (max residual {report.max_map_residual:.3e})")
    print(f"widened: {report.widened} (margin {report.widening_margin:.3e})")
    print(f"witness {'accepted' if report.passed else 'rejected'}")
    _write_json(args, asdict(report) | {"passed": report.passed})
    return EXIT_CLEAN if report.passed else EXIT_NOT_CLEAN


def cmd_random(args) -> int:
    out_dir = fileio.output_dir(args.out)
    paths = []
    for index in range(args.count):
        rng = np.random.default_rng([args.seed, index])
        if args.kind == "rank-one":
            n = int(rng.integers(args.dim, args.dim + 3))
        elif args.kind == "strict-quasi-qubit":
            n = int(rng.integers(max(2, args.dim), args.dim + 4))
        else:
            n = int(rng.integers(2, 5))
        povm = random_povm(args.kind, args.dim, n, rng)
        path = out_dir / f"{args.kind}-d{args.dim}-seed{args.seed}-{index:04d}.json"
        fileio.save_povm(path, povm)
        paths.append(str(path))
        print(path)
    _write_json(args, {"files": paths})
    return EXIT_CLEAN


def cmd_fuzz(args) -> int:
    tol = _tolerances(args)
    summary = run_fuzz(args.dim, args.count, args.seed, tol)
    print(f"fuzz: dim={summary.dim} count={summary.count} seed={summary.seed}")
    print(f"elapsed: {summary.elapsed_seconds:.2f} s")
    print(f"verdicts: {dict(sorted(summary.verdict_counts.items()))}")
    print(f"witness cases: {dict(sorted(summary.case_counts.items()))}")
    print(f"scenarios: {dict(sorted(summary.scenario_counts.items()))}")
    print(f"violations: {len(summary.violations)}")

    payload = {
        "dim": summary.dim,
        "count": summary.count,
        "seed": summary.seed,
        "elapsed_seconds": summary.elapsed_seconds,
        "verdicts": dict(summary.verdict_counts),
        "cases": dict(summary.case_counts),
        "scenarios": dict(summary.scenario_counts),
        "violations": [
            {"index": v.index, "scenario": v.scenario, "message": v.message}
            for v in summary.violations
        ],
    }

    if summary.violations:
        repro_dir = fileio.output_dir(args.repro_dir)
        for v in summary.violations:
            path = repro_dir / f"fuzz-repro-d{summary.dim}-seed{summary.seed}-{v.index:05d}.json"
            fileio.save_json(path, v.povm_json)
            print(f"violation at index {v.index} ({v.scenario}): {v.message}", file=sys.stderr)
            print(f"reproduction POVM written to {path}", file=sys.stderr)
    _write_json(args, payload)
    return EXIT_NOT_CLEAN if summary.violations else EXIT_CLEAN


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building costs ten parses."""
    parser = argparse.ArgumentParser(
        prog="cleanpovm",
        description=(
            "Decide whether a quasi-qubit POVM is clean under channel "
            "pre-processing; construct and verify counter-witnesses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide cleanness of a POVM file")
    p_check.add_argument("--input", required=True, help="POVM JSON file")
    p_check.add_argument("--tol", type=float, default=None, help="rank/zero tolerance")
    p_check.add_argument("--witness-out", default=None, help="write a witness bundle here when not clean")
    p_check.add_argument("--oracle", action="store_true", help="cross-check with the nullspace oracle")
    p_check.add_argument("--json-out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="verify a witness bundle against a POVM")
    p_verify.add_argument("--povm", required=True)
    p_verify.add_argument("--witness", required=True)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--json-out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_random = sub.add_parser("random", help="write deterministic random POVM files")
    p_random.add_argument("--kind", required=True, choices=_RANDOM_KINDS)
    p_random.add_argument("--dim", required=True, type=int)
    p_random.add_argument("--count", required=True, type=int)
    p_random.add_argument("--seed", required=True, type=int)
    p_random.add_argument("--out", required=True, help="output directory")
    p_random.add_argument("--json-out", default=None)
    p_random.set_defaults(func=cmd_random)

    p_fuzz = sub.add_parser("fuzz", help="randomized oracle/witness/invariance checking")
    p_fuzz.add_argument("--dim", required=True, type=int)
    p_fuzz.add_argument("--count", required=True, type=int)
    p_fuzz.add_argument("--seed", required=True, type=int)
    p_fuzz.add_argument("--tol", type=float, default=None)
    p_fuzz.add_argument("--repro-dir", default=".", help="directory for violation reproductions")
    p_fuzz.add_argument("--json-out", default=None)
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except (fileio.FileFormatError, NotQuasiQubit, InfeasibleRequest) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConstructionFailed as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CleanPovmError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())
