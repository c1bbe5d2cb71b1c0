"""Benchmark of the cleanpovm pipeline: one workload, one seed, one run.

    python3 bench/run.py --workload fuzz-d4 --seed 1 --seconds 55 --trace 0

Set-up imports the package, builds the workload's corpus from the seed
(writing its files, if any) and warms up. ``--trace 0`` then runs passes
over the corpus for ``--seconds`` with no tracing installed and prints the
end-to-end metrics. An input's latency is its fastest pass, so that the
slow spells of a shared machine stay out of the figures; throughput is
inputs over the sum of those latencies. Set-up time is the median of this
process's set-up and fresh ones spread over the run. The cold start of
``python -m cleanpovm check`` is printed but left out of the result line. ``--trace 1`` prints the per-layer
metrics: it alternates an untraced and a traced pass over a fixed prefix
of the corpus, so every count repeats exactly for one seed, and the
difference between the two passes is the tracing overhead.

Human-readable lines (environment, metrics with sample counts, gates,
verdict and case counts) come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The package is imported from ``src/`` beside this directory;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-ups and cold starts run between ops, spread evenly over the measured
# seconds, so that one slow spell of a shared machine cannot hold them all.
SETUP_SAMPLES = 5  # this process plus four fresh ones
COLD_START_SAMPLES = 15
TAIL_MIN_ABOVE = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "verify_p50_ms": "ms",
    "verify_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics are "<span>.<field>"; spans.py names the spans.
LAYER_FIELDS = (
    ("povm.validate", ("calls", "self_ms", "lapack_calls")),
    ("cleanness.decide_clean", ("calls", "self_ms")),
    ("cleanness.totally_determined_nullspace", ("calls", "self_ms", "computed_mb")),
    *(
        (f"witness.build_witness.{case}", ("calls", "self_ms", "lapack_calls", "eps_attempts"))
        for case in "abcd"
    ),
    ("witness.verify_witness", ("calls", "self_ms")),
    ("channel.apply", ("calls", "self_ms")),
    ("channel.KrausChannel.build", ("calls", "self_ms")),
    ("fileio.load_povm", ("self_ms", "bytes")),
    ("fileio.load_witness_bundle", ("self_ms", "bytes")),
    ("fileio.save_witness_bundle", ("self_ms", "bytes")),
    ("fileio.save_json", ("self_ms", "bytes")),
    ("cli.main", ("self_ms",)),
    ("fuzz.check_instance", ("calls", "self_ms")),
)
FIELD_UNITS = {
    "calls": "count",
    "lapack_calls": "count",
    "eps_attempts": "count",
    "self_ms": "ms",
    "computed_mb": "MB",
    "bytes": "B",
}
DERIVED_UNITS = {
    "fuzz.decide_per_instance": "ratio",
    "fuzz.verify_per_witness": "ratio",
    "trace.untraced_ms": "ms",
    "trace.traced_ms": "ms",
    "trace.overhead_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{span}.{field}": FIELD_UNITS[field] for span, fields in LAYER_FIELDS for field in fields
    }
    return units | DERIVED_UNITS


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples above it): the highest percentile, in
    steps of 0.1, that leaves at least TAIL_MIN_ABOVE samples above it."""
    n = len(samples)
    ordered = sorted(samples)
    if n <= TAIL_MIN_ABOVE:
        return 0.0, ordered[0], n - 1
    pct = math.floor(1000 * (1 - TAIL_MIN_ABOVE / n)) / 10
    rank = max(1, math.ceil(round(pct * n / 100, 9)))  # nearest-rank
    return pct, ordered[rank - 1], n - rank


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def set_up(name: str, seed: int, workdir: Path):
    """Import, corpus, cold-start file and warm-up: (workload, corpus, seconds, warm-up outcomes)."""
    t0 = time.perf_counter()
    import numpy as np
    from cleanpovm import fileio, fuzz

    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    corpus = workload.build_corpus()
    _, small = fuzz.random_quasi_qubit_instance(4, np.random.default_rng([seed, 4]))
    fileio.save_povm(workdir / "cold-start.json", small)
    warm = [workload.safe_op(item) for item in corpus[: workload.warm_ops]]
    return workload, corpus, time.perf_counter() - t0, warm


def fresh_setup(args, tally) -> float | None:
    """Set-up time of a fresh process that sets up and exits, None if it failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append(proc.stderr[-500:])
        return None
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.attempted += sample["attempted"]
    tally.failed += sample["failed"]
    return sample["setup_s"]


def cold_start(workdir: Path, tally) -> float:
    """Wall time of one ``python -m cleanpovm check`` subprocess on the small file.

    The subprocess runs on one CPU. Spread over two, its start-up time
    depended on what this process had run just before (about 300 ms after
    fuzz-d4 ops, 210 ms after cli-large ops, on a 2-vCPU machine); pinned,
    both read about 240 ms.
    """
    from workloads import Outcome

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "cleanpovm", "check", "--input", str(workdir / "cold-start.json")]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})  # the subprocess inherits it
    try:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT, env=env)
        elapsed = time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, allowed)
    ok = proc.returncode in (0, 3)
    tally.add(Outcome(ok, problem=None if ok else f"cold start exit {proc.returncode}: "
                      f"{proc.stderr[-300:]}"), count_verdict=False)
    return elapsed


class Fastest:
    """Per input, the fastest op, busy and verify times over all passes."""

    def __init__(self, size: int):
        self.op = [math.inf] * size
        self.busy = [math.inf] * size
        self.verify = [math.inf] * size

    def add(self, index: int, outcome) -> None:
        if outcome.op_s > 0:
            self.op[index] = min(self.op[index], outcome.op_s)
            self.busy[index] = min(self.busy[index], outcome.busy_s)
        if outcome.verify_s is not None:
            self.verify[index] = min(self.verify[index], outcome.verify_s)

    def finite(self, values: list[float]) -> list[float]:
        return [v for v in values if v < math.inf]


def timed_passes(workload, corpus: list, seconds: float, tally, between=None) -> tuple[Fastest, int]:
    """Passes over the corpus until ``seconds`` have gone, at least one whole.

    ``between`` is called after every op with the seconds elapsed so far.
    Verdicts and cases are counted on the first pass only, so they describe
    the corpus. Returns the fastest times and the number of passes begun.
    """
    fastest = Fastest(len(corpus))
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for index, item in enumerate(corpus):
            if passes and time.perf_counter() - start >= seconds:
                break
            outcome = workload.safe_op(item)
            tally.add(outcome, count_verdict=passes == 0)
            fastest.add(index, outcome)
            extra = workload.safe_extra_verify(item, outcome)
            if extra is not None:
                tally.add(extra, count_verdict=False)
                fastest.add(index, extra)
            if between is not None:
                between(time.perf_counter() - start)
        passes += 1
    return fastest, passes


def report_tally(tally) -> None:
    print(f"gates: attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_frac {tally.failed / max(tally.attempted, 1):.6g}")
    print(f"verdicts (first pass): {dict(sorted(tally.verdicts.items()))}")
    print(f"cases (first pass): {dict(sorted(tally.cases.items()))}")
    for problem in tally.problems:
        print(f"failure: {problem}")


def measure_end_to_end(args, workload, corpus, setup_s: float, tally, gates: list[str]) -> dict:
    setups = [setup_s]
    fresh = []  # fresh set-ups begun, failed ones included
    cold = [cold_start(workload.workdir, tally)]

    def add_fresh_setup() -> None:
        fresh.append(fresh_setup(args, tally))
        if fresh[-1] is not None:
            setups.append(fresh[-1])

    def between(elapsed: float) -> None:
        if len(cold) < COLD_START_SAMPLES and elapsed >= len(cold) * args.seconds / COLD_START_SAMPLES:
            cold.append(cold_start(workload.workdir, tally))
        if (len(fresh) < SETUP_SAMPLES - 1
                and elapsed >= (len(fresh) + 0.5) * args.seconds / (SETUP_SAMPLES - 1)):
            add_fresh_setup()

    fastest, passes = timed_passes(workload, corpus, args.seconds, tally, between)
    while len(cold) < COLD_START_SAMPLES:
        cold.append(cold_start(workload.workdir, tally))
    while len(fresh) < SETUP_SAMPLES - 1:
        add_fresh_setup()

    if "spans" in sys.modules:
        gates.append("tracing module loaded during an untraced run")
    op_s, busy, verify_s = (fastest.finite(v) for v in (fastest.op, fastest.busy, fastest.verify))
    if not op_s or not verify_s:
        gates.append("no latency samples")
        return {}

    op_pct, op_tail, op_above = tail(op_s)
    v_pct, v_tail, v_above = tail(verify_s)
    values = {
        "ops_per_s": len(busy) / sum(busy),
        "op_p50_ms": 1e3 * statistics.median(op_s),
        "op_tail_ms": 1e3 * op_tail,
        "verify_p50_ms": 1e3 * statistics.median(verify_s),
        "verify_tail_ms": 1e3 * v_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    per_input = f"fastest of {passes} passes per input"
    notes = {
        "ops_per_s": f"{len(busy)} inputs over {sum(busy):.3f} s of package time, {per_input}",
        "op_p50_ms": f"n={len(op_s)} inputs, {per_input}",
        "op_tail_ms": f"p{op_pct:g}, n={len(op_s)}, {op_above} samples above",
        "verify_p50_ms": f"n={len(verify_s)} witnesses, {per_input}",
        "verify_tail_ms": f"p{v_pct:g}, n={len(verify_s)}, {v_above} samples above",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": f"median of {len(setups)} set-ups: {[round(s, 3) for s in setups]}",
    }
    for name, value in values.items():
        print(f"{name}: {value:.6g} {END_TO_END_UNITS[name]} ({notes[name]})")
    # Printed, not in the result line: README.md says why.
    print(f"cold_start_ms: {1e3 * min(cold):.6g} ms (fastest of {len(cold)} subprocesses: "
          f"{[round(1e3 * c) for c in cold]})")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def run_pass(workload, items: list, tally, tracer=None, count_verdict=False) -> tuple[float, list[str]]:
    """One pass over ``items``, traced when a tracer is given.

    Returns the summed package time in ms and the bindings the tracer could
    not restore.
    """
    not_restored = []
    busy = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for item in items:
            outcome = workload.safe_op(item)
            tally.add(outcome, count_verdict)
            busy += outcome.busy_s
    finally:
        if tracer is not None:
            not_restored = tracer.uninstall()
    return 1e3 * busy, not_restored


def _counts(aggregate: dict) -> dict:
    return {
        span: {k: v for k, v in row.items() if not k.endswith("_ms")}
        for span, row in aggregate.items()
    }


def measure_per_layer(args, workload, corpus, tally, gates: list[str]) -> dict:
    from spans import Tracer

    tracer = Tracer()
    items = corpus[: workload.trace_ops]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        untraced, _ = run_pass(workload, items, tally, count_verdict=not rounds)
        traced, not_restored = run_pass(workload, items, tally, tracer)
        if not_restored:
            gates.append(f"bindings not restored: {not_restored}")
        aggregate = tracer.aggregate()
        self_sum = sum(row["self_ms"] for row in aggregate.values())
        if self_sum > tracer.root_ms() + 1e-6 or tracer.root_ms() > traced + 1e-6:
            gates.append(f"self times {self_sum:.3f} ms, span wall {tracer.root_ms():.3f} ms, "
                         f"package time {traced:.3f} ms do not nest")
        tracer.reset()
        rounds.append((untraced, traced, aggregate))

    first = rounds[0][2]
    if any(_counts(r[2]) != _counts(first) for r in rounds[1:]):
        gates.append("per-layer counts differ between rounds with the same inputs")

    values = {}
    for span, fields in LAYER_FIELDS:
        for field in fields:
            name = f"{span}.{field}"
            if field == "self_ms":
                values[name] = statistics.median(r[2].get(span, {}).get(field, 0.0) for r in rounds)
            elif field == "eps_attempts" and not tracer.eps_helpers_present.get(span[-1], True):
                print(f"{name}: absent (per-trial helper not found)")
            else:
                values[name] = first.get(span, {}).get(field, 0.0)

    def calls(span: str) -> float:
        return first.get(span, {}).get("calls", 0.0)

    instances = calls("fuzz.check_instance")
    witnesses = sum(calls(f"witness.build_witness.{c}") for c in "abcd")
    values["fuzz.decide_per_instance"] = (
        calls("cleanness.decide_clean") / instances if instances else 0.0
    )
    values["fuzz.verify_per_witness"] = (
        calls("witness.verify_witness") / witnesses if instances and witnesses else 0.0
    )
    values["trace.untraced_ms"] = statistics.median(r[0] for r in rounds)
    values["trace.traced_ms"] = statistics.median(r[1] for r in rounds)
    values["trace.overhead_ms"] = statistics.median(r[1] - r[0] for r in rounds)

    units = per_layer_units()
    print(f"traced rounds: {len(rounds)} x {len(items)} inputs; "
          "counts from round 1, times are medians over rounds")
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    other = sorted(set(first) - {span for span, _ in LAYER_FIELDS})
    if other:
        print(f"other spans: {other}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fuzz-d4", "cli-large", "witness-split"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cleanpovm" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'cleanpovm'} not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload, corpus, setup_s, warm = set_up(args.workload, args.seed, workdir)
        import cleanpovm

        if Path(cleanpovm.__file__).resolve().parent != (SRC / "cleanpovm").resolve():
            print(f"error: imported cleanpovm from {cleanpovm.__file__}", file=sys.stderr)
            return 2
        from workloads import Tally

        tally = Tally()
        for outcome in warm:
            tally.add(outcome, count_verdict=False)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "attempted": tally.attempted,
                              "failed": tally.failed}))
            return 0

        print(f"environment: {json.dumps(environment())}")
        print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} corpus={len(corpus)}")
        gates: list[str] = []
        if args.trace:
            metrics = measure_per_layer(args, workload, corpus, tally, gates)
        else:
            metrics = measure_end_to_end(args, workload, corpus, setup_s, tally, gates)
        report_tally(tally)
        for gate in gates:
            print(f"gate failed: {gate}")
        result = {
            "correct": tally.failed == 0 and not gates,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
