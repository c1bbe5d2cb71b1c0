"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads fuzz-d4 cli-large] [--out FILE]

Runs ``BENCHMARK.json``'s command once per workload and seed, sequentially,
with the file's ``run_seconds``. For every end-to-end metric it prints the
median and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound. ``--out`` writes every run's result line, with the
environment the runs reported, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable if bench["command"][0] == "python3" else bench["command"][0],
           *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((ln.split(": ", 1)[1] for ln in lines if ln.startswith("environment: ")), "{}")
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None, help="write every result line here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    record = {"environment": None, "run_seconds": bench["run_seconds"], "trace": args.trace,
              "runs": {}}
    for workload in names:
        results = []
        for seed in seed_range(args.seeds):
            result, env = run_once(bench, workload, seed, args.trace)
            record["environment"] = record["environment"] or json.loads(env)
            results.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        record["runs"][workload] = results
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results
                      if metric["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = metric.get("bound")
            flag = "" if bound is None else (
                "ok" if spread < bound / 3 else "within bound" if spread <= bound else "OVER")
            print(f"  {workload:14s} {metric['name']:48s} median {median:12.6g} "
                  f"{metric['unit']:6s} spread {spread:7.3f}"
                  + ("" if bound is None else f" bound {bound:.2f} {flag}"), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
