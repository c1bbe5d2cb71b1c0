"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    human = "\n".join(lines[:-1])
    for metric in expected:
        assert f"{metric['name']}: " in human
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "verdicts (first pass): {'" in human and "environment: " in human


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fuzz-d4", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_never_sum_past_wall(tmp_path):
    import cleanpovm.cli as cli
    import cleanpovm.cleanness as cleanness
    import numpy as np

    originals = (cli.decide_clean, cleanness.decide_clean, np.linalg.eigh)
    workload = workloads.CliLarge(5, tmp_path)
    tracer = Tracer()
    tally = workloads.Tally()
    items = workload.build_corpus()[:6]
    tracer.install()
    assert cli.decide_clean is not originals[0]
    try:
        for item in items:
            outcome = workload.run_op(item)
            tally.add(outcome)
    finally:
        not_restored = tracer.uninstall()
    assert not_restored == []
    assert tally.failed == 0
    aggregate = tracer.aggregate()
    self_sum = sum(row["self_ms"] for row in aggregate.values())
    assert all(row["self_ms"] >= 0 for row in aggregate.values())
    assert self_sum <= tracer.root_ms() + 1e-6
    assert aggregate["cli.main"]["calls"] >= 6
    assert (cli.decide_clean, cleanness.decide_clean, np.linalg.eigh) == originals


def test_counts_repeat_with_one_seed(tmp_path):
    def traced_counts():
        workload = workloads.WitnessSplit(2, tmp_path)
        tracer = Tracer()
        items = workload.build_corpus()[:9]
        _, not_restored = run.run_pass(workload, items, workloads.Tally(), tracer)
        assert not_restored == []
        return {
            span: {k: v for k, v in row.items() if not k.endswith("_ms")}
            for span, row in tracer.aggregate().items()
        }

    assert traced_counts() == traced_counts()


class TamperingCliLarge(workloads.CliLarge):
    """Breaks the channel closure of every bundle before it is verified."""

    def _cli(self, argv):
        if argv[0] == "verify":
            bundle = Path(argv[argv.index("--witness") + 1])
            obj = json.loads(bundle.read_text())
            kraus = obj["channel"]["kraus"][0]
            obj["channel"]["kraus"][0] = [[[1.01 * re, 1.01 * im] for re, im in row] for row in kraus]
            bundle.write_text(json.dumps(obj))
        return super()._cli(argv)


def test_tampered_bundle_raises_failed_frac(tmp_path):
    tally = workloads.Tally()
    workload = TamperingCliLarge(1, tmp_path)
    run.timed_passes(workload, workload.build_corpus()[:12], 0.5, tally)
    assert tally.cases, "no witness was written, so nothing was tampered"
    assert tally.failed > 0
    assert tally.failed / tally.attempted > 0


def test_tail_leaves_ten_samples_above():
    samples = list(range(1, 1001))
    pct, value, above = run.tail(samples)
    assert (pct, above) == (99.0, 10) and value == 990
    pct, value, above = run.tail(list(range(1, 38)))
    assert above >= 10 and value == sorted(range(1, 38))[-above - 1]
