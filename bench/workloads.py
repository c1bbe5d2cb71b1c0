"""The three benchmark workloads.

Each workload is a closed loop with one caller. During set-up the
benchmark builds a fixed corpus of inputs from the workload seed; the
measured loop then hands the corpus to the package, one input at a time,
through a public entry point, waits for the result and checks it. Making
the inputs is the benchmark's own work; every latency covers only calls
into the package.

* ``fuzz-d4``: ``fuzz.run_fuzz(dim=4, count=1, seed)`` per instance over the
  package's scenario mix, with a fixed quota per scenario. Writes no files.
* ``cli-large``: ``cli.main(["check", "--oracle", "--witness-out", ...,
  "--json-out", ...])`` on POVM files at d in {8, 12, 16} drawn from the
  fuzz scenario mix, then ``cli.main(["verify", ..., "--json-out", ...])``
  on every bundle written.
* ``witness-split``: ``validate -> decide_clean -> build_witness ->
  verify_witness`` on planted split POVMs at d in {4, 8, 12} with the
  block-diagonal, orthogonal and oblique settings of the fuzz scenarios.

In ``cli-large`` and ``witness-split`` the shape of every input (scenario,
outcome count, ranks, split geometry) comes from the fixed TEMPLATE_SEED,
and the workload seed rotates each POVM by its own Haar unitary. A unitary
rotation keeps every verdict, witness case and spectrum, so each seed does
the same work on different matrices, and the figures do not depend on
whether a seed happened to draw larger instances.

Calls go through module attributes (``fuzz.run_fuzz``, ``cli.main``,
``cp.validate``) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cleanpovm as cp
from cleanpovm import cli, fileio, fuzz
from cleanpovm.linalg import haar_unitary

# The fuzz scenario weights when this benchmark was defined. fuzz-d4 and
# cli-large fill a quota per scenario from them, so every seed gets the
# same mix.
SCENARIO_WEIGHTS = {
    "rank-one": 0.10,
    "full-rank": 0.07,
    "scalar": 0.05,
    "generic-strict": 0.28,
    "frame-strict": 0.12,
    "split-blockdiag": 0.11,
    "split-orthogonal": 0.09,
    "split-oblique": 0.12,
    "nonspanning": 0.06,
}

TEMPLATE_SEED = 20_260_000  # fixes the shape of every cli-large and witness-split input


@dataclass
class Outcome:
    ok: bool
    op_s: float = 0.0  # the op's latency sample
    busy_s: float = 0.0  # all package time of the op; throughput is ops / sum(busy_s)
    verify_s: float | None = None
    verdict: str | None = None
    case: str | None = None
    problem: str | None = None


def _failure(problem: str, **kwargs) -> Outcome:
    return Outcome(False, problem=problem, **kwargs)


def _guarded(fn, *args) -> Outcome | None:
    """``fn(*args)``, with any exception turned into a failed outcome."""
    try:
        return fn(*args)
    except Exception:
        return _failure(traceback.format_exc(limit=3))


def rotated(povm, rng: np.random.Generator) -> list[np.ndarray]:
    """The POVM's matrices conjugated by one Haar unitary drawn from ``rng``."""
    u = haar_unitary(povm.dim, rng)
    return [u @ e.matrix @ u.conj().T for e in povm.elements]


def quotas(weights: dict[str, float], total: int) -> dict[str, int]:
    """Split ``total`` in proportion to ``weights`` by largest remainder."""
    scale = total / sum(weights.values())
    exact = {name: w * scale for name, w in weights.items()}
    out = {name: int(x) for name, x in exact.items()}
    by_remainder = sorted(exact, key=lambda name: exact[name] - out[name], reverse=True)
    for name in by_remainder[: total - sum(out.values())]:
        out[name] += 1
    return out


class Workload:
    name = ""
    corpus_size = 0
    trace_ops = 0  # corpus inputs per traced round
    warm_ops = 0  # corpus inputs run once during set-up

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def build_corpus(self) -> list:
        raise NotImplementedError

    def run_op(self, item) -> Outcome:
        raise NotImplementedError

    def extra_verify(self, item, outcome: Outcome) -> Outcome | None:
        """An extra timed verify sample for workloads whose op hides it."""
        return None

    def safe_op(self, item) -> Outcome:
        return _guarded(self.run_op, item)

    def safe_extra_verify(self, item, outcome: Outcome) -> Outcome | None:
        return _guarded(self.extra_verify, item, outcome)


class FuzzD4(Workload):
    name = "fuzz-d4"
    corpus_size = 150
    trace_ops = 150
    warm_ops = 30

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._witnesses = {}

    def build_corpus(self) -> list[int]:
        """Instance seeds whose scenarios fill a quota per fuzz scenario.

        ``run_fuzz`` draws instance 0 of seed ``item`` from
        ``default_rng([item, 0])``; the same draw here tells its scenario, so
        every workload seed runs the same scenario mix.
        """
        want = quotas(SCENARIO_WEIGHTS, self.corpus_size)
        corpus = []
        first = self.seed * 10_000_000
        for item in range(first, first + 100 * self.corpus_size):
            if not any(want.values()):
                return corpus
            scenario, _ = fuzz.random_quasi_qubit_instance(4, np.random.default_rng([item, 0]))
            if want.get(scenario, 0) > 0:
                want[scenario] -= 1
                corpus.append(item)
        raise RuntimeError(f"scenario quotas unfilled at d=4: {want}")

    def run_op(self, item: int) -> Outcome:
        t0 = time.perf_counter()
        summary = fuzz.run_fuzz(dim=4, count=1, seed=item)
        dt = time.perf_counter() - t0
        verdict = next(iter(summary.verdict_counts), None)
        case = next(iter(summary.case_counts), None)
        if summary.violations:
            return _failure(summary.violations[0].message, op_s=dt, busy_s=dt, verdict=verdict)
        return Outcome(True, dt, dt, verdict=verdict, case=case)

    def extra_verify(self, item: int, outcome: Outcome) -> Outcome | None:
        """Time ``verify_witness`` on the instance's witness, rebuilt untimed once.

        ``run_fuzz`` draws instance 0 of seed ``item`` from
        ``default_rng([item, 0])``, so the same call rebuilds the same POVM.
        """
        if outcome.case is None:
            return None
        if item not in self._witnesses:
            _, povm = fuzz.random_quasi_qubit_instance(4, np.random.default_rng([item, 0]))
            self._witnesses[item] = povm, cp.build_witness(povm, cp.decide_clean(povm))
        povm, witness = self._witnesses[item]
        t0 = time.perf_counter()
        report = cp.verify_witness(povm, witness)
        dt = time.perf_counter() - t0
        if not report.passed:
            return _failure("rebuilt fuzz witness rejected", verify_s=dt)
        return Outcome(True, verify_s=dt)


class CliLarge(Workload):
    name = "cli-large"
    dims = (8, 12, 16)
    corpus_size = 60
    trace_ops = 24
    warm_ops = 6

    def build_corpus(self) -> list[Path]:
        per_dim = {}
        for d in self.dims:
            want = quotas(SCENARIO_WEIGHTS, self.corpus_size // len(self.dims))
            rng = np.random.default_rng([TEMPLATE_SEED, d])
            drawn = []
            for _ in range(100 * self.corpus_size):
                if not any(want.values()):
                    break
                scenario, povm = fuzz.random_quasi_qubit_instance(d, rng)
                if want.get(scenario, 0) > 0:
                    want[scenario] -= 1
                    drawn.append(povm)
            else:
                raise RuntimeError(f"scenario quotas unfilled at d={d}: {want}")
            per_dim[d] = [drawn[i] for i in rng.permutation(len(drawn))]
        corpus = []
        for j in range(self.corpus_size // len(self.dims)):
            for d in self.dims:
                path = self.workdir / f"povm-{len(corpus):03d}-d{d}.json"
                rng = np.random.default_rng([self.seed, d, j])
                fileio.save_povm(path, cp.validate(rotated(per_dim[d][j], rng)))
                corpus.append(path)
        return corpus

    def _cli(self, argv) -> tuple[int, float, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, time.perf_counter() - t0, err.getvalue()

    def run_op(self, povm_path: Path) -> Outcome:
        stem = povm_path.stem
        bundle, check_report, verify_report = (
            self.workdir / f"{stem}.{kind}.json" for kind in ("bundle", "check", "verify")
        )
        for stale in (bundle, check_report, verify_report):
            stale.unlink(missing_ok=True)

        code, check_s, err = self._cli(
            ["check", "--input", str(povm_path), "--oracle", "--witness-out", str(bundle),
             "--json-out", str(check_report)]
        )
        if code not in (0, 3):
            return _failure(f"check exit {code}: {err.strip()}", op_s=check_s, busy_s=check_s)
        report = json.loads(check_report.read_text())
        verdict = report["reason"]
        oracle = report.get("oracle", {})
        if not (oracle.get("agreement") is True or oracle.get("skipped") is True):
            return _failure(f"oracle report {oracle}", op_s=check_s, busy_s=check_s, verdict=verdict)
        if code == 0:
            return Outcome(True, check_s, check_s, verdict=verdict)

        case = report.get("witness", {}).get("case")
        if case is None or not bundle.exists():
            return _failure("not clean but no witness bundle", op_s=check_s, busy_s=check_s)
        code, verify_s, err = self._cli(
            ["verify", "--povm", str(povm_path), "--witness", str(bundle),
             "--json-out", str(verify_report)]
        )
        busy = check_s + verify_s
        if code != 0 or json.loads(verify_report.read_text()).get("passed") is not True:
            return _failure(f"verify exit {code}: {err.strip()}", op_s=check_s, busy_s=busy,
                            verify_s=verify_s, verdict=verdict, case=case)
        return Outcome(True, check_s, busy, verify_s, verdict, case)


class WitnessSplit(Workload):
    name = "witness-split"
    dims = (4, 8, 12)
    kinds = ("blockdiag", "orthogonal", "oblique")
    corpus_size = 630
    trace_ops = 90
    warm_ops = 18

    def build_corpus(self) -> list[list[np.ndarray]]:
        return [self._planted(index) for index in range(self.corpus_size)]

    def _planted(self, index: int) -> list[np.ndarray]:
        d = self.dims[index % 3]
        kind = self.kinds[(index // 3) % 3]
        rng = np.random.default_rng([TEMPLATE_SEED, index])
        # the parameter ranges of the fuzz split-* scenarios
        if kind == "blockdiag":
            povm = cp.random_split_povm(d, 1, 1, int(rng.integers(1, d)), rng,
                                        block_diagonal=True, n_extra_full=int(rng.integers(0, 2)))
        else:
            dim_v = int(rng.integers(1, d))
            n_v = int(rng.integers(1, dim_v + 2))
            n_w = int(rng.integers(1, d - dim_v + 2))
            if kind == "orthogonal":
                povm = cp.random_split_povm(d, dim_v, n_v, n_w, rng,
                                            n_extra_full=int(rng.integers(0, 2)))
            else:
                povm = cp.random_split_povm(d, dim_v, n_v, n_w, rng, oblique=True)
        return rotated(povm, np.random.default_rng([self.seed, index]))

    def run_op(self, matrices) -> Outcome:
        t0 = time.perf_counter()
        povm = cp.validate(matrices)
        verdict = cp.decide_clean(povm)
        if verdict.clean:
            dt = time.perf_counter() - t0
            return _failure("planted split POVM judged clean", op_s=dt, busy_s=dt,
                            verdict=verdict.reason.value)
        witness = cp.build_witness(povm, verdict)
        t1 = time.perf_counter()
        report = cp.verify_witness(povm, witness)
        t2 = time.perf_counter()
        out = Outcome(report.passed, t2 - t0, t2 - t0, t2 - t1, verdict.reason.value,
                      witness.case_tag)
        if not report.passed:
            out.problem = "witness rejected by verify_witness"
        return out


WORKLOADS = {w.name: w for w in (FuzzD4, CliLarge, WitnessSplit)}


@dataclass
class Tally:
    """Outcomes of a run: attempts, failures, verdict and case counts."""

    attempted: int = 0
    failed: int = 0
    verdicts: Counter = field(default_factory=Counter)
    cases: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    def add(self, outcome: Outcome, count_verdict: bool = True) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(outcome.problem)
        if count_verdict:
            if outcome.verdict is not None:
                self.verdicts[outcome.verdict] += 1
            if outcome.case is not None:
                self.cases[outcome.case] += 1
