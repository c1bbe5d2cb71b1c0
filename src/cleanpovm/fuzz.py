"""Randomized cross-checking harness.

Each instance draws a quasi-qubit POVM from a scenario mix (generic and
planted geometries), then asserts three things against one another:

* verdict vs. nullspace oracle: clean == rank-one or nullity 1;
* verdict invariance under element permutation and unitary conjugation;
* witness soundness: every not-clean instance yields a verifiable witness.

Any failure is recorded with the offending POVM serialized for replay.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .cleanness import decide_clean, oracle_verdict
from .errors import ConstructionFailed
from .fileio import povm_to_json
from .linalg import DEFAULT_TOL, Tolerances, haar_unitary
from .povm import Povm, random_povm, random_split_povm, validate
from .witness import build_witness


@dataclass
class FuzzViolation:
    index: int
    scenario: str
    message: str
    povm_json: dict


@dataclass
class FuzzSummary:
    dim: int
    count: int
    seed: int
    elapsed_seconds: float
    verdict_counts: Counter = field(default_factory=Counter)
    case_counts: Counter = field(default_factory=Counter)
    scenario_counts: Counter = field(default_factory=Counter)
    violations: list[FuzzViolation] = field(default_factory=list)


_SCENARIOS = (
    ("rank-one", 0.10),
    ("full-rank", 0.07),
    ("scalar", 0.05),
    ("generic-strict", 0.28),
    ("frame-strict", 0.12),
    ("split-blockdiag", 0.11),
    ("split-orthogonal", 0.09),
    ("split-oblique", 0.12),
    ("nonspanning", 0.06),
)
_NAMES = [s for s, _ in _SCENARIOS]
_WEIGHTS = np.array([w for _, w in _SCENARIOS])
#: The table ``rng.choice(_NAMES, p=_WEIGHTS / _WEIGHTS.sum())`` builds before its
#: one uniform draw u, which picks ``_NAMES[_CDF.searchsorted(u, side="right")]``.
_CDF = (_WEIGHTS / _WEIGHTS.sum()).cumsum()
_CDF /= _CDF[-1]


def random_quasi_qubit_instance(dim: int, rng: np.random.Generator) -> tuple[str, Povm]:
    """One POVM from the scenario mix; always quasi-qubit with n >= 2 outcomes."""
    scenario = _NAMES[int(_CDF.searchsorted(rng.random(), side="right"))]
    d = dim

    if scenario == "rank-one":
        n = int(rng.integers(d, d + 3))
        return scenario, random_povm("rank-one", d, n, rng)
    if scenario == "full-rank":
        n = int(rng.integers(2, 5))
        return scenario, random_povm("full-rank", d, n, rng)
    if scenario == "scalar":
        n = int(rng.integers(2, 4))
        return scenario, random_povm("scalar", d, n, rng)
    if scenario == "generic-strict":
        n = int(rng.integers(max(2, d), d + 4))
        return scenario, random_povm("strict-quasi-qubit", d, n, rng)
    if scenario == "frame-strict":
        # enough generic supports to totally determine the space (clean)
        k = d + 1 + int(rng.integers(0, 2))
        return scenario, random_povm("strict-quasi-qubit", d, k + 1, rng, n_rank_one=k)

    dim_v = 1 if d == 2 else int(rng.integers(1, d))
    if scenario == "split-blockdiag":
        dim_v = 1  # 1-dim V keeps every element block-diagonal for the found pair
        n_v, n_w = 1, int(rng.integers(1, d))
        return scenario, random_split_povm(
            d, dim_v, n_v, n_w, rng, block_diagonal=True, n_extra_full=int(rng.integers(0, 2))
        )
    if scenario == "split-orthogonal":
        n_v = int(rng.integers(1, dim_v + 2))
        n_w = int(rng.integers(1, d - dim_v + 2))
        return scenario, random_split_povm(
            d, dim_v, n_v, n_w, rng, n_extra_full=int(rng.integers(0, 2))
        )
    if scenario == "split-oblique":
        n_v = int(rng.integers(1, dim_v + 2))
        n_w = int(rng.integers(1, d - dim_v + 2))
        return scenario, random_split_povm(d, dim_v, n_v, n_w, rng, oblique=True)
    if scenario == "nonspanning":
        n_v = int(rng.integers(1, max(2, d - 1)))
        return scenario, random_split_povm(d, max(1, d - 1), n_v, 0, rng)
    raise AssertionError(f"unhandled scenario {scenario}")


def check_instance(povm: Povm, rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL):
    """Run all per-instance assertions; returns (verdict, case_tag, problems).

    Each check runs once: three decisions (as given, permuted, conjugated),
    one oracle, and for a not-clean verdict one witness, whose accepted eps
    trial's report inside ``build_witness`` is its one verification.
    """
    problems: list[str] = []
    verdict = decide_clean(povm, tol)

    oracle = oracle_verdict(povm, tol)
    if oracle.clean != verdict.clean:
        problems.append(
            f"oracle disagreement: verdict clean={verdict.clean}, oracle clean={oracle.clean}"
        )

    perm = rng.permutation(povm.n_outcomes)
    # the POVM's validated elements, reordered; revalidating them at the same
    # tolerance would give them back bit for bit
    elements = tuple(povm.elements[i] for i in perm)
    permuted = Povm(povm.dim, elements, None, povm.matrices[perm], povm.eigenvalues[perm])
    if decide_clean(permuted, tol).clean != verdict.clean:
        problems.append("verdict changed under element permutation")

    u = haar_unitary(povm.dim, rng)
    # validated at the tolerance the generator used, so that the conjugated
    # copy, like the permuted one, keeps the ranks of the POVM as drawn
    conjugated = validate(u @ povm.matrices @ u.conj().T, DEFAULT_TOL)
    if decide_clean(conjugated, tol).clean != verdict.clean:
        problems.append("verdict changed under unitary conjugation")

    case_tag = None
    if not verdict.clean:
        try:
            case_tag = build_witness(povm, verdict, tol).case_tag
        except ConstructionFailed as exc:
            report = exc.diagnostics
            if "q_valid" not in report:
                raise  # the construction broke down before verification
            case_tag = exc.case_tag
            problems.append(
                f"witness verification failed: unital={report['channel_unital']} "
                f"maps={report['maps_to_target']} widened={report['widened']} "
                f"valid={report['q_valid']}"
            )
    return verdict, case_tag, problems


def run_fuzz(dim: int, count: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> FuzzSummary:
    """Fuzz ``count`` instances; each derives its generator from (seed, index)."""
    start = time.perf_counter()
    summary = FuzzSummary(dim=dim, count=count, seed=seed, elapsed_seconds=0.0)
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        scenario, povm = random_quasi_qubit_instance(dim, rng)
        summary.scenario_counts[scenario] += 1
        try:
            verdict, case_tag, problems = check_instance(povm, rng, tol)
            summary.verdict_counts[verdict.reason.value] += 1
            if case_tag is not None:
                summary.case_counts[case_tag] += 1
        except Exception as exc:
            problems = [f"unexpected error: {type(exc).__name__}: {exc}"]
        for message in problems:
            summary.violations.append(
                FuzzViolation(index, scenario, message, povm_to_json(povm))
            )
    summary.elapsed_seconds = time.perf_counter() - start
    return summary
