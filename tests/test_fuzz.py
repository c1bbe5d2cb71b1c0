"""Tests for the fuzz harness: each check runs once and still catches its fault."""

import numpy as np
import pytest

from cleanpovm import fuzz, witness
from cleanpovm.cleanness import CleannessVerdict, OracleVerdict, decide_clean
from cleanpovm.cli import main
from cleanpovm.errors import ConstructionFailed, EpsilonSearchFailed
from cleanpovm.linalg import Tolerances
from cleanpovm.povm import validate
from cleanpovm.witness import WitnessReport


def not_clean_povm():
    """Partition split with a case-b witness."""
    return validate([np.diag([0.25, 0.0]), np.diag([0.0, 0.25]), np.diag([0.75, 0.75])])


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that its calls are counted."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


#: The ``numpy.linalg`` entry points whose calls one fuzz instance is budgeted for.
LINALG_CALLS = ("eigh", "eigvalsh", "svd", "qr", "solve", "inv", "cholesky", "norm")

#: Ceiling on the total of :func:`linalg_calls` at d = 4 over seeds 0..49, 16.2
#: calls per instance (28.8 before the fuzz path ran on stacks); it may only fall.
LINALG_CALL_BUDGET = 810


def linalg_calls(dim: int = 4, seeds=range(50)) -> dict:
    """``numpy.linalg`` calls of ``run_fuzz(dim, 1, s)`` for each seed s, by function."""
    counts = dict.fromkeys(LINALG_CALLS, 0)
    originals = {name: getattr(np.linalg, name) for name in LINALG_CALLS}

    def counted(name):
        def call(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)
        return call

    try:
        for name in LINALG_CALLS:
            setattr(np.linalg, name, counted(name))
        for seed in seeds:
            fuzz.run_fuzz(dim, 1, seed)
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)
    return counts


def test_linalg_call_budget():
    """The d = 4 fuzz path's numpy.linalg calls stay within the pinned budget."""
    counts = linalg_calls()
    assert sum(counts.values()) <= LINALG_CALL_BUDGET, counts


def test_each_check_runs_once(monkeypatch):
    decides = counting(monkeypatch, fuzz, "decide_clean")
    oracles = counting(monkeypatch, fuzz, "oracle_verdict")
    verifies = counting(monkeypatch, witness, "verify_witness")
    p = not_clean_povm()
    verdict, case_tag, problems = fuzz.check_instance(p, np.random.default_rng(0))
    assert not verdict.clean and case_tag == "b" and problems == []
    assert (len(decides), len(oracles), len(verifies)) == (3, 1, 1)


def test_permuted_copy_reuses_validated_elements(monkeypatch):
    decides = counting(monkeypatch, fuzz, "decide_clean")
    p = not_clean_povm()
    fuzz.check_instance(p, np.random.default_rng(0))
    permuted = decides[1][0]
    assert sorted(map(id, permuted.elements)) == sorted(map(id, p.elements))


def test_failed_verification_is_a_violation(monkeypatch):
    def failing(p, w, tol=None):
        return WitnessReport(True, True, True, False, 0.0, 0.0, 0.0)

    monkeypatch.setattr(witness, "verify_witness", failing)
    _, case_tag, problems = fuzz.check_instance(not_clean_povm(), np.random.default_rng(0))
    assert case_tag == "b"
    assert problems == [
        "witness verification failed: unital=True maps=True widened=False valid=True"
    ]


def test_construction_breakdown_stays_an_unexpected_error(monkeypatch):
    def breaks(*args, **kwargs):
        raise EpsilonSearchFailed("no eps")

    monkeypatch.setattr(witness, "_case_b", breaks)
    with pytest.raises(ConstructionFailed):
        fuzz.check_instance(not_clean_povm(), np.random.default_rng(0))


def test_unexpected_error_is_one_line_without_paths(monkeypatch):
    def breaks(*args, **kwargs):
        raise EpsilonSearchFailed("no eps")

    monkeypatch.setattr(witness, "_case_b", breaks)
    summary = fuzz.run_fuzz(dim=2, count=10, seed=3)
    messages = {v.message for v in summary.violations}
    assert messages == {
        "unexpected error: ConstructionFailed: witness construction failed: no eps"
    }
    assert not any('File "' in m or "\n" in m for m in messages)


def test_oracle_disagreement_is_a_violation(monkeypatch):
    monkeypatch.setattr(fuzz, "oracle_verdict", lambda povm, tol=None: OracleVerdict(True, 1))
    _, _, problems = fuzz.check_instance(not_clean_povm(), np.random.default_rng(0))
    assert problems == ["oracle disagreement: verdict clean=False, oracle clean=True"]


@pytest.mark.parametrize(
    "flipped_call, message",
    [
        (1, "verdict changed under element permutation"),
        (2, "verdict changed under unitary conjugation"),
    ],
)
def test_changed_verdict_is_a_violation(monkeypatch, flipped_call, message):
    calls = []

    def flipping(povm, tol=None):
        verdict = decide_clean(povm)
        calls.append(verdict)
        if len(calls) - 1 == flipped_call:
            return CleannessVerdict(not verdict.clean, verdict.reason, None, None)
        return verdict

    monkeypatch.setattr(fuzz, "decide_clean", flipping)
    _, _, problems = fuzz.check_instance(not_clean_povm(), np.random.default_rng(0))
    assert problems == [message]


def test_run_fuzz_records_violations(monkeypatch):
    monkeypatch.setattr(fuzz, "oracle_verdict", lambda povm, tol=None: OracleVerdict(False, 0))
    summary = fuzz.run_fuzz(dim=2, count=10, seed=3)
    clean = summary.verdict_counts["RankOne"] + summary.verdict_counts["TotallyDetermined"]
    assert clean > 0
    assert len(summary.violations) == clean
    assert all(v.message.startswith("oracle disagreement") for v in summary.violations)


def test_reference_run_counts(tmp_path, capsys):
    """The d = 4 reference run: same verdicts, cases and no violations."""
    rc = main(["fuzz", "--dim", "4", "--count", "1000", "--seed", "1",
               "--repro-dir", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert (
        "verdicts: {'PartitionSplit': 242, 'RankOne': 104, 'ScalarElements': 55, "
        "'SupportsDoNotSpan': 443, 'TotallyDetermined': 156}"
    ) in lines
    assert "witness cases: {'a': 55, 'b': 224, 'c': 323, 'd': 138}" in lines
    assert "violations: 0" in lines


def test_tolerance_override_run_has_no_violations(tmp_path, capsys):
    """Under ``--tol`` the conjugated copy keeps the ranks of the POVM as drawn."""
    rc = main(["fuzz", "--dim", "3", "--count", "100", "--seed", "1", "--tol", "1e-2",
               "--repro-dir", str(tmp_path)])
    assert "violations: 0" in capsys.readouterr().out.splitlines()
    assert rc == 0


def test_search_that_ends_on_a_failed_report_is_a_failed_verification():
    """Under ``--tol 1e-2`` case c copies an element whose norm is below the
    zero gate into Q, so every trial's report finds Q invalid; the failed
    search carries its last report and counts as a failed verification."""
    tol = Tolerances(rank=1e-2, zero=1e-2)
    rng = np.random.default_rng([3, 82])
    _, povm = fuzz.random_quasi_qubit_instance(4, rng)
    _, case_tag, problems = fuzz.check_instance(povm, rng, tol)
    assert case_tag == "c"
    assert problems == [
        "witness verification failed: unital=True maps=True widened=True valid=False"
    ]


def test_coarse_tolerance_failure_paths_are_pinned():
    """The violations of one ``--tol 1e-2`` run, as indices and messages: two
    oracle ties and four case-c searches whose every report finds Q invalid."""
    summary = fuzz.run_fuzz(4, 300, 3, Tolerances(rank=1e-2, zero=1e-2))
    tie = "oracle disagreement: verdict clean=True, oracle clean=False"
    invalid = "witness verification failed: unital=True maps=True widened=True valid=False"
    assert [(v.index, v.message) for v in summary.violations] == [
        (6, tie), (82, invalid), (107, invalid), (198, invalid), (220, invalid), (296, tie)
    ]
