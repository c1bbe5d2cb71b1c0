"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(visible with ``pytest -s`` or in captured output). The shared corpus draws
1000 quasi-qubit POVMs per dimension from the mixed scenario generator used
by the fuzz command; every instance is deterministic in (dimension, index).
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from cleanpovm.channel import KrausChannel, apply
from cleanpovm.cleanness import OracleVerdict, decide_clean, oracle_verdict
from cleanpovm.fuzz import random_quasi_qubit_instance
from cleanpovm.linalg import haar_unitary, random_psd
from cleanpovm.povm import rank_one_supports, validate
from cleanpovm.witness import build_witness, case_b_kraus, case_b_widen_map, verify_witness
from reference import f_bound, invert_positive_map, spectrum_width_check, superop_matrix
from samplers import near_identity_channel, random_channel, random_hermitian

CORPUS_DIMS = (2, 3, 4, 5)
CORPUS_SIZE = 1000
_SEED = 20240901


@dataclass
class Record:
    povm: object
    verdict: object
    rank_one: bool
    oracle: OracleVerdict


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {number} [{name}]: {status}{suffix}")


@pytest.fixture(scope="module")
def corpus():
    start = time.perf_counter()
    data: dict[int, list[Record]] = {}
    for d in CORPUS_DIMS:
        records = []
        for index in range(CORPUS_SIZE):
            rng = np.random.default_rng([_SEED, d, index])
            _, povm = random_quasi_qubit_instance(d, rng)
            verdict = decide_clean(povm)
            rank_one = all(e.rank == 1 for e in povm.elements)
            records.append(Record(povm, verdict, rank_one, oracle_verdict(povm)))
        data[d] = records
    print(f"corpus: {len(CORPUS_DIMS) * CORPUS_SIZE} instances in {time.perf_counter() - start:.1f} s")
    return data


def test_criterion_1_oracle_agreement(corpus):
    start = time.perf_counter()
    mismatches = []
    for d in CORPUS_DIMS:
        for i, rec in enumerate(corpus[d]):
            if rec.verdict.clean != rec.oracle.clean:
                mismatches.append((d, i, rec.verdict.reason.value, rec.oracle.nullity))
    ok = not mismatches
    _report(1, "oracle agreement", ok,
            f"{len(CORPUS_DIMS) * CORPUS_SIZE} instances, {time.perf_counter() - start:.1f} s")
    assert ok, f"disagreements: {mismatches[:5]}"


def test_criterion_2_qubit_closed_form(corpus):
    start = time.perf_counter()

    def colinear(a, b):
        # residual of a against span(b); stable even for nearly parallel kets
        return np.linalg.norm(a - np.vdot(b, a) * b) <= 1e-8

    mismatches = []
    for i, rec in enumerate(corpus[2]):
        supports = [s.ket for s in rank_one_supports(rec.povm)]
        triple = any(
            not colinear(supports[a], supports[b])
            and not colinear(supports[a], supports[c])
            and not colinear(supports[b], supports[c])
            for a in range(len(supports))
            for b in range(a + 1, len(supports))
            for c in range(b + 1, len(supports))
        )
        expected = rec.rank_one or triple
        if rec.verdict.clean != expected:
            mismatches.append(i)
    ok = not mismatches
    _report(2, "qubit closed form", ok, f"{CORPUS_SIZE} instances, {time.perf_counter() - start:.1f} s")
    assert ok, f"disagreements at indices {mismatches[:5]}"


def test_criterion_3_witness_soundness(corpus):
    start = time.perf_counter()
    failures = []
    built = 0
    cases = {"a": 0, "b": 0, "c": 0, "d": 0}
    for d in CORPUS_DIMS:
        for i, rec in enumerate(corpus[d]):
            if rec.verdict.clean:
                continue
            built += 1
            witness = build_witness(rec.povm, rec.verdict)
            cases[witness.case_tag] += 1
            report = verify_witness(rec.povm, witness)
            checks = report.max_map_residual <= 1e-8 and report.closure_residual <= 1e-10
            psd_ok = all(
                e.min_eigenvalue >= -1e-10 * max(e.max_eigenvalue, 0.0)
                for e in witness.q.elements
            )
            widened = report.widening_margin >= 1e-6
            if not (checks and psd_ok and widened and report.q_valid):
                failures.append((d, i, witness.case_tag))
    ok = not failures
    _report(3, "witness soundness", ok,
            f"{built} witnesses {cases}, {time.perf_counter() - start:.1f} s")
    assert ok, f"failures: {failures[:5]}"


def test_criterion_4_spectrum_width_monotonicity():
    start = time.perf_counter()
    violations = 0
    for d in (2, 3, 4):
        for index in range(1000):
            rng = np.random.default_rng([_SEED, 4, d, index])
            channel = random_channel(d, int(rng.integers(1, 5)), rng)
            x = random_hermitian(d, rng)
            if not spectrum_width_check(channel, x).ok:
                violations += 1
    ok = violations == 0
    _report(4, "spectrum-width monotonicity", ok, f"3000 pairs, {time.perf_counter() - start:.1f} s")
    assert ok, f"{violations} violations"


def test_criterion_5_near_identity_bound_and_inversion():
    start = time.perf_counter()
    violations = []
    for d in (2, 3):
        eye = np.eye(d * d)
        for index in range(200):
            rng = np.random.default_rng([_SEED, 5, d, index])
            eps = float(rng.uniform(1e-4, 0.05))
            channel = near_identity_channel(d, eps, rng)
            bound = f_bound(eps, d)
            deviation = np.linalg.norm(superop_matrix(channel.kraus) - eye, 2)
            if deviation > bound.f_eps + 1e-10:
                violations.append((d, index, "norm bound"))
            if bound.f_eps < 1.0:
                handle = invert_positive_map(channel)
                x = random_hermitian(d, rng)
                solved = handle.solve(x)
                if np.linalg.norm(apply(channel, solved) - x) > 1e-8 * max(1, np.linalg.norm(x)):
                    violations.append((d, index, "round trip"))
    ok = not violations
    _report(5, "near-identity bound + inversion", ok, f"400 channels, {time.perf_counter() - start:.1f} s")
    assert ok, f"violations: {violations[:5]}"


def test_criterion_6_block_diagonal_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4):
        for k in range(1, d // 2 + 1):
            m = d - k
            for index in range(100):
                rng = np.random.default_rng([_SEED, 6, d, k, index])
                a = haar_unitary(m, rng)[:k, :]
                eps = float(rng.uniform(0.02, 0.45))
                channel = KrausChannel.build(case_b_kraus(a, eps))
                mat = np.zeros((d, d), dtype=complex)
                mat[:k, :k] = random_psd(k, rng)
                mat[k:, k:] = random_psd(m, rng)
                mat = mat / max(1.0, np.linalg.norm(mat))
                residual = np.linalg.norm(apply(channel, case_b_widen_map(mat, a, eps)) - mat)
                worst = max(worst, residual)
    ok = worst <= 1e-10
    _report(6, "block-diagonal round trip", ok, f"worst residual {worst:.2e}, {time.perf_counter() - start:.1f} s")
    assert ok


def test_criterion_7_worked_scalar_instance():
    start = time.perf_counter()
    p = validate([0.5 * np.eye(2), 0.5 * np.eye(2)])
    witness = build_witness(p, decide_clean(p))
    q1, q2 = witness.q.elements[0].matrix, witness.q.elements[1].matrix
    exact = (
        witness.case_tag == "a"
        and np.array_equal(q1, np.diag([0.5, 1.0]).astype(complex))
        and np.array_equal(q2, np.diag([0.5, 0.0]).astype(complex))
        and np.array_equal(witness.channel.kraus[0], np.array([[1, 0], [0, 0]], dtype=complex))
        and np.array_equal(witness.channel.kraus[1], np.array([[0, 1], [0, 0]], dtype=complex))
    )
    map_residual = max(
        np.linalg.norm(apply(witness.channel, qe.matrix) - pe.matrix)
        for qe, pe in zip(witness.q.elements, p.elements)
    )
    gap = witness.q.elements[0].max_eigenvalue - p.elements[0].max_eigenvalue
    ok = exact and map_residual <= 1e-12 and gap == 0.5
    _report(7, "worked scalar instance", ok, f"{time.perf_counter() - start:.2f} s")
    assert ok, (exact, map_residual, gap)


def test_criterion_8_verdict_invariance():
    start = time.perf_counter()
    failures = 0
    for d in (2, 3, 4):
        for index in range(200):
            rng = np.random.default_rng([_SEED, 8, d, index])
            _, p = random_quasi_qubit_instance(d, rng)
            clean = decide_clean(p).clean
            perm = rng.permutation(p.n_outcomes)
            permuted = validate([p.elements[i].matrix for i in perm])
            u = haar_unitary(d, rng)
            rotated = validate([u @ e.matrix @ u.conj().T for e in p.elements])
            if decide_clean(permuted).clean != clean or decide_clean(rotated).clean != clean:
                failures += 1
    ok = failures == 0
    _report(8, "verdict invariance", ok, f"600 trials, {time.perf_counter() - start:.1f} s")
    assert ok, f"{failures} failures"
