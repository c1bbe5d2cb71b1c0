"""Tests for the cleanness decision, the nullspace oracle, and ``support_frame``'s frame test."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cleanpovm.cleanness import (
    VerdictReason,
    decide_clean,
    oracle_verdict,
    separating_pair,
    totally_determined_nullspace,
)
from cleanpovm.errors import ConstructionFailed, NotQuasiQubit, SingleBlock, ZeroElement
from cleanpovm.fuzz import random_quasi_qubit_instance
from cleanpovm.linalg import DEFAULT_TOL, Tolerances, haar_unitary, in_span, support_frame
from cleanpovm.povm import random_povm, random_split_povm, rank_one_supports, validate
from cleanpovm import cleanness, witness
from cleanpovm.witness import build_witness
from samplers import near_boundary_povm

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def projector(ket):
    return np.outer(ket, ket.conj())


def held_by_pair(kets, v, w):
    """Whether each ket lies in V or in W, both read off ``support_frame``."""
    kets = np.array(kets).reshape(-1, v.shape[0])
    return in_span(kets, support_frame(v.T).q) | in_span(kets, support_frame(w.T).q)


def qb_not_clean():
    return validate([0.25 * projector(E1), 0.25 * projector(E2), np.diag([0.75, 0.75]).astype(complex)])


class TestDecideClean:
    def test_trine_is_clean_rank_one(self):
        kets = [
            np.array([np.cos(t / 2), np.sin(t / 2)], dtype=complex)
            for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        ]
        mats = [(2 / 3) * projector(k) for k in kets]
        assert np.linalg.norm(sum(mats) - np.eye(2)) <= 1e-12  # closure by hand
        verdict = decide_clean(validate(mats))
        assert verdict.clean and verdict.reason is VerdictReason.RANK_ONE

    def test_two_colinear_support_classes_not_clean(self):
        verdict = decide_clean(qb_not_clean())
        assert not verdict.clean
        assert verdict.reason is VerdictReason.PARTITION_SPLIT
        assert verdict.partition.blocks == ((0,), (1,))
        assert verdict.separating_pair == ((0,), (1,))

    def test_third_direction_makes_it_clean(self):
        r = np.eye(2) - 0.25 * (projector(E1) + projector(E2) + projector(PLUS))
        assert np.allclose(r, np.array([[0.625, -0.125], [-0.125, 0.625]]))
        assert sorted(np.linalg.eigvalsh(r)) == pytest.approx([0.5, 0.75])
        p = validate([0.25 * projector(E1), 0.25 * projector(E2), 0.25 * projector(PLUS), r])
        verdict = decide_clean(p)
        assert verdict.clean and verdict.reason is VerdictReason.TOTALLY_DETERMINED
        assert len(verdict.partition.blocks) == 1
        # cross-check with the independent oracle
        supports = [s.ket for s in rank_one_supports(p)]
        assert totally_determined_nullspace(supports, 2) == 1

    def test_single_outcome_identity(self):
        verdict = decide_clean(validate([np.eye(2)]))
        assert verdict.clean and verdict.reason is VerdictReason.TRIVIAL_SINGLE_OUTCOME

    def test_scalar_elements(self):
        verdict = decide_clean(validate([0.5 * np.eye(2), 0.5 * np.eye(2)]))
        assert not verdict.clean and verdict.reason is VerdictReason.SCALAR_ELEMENTS
        assert verdict.partition is None

    def test_full_rank_non_scalar_gets_eigen_pair(self):
        pm = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        verdict = decide_clean(validate([pm, np.eye(2) - pm]))
        assert not verdict.clean and verdict.reason is VerdictReason.PARTITION_SPLIT
        assert verdict.partition is not None
        assert verdict.partition.basis_element_indices == (None, None)
        v, w = separating_pair(verdict.partition)
        # the chosen element must have a nonzero off-diagonal block for (V, W)
        off = v.conj().T @ pm @ w
        assert np.linalg.norm(off) > 1e-3

    def test_supports_do_not_span(self):
        p = validate([0.5 * projector(E1), np.eye(2) - 0.5 * projector(E1)])
        verdict = decide_clean(p)
        assert not verdict.clean and verdict.reason is VerdictReason.SUPPORTS_DO_NOT_SPAN
        v, w = separating_pair(verdict.partition)
        assert held_by_pair([E1], v, w).all()
        assert np.allclose(v[:, 0], E1)
        assert abs(w[:, 0].conj() @ E1) <= 1e-12

    def test_rejects_non_quasi_qubit(self):
        p = validate(
            [np.diag([0.5, 0.5, 0.0]).astype(complex), np.diag([0.5, 0.5, 1.0]).astype(complex)]
        )
        with pytest.raises(NotQuasiQubit):
            decide_clean(p)

    def test_verdict_boolean_invariant(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            _, p = random_quasi_qubit_instance(d, rng)
            clean = decide_clean(p).clean
            perm = rng.permutation(p.n_outcomes)
            assert decide_clean(validate([p.elements[i].matrix for i in perm])).clean == clean
            u = haar_unitary(d, rng)
            rotated = validate([u @ e.matrix @ u.conj().T for e in p.elements])
            assert decide_clean(rotated).clean == clean


class TestSeparatingPair:
    def test_two_singletons(self):
        verdict = decide_clean(qb_not_clean())
        v, w = separating_pair(verdict.partition)
        assert held_by_pair([E1, E2], v, w).all()
        assert np.allclose(v[:, 0], E1) and np.allclose(w[:, 0], E2)

    def test_three_dim_blocks(self):
        # supports e1, e2, e1+e2, e3: positions {0,1} merge, e3 stays apart
        e1 = np.array([1, 0, 0], dtype=complex)
        e2 = np.array([0, 1, 0], dtype=complex)
        e3 = np.array([0, 0, 1], dtype=complex)
        plus12 = (e1 + e2) / np.sqrt(2)
        mats = [0.1 * projector(k) for k in (e1, e2, e3, plus12)]
        mats.append(np.eye(3) - sum(mats))
        verdict = decide_clean(validate(mats))
        assert verdict.reason is VerdictReason.PARTITION_SPLIT
        assert verdict.partition.blocks == ((0, 1), (2,))
        v, w = separating_pair(verdict.partition)
        assert v.shape == (3, 2) and w.shape == (3, 1)

    def test_single_block_raises(self):
        r = np.eye(2) - 0.25 * (projector(E1) + projector(E2) + projector(PLUS))
        p = validate([0.25 * projector(E1), 0.25 * projector(E2), 0.25 * projector(PLUS), r])
        verdict = decide_clean(p)
        with pytest.raises(SingleBlock):
            separating_pair(verdict.partition)

    def test_supports_always_land_in_v_or_w(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 30:
            d = int(rng.integers(2, 5))
            _, p = random_quasi_qubit_instance(d, rng)
            verdict = decide_clean(p)
            if verdict.separating_pair is None or verdict.partition is None:
                continue
            kets = [s.ket for s in rank_one_supports(p)]
            assert held_by_pair(kets, *separating_pair(verdict.partition)).all()
            checked += 1


def kron_reference_system(kets, d):
    """The oracle's system built support by support: one complement SVD and
    d-1 ``np.kron`` rows per ket."""
    rows = []
    for ket in kets:
        psi = ket / np.linalg.norm(ket)
        complement = np.linalg.svd(psi.reshape(d, 1), full_matrices=True)[0][:, 1:]
        for k in range(d - 1):
            rows.append(np.kron(complement[:, k].conj(), psi))
    return np.vstack(rows)


@pytest.fixture
def svd_calls(monkeypatch):
    """Every matrix passed to ``np.linalg.svd`` during the test, in call order."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def reference_nullity(kets, d, rank_tol=1e-8):
    s = np.linalg.svd(kron_reference_system(kets, d), compute_uv=False)
    return d * d - int(np.sum(s > rank_tol * s[0]))


@pytest.fixture
def system_runs(monkeypatch):
    """The nullity of every fallback to the d^2-column system during the test."""
    runs = []
    system_nullity = cleanness._system_nullity

    def spy(*args):
        runs.append(system_nullity(*args))
        return runs[-1]

    monkeypatch.setattr(cleanness, "_system_nullity", spy)
    return runs


class TestNullspaceOracle:
    def test_two_orthogonal_supports(self):
        assert totally_determined_nullspace([E1, E2], 2) == 2

    def test_frame_pins_down_plane(self):
        assert totally_determined_nullspace([E1, E2, PLUS], 2) == 1

    def test_single_support(self):
        assert totally_determined_nullspace([E1], 2) == 3

    def test_no_supports(self):
        assert totally_determined_nullspace([], 3) == 9

    def test_zero_support_is_an_input_error(self):
        e1 = np.array([1.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may escape either
            with pytest.raises(ZeroElement) as excinfo:
                totally_determined_nullspace([e1, np.zeros(3)], 3)
        assert excinfo.value.index == 1

    def test_norm_overflow_and_underflow(self):
        e1, e2, e3 = np.eye(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e200, 1e-160, 1e-170):
                # a fourth support off every coordinate plane pins C^3 down
                assert totally_determined_nullspace([e1, e2, e3, scale * np.ones(3)], 3) == 1
                assert totally_determined_nullspace([scale * e1, e2, e3], 3) == 3

    def test_system_equals_per_support_kron_rows(self, svd_calls, monkeypatch):
        rng = np.random.default_rng(23)
        families = []
        for d in (2, 3, 4, 8, 16):
            for n in (1, d - 1, d + 3):
                kets = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
                kets *= rng.uniform(0.1, 10.0, (n, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (n, 1)))
                families.append((d, kets))
        for d, kets in families:  # the public nullity equals the reference system's
            assert totally_determined_nullspace(kets, d) == reference_nullity(kets, d)
        monkeypatch.setattr(cleanness, "_ORACLE_BAND", np.inf)  # always the full system
        for d, kets in families:
            for family in (list(kets), kets):  # a list of kets, or one per row
                svd_calls.clear()
                nullity = totally_determined_nullspace(family, d)
                assert np.array_equal(svd_calls[-1], kron_reference_system(kets, d))
                assert nullity == reference_nullity(kets, d)

    def test_at_most_two_svd_calls_whatever_the_family_size(self, svd_calls):
        rng = np.random.default_rng(29)
        for n in (1, 3, 10, 40):
            kets = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
            svd_calls.clear()
            totally_determined_nullspace(kets, 4)
            assert 1 <= len(svd_calls) <= 2

    def test_eigenvalue_form_equals_reference_system_on_fuzz_instances(self, system_runs):
        for d in (2, 3, 5, 8, 12, 16):
            for i in range(12):
                _, p = random_quasi_qubit_instance(d, np.random.default_rng([31, d, i]))
                kets = [s.ket for s in rank_one_supports(p)]
                if not kets:
                    continue
                assert totally_determined_nullspace(kets, d) == reference_nullity(kets, d), (d, i)
        assert system_runs == []  # every generic family clears the band

    def test_near_cut_families_fall_back_to_the_system(self, system_runs):
        for i in range(30):
            kets = [s.ket for s in rank_one_supports(near_boundary_povm(i, 1e-8))]
            runs = len(system_runs)
            assert totally_determined_nullspace(kets, 3) == reference_nullity(kets, 3), i
            assert len(system_runs) == runs + 1, i  # a delta of 1e-8 sits on the cut

    def test_loose_rank_tolerance_always_uses_the_system(self, system_runs):
        loose = Tolerances(rank=1e-2, zero=1e-2)
        calls = 0
        for d in (2, 3, 5, 8):
            for i in range(12):
                _, p = random_quasi_qubit_instance(d, np.random.default_rng([37, d, i]))
                kets = [s.ket for s in rank_one_supports(p)]
                if not kets:
                    continue
                nullity = totally_determined_nullspace(kets, d, loose)
                calls += 1
                assert len(system_runs) == calls
                assert nullity == reference_nullity(kets, d, 1e-2), (d, i)

    def test_oracle_verdict_split(self):
        assert oracle_verdict(qb_not_clean()) == (False, 2)

    def test_oracle_verdict_rank_one_is_clean(self):
        # the standard observable: two orthogonal supports leave nullity 2,
        # but a rank-one POVM is clean whatever the nullity
        p = validate([projector(E1), projector(E2)])
        assert oracle_verdict(p) == (True, 2)

    def test_agreement_with_algorithm(self):
        rng = np.random.default_rng(99)
        for _ in range(150):
            d = int(rng.integers(2, 6))
            _, p = random_quasi_qubit_instance(d, rng)
            algo, oracle = decide_clean(p).clean, oracle_verdict(p).clean
            assert algo == oracle, f"algorithm={algo} oracle={oracle}"

    def test_qubit_closed_form(self):
        # d=2: clean iff rank-one or three pairwise non-colinear supports exist
        rng = np.random.default_rng(13)
        def colinear(a, b):
            # residual of a against span(b); stable even for nearly parallel kets
            return np.linalg.norm(a - np.vdot(b, a) * b) <= 1e-8
        for _ in range(250):
            _, p = random_quasi_qubit_instance(2, rng)
            supports = [s.ket for s in rank_one_supports(p)]
            rank_one = all(e.rank == 1 for e in p.elements)
            triple = any(
                not colinear(supports[i], supports[j])
                and not colinear(supports[i], supports[k])
                and not colinear(supports[j], supports[k])
                for i in range(len(supports))
                for j in range(i + 1, len(supports))
                for k in range(j + 1, len(supports))
            )
            assert decide_clean(p).clean == (rank_one or triple)
        # the fuzz corpus, on both routes, with parallelism read off a 2x2 determinant
        clean = 0
        for i in range(3000):
            _, p = random_quasi_qubit_instance(2, np.random.default_rng([5, i]))
            kets = np.array([s.ket for s in rank_one_supports(p)]).reshape(-1, 2)
            det = kets[:, None, 0] * kets[None, :, 1] - kets[:, None, 1] * kets[None, :, 0]
            apart = np.abs(det) > 1e-8  # unit kets: |det| is the sine of their angle
            rule = all(e.rank == 1 for e in p.elements) or any(
                apart[a, b] and apart[a, c] and apart[b, c]
                for a, b, c in combinations(range(len(kets)), 3)
            )
            assert decide_clean(p).clean == rule, i
            assert oracle_verdict(p).clean == rule, i
            clean += rule
        assert 0 < clean < 3000


def is_projective_frame(vectors):
    """Whether ``support_frame`` reads the d+1 vectors as a projective frame
    (every d of them a basis): the first d are its basis and the span of the
    last one needs all d of them."""
    d = len(vectors) - 1
    f = support_frame(vectors)
    return f.selected == tuple(range(d)) and len(f.spans[d]) == d


def leave_one_out_frame(vectors, rank_tol=1e-8):
    """Reference route for the frame test: every d of the d+1
    vectors have full rank, read off one stacked SVD of the leave-one-out
    subsets with a relative cut at ``rank_tol``."""
    columns = np.column_stack(vectors)
    d = columns.shape[0]
    subsets = [[j for j in range(d + 1) if j != leave] for leave in range(d + 1)]
    s = np.linalg.svd(columns[:, subsets].swapaxes(0, 1), compute_uv=False)
    return bool(np.all((s[:, 0] > 0) & (s[:, -1] > rank_tol * s[:, 0])))


class TestProjectiveFrame:
    def test_basic_true(self):
        assert is_projective_frame([E1, E2, E1 + E2])

    def test_repeated_vector(self):
        assert not is_projective_frame([E1, E2, E1])

    def test_zero_coordinate_in_dim_three(self):
        e1 = np.array([1, 0, 0], dtype=complex)
        e2 = np.array([0, 1, 0], dtype=complex)
        e3 = np.array([0, 0, 1], dtype=complex)
        assert not is_projective_frame([e1, e2, e3, e1 + e2])
        assert is_projective_frame([e1, e2, e3, e1 + e2 + e3])

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_routes_agree_on_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        if rng.random() < 0.5:
            vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(d + 1)]
        else:
            # planted degeneracy: repeat a vector or zero out coordinates
            vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(d)]
            if rng.random() < 0.5:
                vectors.append(vectors[int(rng.integers(0, d))].copy())
            else:
                v = np.zeros(d, dtype=complex)
                v[0] = 1.0
                vectors.append(v)
        assert is_projective_frame(vectors) == leave_one_out_frame(vectors)

    def test_routes_agree_bulk(self):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            d = int(rng.integers(2, 6))
            vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(d + 1)]
            if trial % 3 == 0:  # plant degeneracies on a third of the trials
                vectors[-1] = vectors[int(rng.integers(0, d))] * (1 + 0j)
            assert is_projective_frame(vectors) == leave_one_out_frame(vectors)

    def test_near_tolerance_families_get_an_answer(self):
        # the last vector lies 3e-9 to 3e-8 from the span of the first d-1,
        # where a rank cut on singular values and the residual rule of
        # support_frame can part ways; the answer follows support_frame
        parted = 0
        for d in (2, 3, 4):
            for i in range(60):
                rng = np.random.default_rng([4, d, i])
                vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(d)]
                off = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                q = np.linalg.qr(np.column_stack(vectors[: d - 1]))[0]
                off -= q @ (q.conj().T @ off)
                delta = 3e-9 * 10 ** (i / 59)  # 3e-9 up to 3e-8
                last = sum(rng.standard_normal() * v for v in vectors[: d - 1])
                vectors.append(last + delta * np.linalg.norm(last) * off / np.linalg.norm(off))
                answer = is_projective_frame(vectors)  # no AssertionError from inside
                assert isinstance(answer, bool)
                parted += answer != leave_one_out_frame(vectors)
        assert parted > 0


def test_rank_one_with_exactly_d_generic_supports_is_not_clean():
    rng = np.random.default_rng(55)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        kets = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(d)]
        kets = [k / np.linalg.norm(k) for k in kets]
        mats = [0.5 / d * projector(k) for k in kets]
        mats.append(np.eye(d) - sum(mats))
        verdict = decide_clean(validate(mats))
        assert not verdict.clean
        assert verdict.reason is VerdictReason.PARTITION_SPLIT
        assert len(verdict.partition.blocks) == d


def test_strict_with_generic_frame_is_clean():
    rng = np.random.default_rng(56)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        p = random_povm("strict-quasi-qubit", d, d + 3, rng, n_rank_one=d + 1)
        assert decide_clean(p).clean


def test_near_boundary_supports():
    """Supports within a few tolerances of a split: a verdict every time, and
    a witness that never contradicts the verdict's own partition."""
    disagreements = []
    for delta in (1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6):
        for i in range(150):
            p = near_boundary_povm(i, delta)
            verdict = decide_clean(p)
            if delta in (1e-10, 1e-9, 1e-6) and oracle_verdict(p).clean != verdict.clean:
                disagreements.append((i, delta))
            if not verdict.clean:
                try:
                    build_witness(p, verdict)
                except ConstructionFailed as exc:
                    assert "lies outside" not in str(exc), (i, delta)
    assert disagreements == []


def _coarse_seed_instance():
    # oblique; positivity fails for every eps down to 4.9e-4, and at 2.4e-4
    # the widening margin is 7.0e-7
    tol = Tolerances(rank=1e-2, zero=1e-2)
    return random_quasi_qubit_instance(13, np.random.default_rng([21, 13, 11]))[1], tol


@pytest.mark.parametrize(
    "instance",
    [
        # every widenable support of these probe families has ||P_V psi|| of
        # 1.0-2.7e-8, just past the 1e-8 rank cut, so it gains below 5e-14
        # at every eps up to 0.95: a tolerance tie
        lambda: (near_boundary_povm(16, 3e-9), DEFAULT_TOL),
        lambda: (near_boundary_povm(28, 3e-9), DEFAULT_TOL),
        lambda: (near_boundary_povm(88, 3e-9), DEFAULT_TOL),
        lambda: (near_boundary_povm(114, 3e-9), DEFAULT_TOL),
        lambda: (near_boundary_povm(66, 1e-8), DEFAULT_TOL),
        _coarse_seed_instance,
    ],
    ids=["probe-16", "probe-28", "probe-88", "probe-114", "probe-66", "seed-21-13-11-coarse"],
)
def test_failing_case_d_search_is_short(monkeypatch, instance):
    """A case-d search that cannot succeed stops once its trials turn back,
    on the widening margin."""
    calls = []
    attempt = witness._case_d_attempt

    def spy(*args):
        calls.append(args[4])  # eps
        return attempt(*args)

    monkeypatch.setattr(witness, "_case_d_attempt", spy)
    p, tol = instance()
    match = "case-\\(d\\) eps search failed; last problem: widening margin"
    with pytest.raises(ConstructionFailed, match=match):
        build_witness(p, decide_clean(p, tol), tol)
    assert 0 < len(calls) <= witness._EPS_HALVINGS


def _support_families():
    rng = np.random.default_rng(57)
    for _ in range(300):
        _, p = random_quasi_qubit_instance(int(rng.integers(2, 6)), rng)
        yield p
    for delta in (1e-9, 3e-9, 1e-8, 3e-8):
        for i in range(150):
            yield near_boundary_povm(i, delta)


def test_in_span_agrees_with_support_frame():
    """Each support lies, under ``in_span``, in the span of the basis kets
    that ``support_frame`` assigns it: in a QR basis of those kets, and in
    the ``support_frame`` basis of those kets, the one the witness reads V
    and W from, which keeps every direction."""
    checked = 0
    for p in _support_families():
        kets = np.array([s.ket for s in rank_one_supports(p)])
        if not len(kets):
            continue
        frame = support_frame(kets)
        for ket, span in zip(kets, frame.spans):
            columns = kets[[frame.selected[pos] for pos in span]].T
            assert in_span(ket, np.linalg.qr(columns)[0]).all()
            basis = support_frame(columns.T).q
            assert basis.shape[1] == len(span)
            assert in_span(ket, basis).all()
            checked += 1
    assert checked > 3000
