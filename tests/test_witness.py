"""Tests for the four witness constructions and the independent verifier."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from cleanpovm.channel import KrausChannel, apply
from cleanpovm.cleanness import decide_clean
from cleanpovm import witness
from cleanpovm.errors import (
    CleanPovmError,
    ConstructionFailed,
    DimensionMismatch,
    NotScalar,
    PreconditionViolated,
    SingleOutcome,
    VerdictIsClean,
)
from cleanpovm.fileio import dumps_canonical, witness_bundle_from_json, witness_bundle_to_json
from cleanpovm.fuzz import random_quasi_qubit_instance
from cleanpovm.linalg import DEFAULT_TOL, Tolerances, haar_unitary, hermitian_part, random_psd
from cleanpovm.povm import povm_unchecked, random_povm, random_split_povm, validate
from cleanpovm.witness import (
    Witness,
    WitnessReport,
    build_witness,
    case_b_kraus,
    case_b_widen_map,
    verify_witness,
    witness_case_a,
)
from reference import invert_positive_map, spectrum_width_check
from samplers import near_boundary_povm

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def projector(ket):
    return np.outer(ket, ket.conj())


def narrow_window_povm():
    """An oblique qubit split whose case-d witness lies in a narrow eps window above 0.25."""
    delta = 0.0113
    w_ket = np.array([delta, np.sqrt(1 - delta**2)], dtype=complex)
    mats = [
        0.099 * projector(E1),
        0.128 * projector(w_ket),
    ]
    rng = np.random.default_rng(3)
    fill = [random_psd(2, rng, ridge=0.05) for _ in range(2)]
    total = sum(mats) + sum(fill)
    scale = 0.9 / np.linalg.eigvalsh(total)[-1]
    mats = [scale * m for m in mats]
    fill = [scale * m for m in fill]
    mats.extend(fill)
    mats.append(np.eye(2) - sum(mats))
    return validate(mats)


def qb_not_clean():
    return validate([0.25 * projector(E1), 0.25 * projector(E2), np.diag([0.75, 0.75]).astype(complex)])


def on_split(case_tag, p, v_rows, w_rows=()):
    """Run construction ``case_tag`` (b, c or d) on the split whose V the kets
    ``v_rows`` span (and, for case d, whose W the kets ``w_rows`` span)."""
    split = witness._split(p, np.array(v_rows), DEFAULT_TOL)
    if case_tag == "d":
        return witness._case_d(p, split, np.array(w_rows), DEFAULT_TOL)
    return getattr(witness, f"_case_{case_tag}")(p, split, DEFAULT_TOL)


class TestCaseA:
    def test_worked_two_outcome_instance(self):
        p = validate([0.5 * np.eye(2), 0.5 * np.eye(2)])
        w = witness_case_a(p)
        assert w.case_tag == "a" and w.widened_index == 0
        assert np.array_equal(w.q.elements[0].matrix, np.diag([0.5, 1.0]).astype(complex))
        assert np.array_equal(w.q.elements[1].matrix, np.diag([0.5, 0.0]).astype(complex))
        assert np.array_equal(w.channel.kraus[0], projector(E1))
        assert np.array_equal(w.channel.kraus[1], np.outer(E1, E2.conj()))
        report = verify_witness(p, w)
        assert report.passed
        assert report.widening_margin == pytest.approx(0.5)

    def test_three_dim_instance(self):
        p = validate([(1 / 3) * np.eye(3), (2 / 3) * np.eye(3)])
        w = witness_case_a(p)
        assert np.allclose(w.q.elements[0].matrix, np.diag([1 / 3, 1.0, 1.0]))
        assert np.allclose(w.q.elements[1].matrix, np.diag([2 / 3, 0.0, 0.0]))
        assert verify_witness(p, w).passed

    def test_single_outcome_rejected(self):
        with pytest.raises(SingleOutcome):
            witness_case_a(validate([np.eye(2)]))

    def test_non_scalar_rejected(self):
        with pytest.raises(NotScalar):
            witness_case_a(qb_not_clean())


class TestCaseB:
    def test_qb_instance_exact_widening(self):
        p = qb_not_clean()
        w = on_split("b", p, [E1])
        assert w.case_tag == "b"
        widened = w.q.elements[w.widened_index].matrix
        expected = (1 + w.epsilon**2) * 0.25
        assert widened[0, 0].real == pytest.approx(expected, abs=1e-12)
        assert verify_witness(p, w).passed

    def test_round_trip_on_block_diagonal(self):
        rng = np.random.default_rng(17)
        for d in (2, 3, 4):
            for k in range(1, d // 2 + 1):
                m_dim = d - k
                a = haar_unitary(m_dim, rng)[:k, :]
                eps = float(rng.uniform(0.05, 0.45))
                channel = KrausChannel.build(case_b_kraus(a, eps))
                mat = np.zeros((d, d), dtype=complex)
                mat[:k, :k] = random_psd(k, rng)
                mat[k:, k:] = random_psd(m_dim, rng)
                widened = case_b_widen_map(mat, a, eps)
                assert np.linalg.norm(apply(channel, widened) - mat) <= 1e-10 * max(
                    1, np.linalg.norm(mat)
                )

    def test_widen_map_preserves_psd(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            k, m = 1, 2
            a = haar_unitary(m, rng)[:k, :]
            eps = float(rng.uniform(0.05, 0.45))
            mat = np.zeros((3, 3), dtype=complex)
            mat[:k, :k] = random_psd(k, rng)
            mat[k:, k:] = random_psd(m, rng)
            widened = case_b_widen_map(mat, a, eps)
            assert np.linalg.eigvalsh(hermitian_part(widened))[0] >= -1e-12

    def test_trace_factor_for_support_hit_by_a(self):
        # support w in V^perp with A w != 0: trace grows by 1 + eps^2 ||A w||^2
        rng = np.random.default_rng(19)
        k, m = 1, 2
        a = haar_unitary(m, rng)[:k, :]
        eps = 0.3
        w_ket = np.conj(a[0, :]) / np.linalg.norm(a[0, :])  # A w != 0 by construction
        mat = np.zeros((3, 3), dtype=complex)
        mat[k:, k:] = 0.4 * projector(w_ket)
        widened = case_b_widen_map(mat, a, eps)
        grow = 1 + eps**2 * np.linalg.norm(a @ w_ket) ** 2
        assert np.trace(widened).real == pytest.approx(0.4 * grow, abs=1e-12)

    def test_precondition_checked(self, monkeypatch):
        # an element that is not block-diagonal for the split never reaches
        # case b: the dispatch sends the POVM to case c
        built = []
        monkeypatch.setattr(witness, "_case_b", lambda *args: built.append(args))
        pm = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        p = validate([pm, np.eye(2) - pm])
        w = build_witness(p, decide_clean(p))
        assert built == [] and w.case_tag == "c"
        assert verify_witness(p, w).passed

    def test_search_stops_at_the_first_margin_failure(self, monkeypatch):
        # both supports weigh 1e-5, so eps = 0.25 widens either by only
        # 0.25^2 * 1e-5 < 1e-6; a smaller eps widens it less still
        tried = []
        walk = witness._eps_walk

        def spy(trial, *args):
            return walk(lambda eps: tried.append(eps) or trial(eps), *args)

        monkeypatch.setattr(witness, "_eps_walk", spy)
        p = validate([np.diag([1e-5, 0.0]), np.diag([0.0, 1e-5]), np.diag([1 - 1e-5, 1 - 1e-5])])
        with pytest.raises(ConstructionFailed, match="case-\\(b\\).*widening margin 6.25e-07"):
            build_witness(p, decide_clean(p))
        assert tried == [0.25]

    def test_light_v_support_passes_the_designation_to_v_perp(self):
        # the V-support weighs 1e-5 and cannot clear the widening margin at
        # any eps; the heavier V^perp support takes the designation instead
        p = validate([np.diag([1e-5, 0.0]), np.diag([0.0, 0.5]), np.diag([1 - 1e-5, 0.5])])
        w = build_witness(p, decide_clean(p))
        report = verify_witness(p, w)
        assert (w.case_tag, w.widened_index, w.epsilon) == ("b", 1, 0.25)
        assert report.passed
        assert report.widening_margin == pytest.approx(0.03125, rel=1e-12)


class TestCaseC:
    def test_off_diagonal_rescaling_formula(self):
        pm = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        p = validate([pm, np.eye(2) - pm])
        w = on_split("c", p, [E1])
        assert w.case_tag == "c"
        scale = 1.0 / (1.0 - w.epsilon**2)
        q0 = w.q.elements[0].matrix
        assert q0[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert q0[0, 1].real == pytest.approx(0.1 * scale, abs=1e-12)
        assert verify_witness(p, w).passed

    def test_closed_form_epsilon(self):
        # pm and its off-diagonal part O share eigenvectors, so pm^-1 O has
        # eigenvalues 0.1/0.6 and -0.1/0.4: s_max = 4 for both elements, and
        # s = s_max / 2 = 2 gives eps^2 = s / (1 + s) = 2/3
        from cleanpovm.witness import _rescaling_bounds

        pm = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        off = np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex)
        bounds = _rescaling_bounds(np.stack([pm, np.eye(2) - pm]), np.stack([off, -off]))
        assert np.allclose(bounds, [4.0, 4.0], rtol=0, atol=1e-12)
        p = validate([pm, np.eye(2) - pm])
        w = on_split("c", p, [E1])
        assert abs(w.epsilon - np.sqrt(2 / 3)) <= 1e-12
        assert w.widened_index == 0
        assert verify_witness(p, w).passed

    def test_near_singular_mover_moves_toward_the_bound(self):
        # lambda_min(P_1) is about 1.4e-6; a drop is convex in s, so at
        # s = s_max / 2 it is at most half of that, below the 1e-6 margin,
        # and s has to move on toward s_max
        pm = np.array([[3e-6, 9e-4], [9e-4, 0.5]], dtype=complex)
        p = validate([pm, np.eye(2) - pm])
        w = on_split("c", p, [E1])
        assert w.widened_index == 0
        assert verify_witness(p, w).passed
        assert build_witness(p, decide_clean(p)).case_tag == "c"

    def test_fixed_scale_example(self):
        # at eps = 0.2 the off-diagonal entry 0.1 becomes 0.1 / 0.96 = 0.10416...
        pm = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        eps = 0.2
        pi_v, pi_w = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        scale = eps**2 / (1 - eps**2)
        q = pm + scale * (pi_v @ pm @ pi_w + pi_w @ pm @ pi_v)
        assert q[0, 1].real == pytest.approx(0.10416666666666667, abs=1e-12)

    def test_block_diagonal_elements_are_bit_equal(self):
        # diagonal supports, one full-rank element with an off-diagonal block
        a = np.array([[0.40, 0.05], [0.05, 0.30]], dtype=complex)
        b = np.array([[0.35, -0.05], [-0.05, 0.45]], dtype=complex)
        p = validate([0.25 * projector(E1), 0.25 * projector(E2), a, b])
        w = build_witness(p, decide_clean(p))
        assert w.case_tag == "c"
        for pe, qe in zip(p.elements, w.q.elements):
            if pe.rank == 1:
                assert np.array_equal(pe.matrix, qe.matrix)
        assert verify_witness(p, w).passed

    def test_channel_closure_is_projector_algebra(self):
        pm = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        p = validate([pm, np.eye(2) - pm])
        w = on_split("c", p, [E1])
        assert w.channel.closure_residual() <= 1e-14

    def test_min_eig_strictly_drops(self):
        pm = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        p = validate([pm, np.eye(2) - pm])
        w = on_split("c", p, [E1])
        i = w.widened_index
        assert w.direction == "min-eig-decrease"
        assert (
            w.q.elements[i].min_eigenvalue
            <= p.elements[i].min_eigenvalue - 1e-6
        )


class TestCaseD:
    def test_worked_oblique_instance(self):
        w_ket = (E1 + E2) / np.sqrt(2)
        p1 = 0.3 * projector(w_ket)
        p = validate([p1, np.eye(2) - p1])
        w = on_split("d", p, [E1], [w_ket])
        assert w.case_tag == "d" and w.widened_index == 0
        report = verify_witness(p, w)
        assert report.passed
        assert w.q.elements[0].max_eigenvalue > 0.3 + 1e-6
        assert w.channel.closure_residual() <= 1e-10

    @pytest.mark.parametrize(
        "shape", [(3, 1, 2, 2), (8, 4, 5, 5), (16, 8, 9, 9)], ids=["d3", "d8", "d16"]
    )
    def test_block_inverse_matches_linear_solve(self, shape):
        # the d^2 x d^2 linear solve is the reference for the block inverse,
        # and a rank-one target still pulls back to a rank-one element
        d, k, n_v, n_w = shape
        p = random_split_povm(d, k, n_v, n_w, [29, d, 0], oblique=True)
        w = build_witness(p, decide_clean(p))
        assert w.case_tag == "d"
        handle = invert_positive_map(w.channel)
        for pe, qe in zip(p.elements, w.q.elements):
            solved = handle.solve(pe.matrix)
            assert np.linalg.norm(solved - qe.matrix) <= 1e-12 * max(1, np.linalg.norm(qe.matrix))
            if pe.rank == 1:
                lam = np.abs(np.linalg.eigvalsh(qe.matrix))
                assert np.sort(lam)[-2] <= 1e-12 * lam.max()

    def test_three_operator_closure_by_matrix_arithmetic(self):
        # independent restatement of the oblique construction at eps = 0.1,
        # k = m = 1, A = [1]: sum K^dagger K must be the identity
        eps = 0.1
        coeff = 1.0 / (1.0 - eps**2) ** 2 - 1.0
        b = np.sqrt(1.0 - coeff)
        rv = np.array([[b, -1.0 / (1 - eps**2)], [0.0, 0.0]], dtype=complex)
        rw = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
        stars = [eps * rv, eps * rw, np.sqrt(1 - eps**2) * (rv + rw)]
        closure = sum(s @ s.conj().T for s in stars)
        assert np.linalg.norm(closure - np.eye(2)) <= 1e-10

    def test_r3_tends_to_identity(self):
        w_ket = (E1 + E2) / np.sqrt(2)
        p1 = 0.3 * projector(w_ket)
        p = validate([p1, np.eye(2) - p1])
        distances = []
        for eps in (0.2, 0.1, 0.05):
            a = np.array([[1.0]], dtype=complex)  # V = span(e1), W = span(e1+e2)
            coeff = 1.0 / (1.0 - eps**2) ** 2 - 1.0
            b = np.sqrt(1.0 - coeff)
            r3 = np.array(
                [[np.sqrt(1 - eps**2) * b, -(eps**2) / np.sqrt(1 - eps**2)],
                 [0.0, np.sqrt(1 - eps**2)]],
                dtype=complex,
            )
            distances.append(np.linalg.norm(r3 - np.eye(2)))
        assert distances[0] > distances[1] > distances[2]
        assert distances[-1] < 0.02

    def test_precondition_violated_for_orthogonal_supports(self):
        p = qb_not_clean()
        with pytest.raises(PreconditionViolated):
            # both supports are in V or V^perp; no support lies in W away from V^perp
            on_split("d", p, [E1], [E2])

    def test_narrow_feasible_window_is_found(self):
        # W nearly orthogonal to V: positivity wants eps small while the
        # 1e-6 widening margin wants eps large; the eps search must land in
        # the window between the two boundaries instead of stepping over it
        p = narrow_window_povm()
        verdict = decide_clean(p)
        w = build_witness(p, verdict)
        report = verify_witness(p, w)
        assert report.passed
        assert report.widening_margin >= 1e-6

    def test_fuzz_witnesses_close_and_map_far_inside_the_contract(self):
        # B(eps) and B(eps)^-1 are rank updates of the identity along A's columns;
        # built right, every residual here is rounding (at most 1.6e-14)
        checked = 0
        for d, count in ((3, 200), (4, 200), (8, 200), (12, 60), (16, 60)):
            for i in range(count):
                _, p = random_quasi_qubit_instance(d, np.random.default_rng([7, d, i]))
                verdict = decide_clean(p)
                if verdict.clean:
                    continue
                w = build_witness(p, verdict)
                if w.case_tag == "d":
                    report = verify_witness(p, w)
                    assert report.closure_residual <= 1e-13, (d, i)
                    assert report.max_map_residual <= 1e-13, (d, i)
                    checked += 1
        assert checked == 87

    def test_light_w_support_passes_the_widening_to_a_heavier_one(self):
        # element 3's support lies in W but weighs 3.5e-7, too little to widen
        # by 1e-6 at eps = 0.125; the trial widens element 4 instead
        p = random_split_povm(3, 1, 1, 2, [61, 263, 1], oblique=True)
        mats = [e.matrix for e in p.elements]
        mats[2] = 3.5e-7 * projector(p.elements[2].support)
        mats[1] = np.eye(3) - mats[0] - mats[2] - mats[3]
        p = validate(mats)
        w = build_witness(p, decide_clean(p))
        report = verify_witness(p, w)
        assert (w.case_tag, w.widened_index, w.epsilon) == ("d", 3, 0.125)
        assert report.passed
        assert report.widening_margin == pytest.approx(0.0221, abs=1e-4)


@pytest.mark.parametrize("seed", [[7, 12, 4], [7, 15, 2], [21, 6, 42]])
def test_coarse_tolerance_split_keeps_every_direction(seed):
    # V, and V and W together, keep every direction that the partition's
    # dependence rule selected, also where singular values sit near the cut
    tol = Tolerances(rank=1e-2, zero=1e-2)
    _, p = random_quasi_qubit_instance(seed[1], np.random.default_rng(seed))
    verdict = decide_clean(p, tol)
    assert not verdict.clean
    assert verify_witness(p, build_witness(p, verdict, tol), tol).passed


class TestBuildWitnessDispatch:
    def test_scalar_goes_to_a(self):
        p = validate([0.5 * np.eye(2), 0.5 * np.eye(2)])
        w = build_witness(p, decide_clean(p))
        assert w.case_tag == "a"

    def test_block_diagonal_goes_to_b(self):
        p = qb_not_clean()
        w = build_witness(p, decide_clean(p))
        assert w.case_tag == "b"

    def test_full_rank_non_scalar_goes_to_c(self):
        pm = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        p = validate([pm, np.eye(2) - pm])
        w = build_witness(p, decide_clean(p))
        assert w.case_tag == "c"

    def test_oblique_goes_to_d(self):
        rng = np.random.default_rng(41)
        p = random_split_povm(3, 1, 1, 2, rng, oblique=True)
        w = build_witness(p, decide_clean(p))
        assert w.case_tag == "d"

    def test_verdict_of_another_dimension_is_a_construction_failure(self):
        # a qubit split's partition kets cannot span subspaces of C^3
        p3 = validate([np.diag([0.25, 0.0, 0.0]), np.diag([0.75, 1.0, 1.0])])
        with pytest.raises(ConstructionFailed) as info:
            build_witness(p3, decide_clean(qb_not_clean()))
        assert isinstance(info.value.__cause__, DimensionMismatch)
        assert info.value.case_tag is None

    def test_clean_verdict_rejected(self):
        p = random_povm("rank-one", 2, 3, 0)
        with pytest.raises(VerdictIsClean):
            build_witness(p, decide_clean(p))

    def test_every_witness_respects_spectrum_narrowing(self):
        rng = np.random.default_rng(43)
        built = 0
        while built < 25:
            d = int(rng.integers(2, 5))
            _, p = random_quasi_qubit_instance(d, rng)
            verdict = decide_clean(p)
            if verdict.clean:
                continue
            w = build_witness(p, verdict)
            # P_i = E(Q_i) must sit inside Q_i's spectrum window
            for qe in w.q.elements:
                assert spectrum_width_check(w.channel, qe.matrix).ok
            built += 1


class TestVerifyWitness:
    def test_tampered_q_fails_widening(self):
        p = qb_not_clean()
        w = build_witness(p, decide_clean(p))
        tampered = Witness(p, w.channel, w.widened_index, w.case_tag, w.epsilon, w.direction)
        report = verify_witness(p, tampered)
        assert not report.widened
        assert not report.passed

    def test_tampered_channel_fails_closure(self):
        p = qb_not_clean()
        w = build_witness(p, decide_clean(p))
        broken = KrausChannel(w.channel.dim, w.channel.kraus[:-1])  # skip validation on purpose
        report = verify_witness(p, Witness(w.q, broken, w.widened_index, w.case_tag, w.epsilon, w.direction))
        assert not report.channel_unital
        assert not report.passed

    @pytest.mark.parametrize(
        "q_mats",
        [
            # Hermitian parts 1/2 each, which close; the asymmetry 2.8e200 squares past the range
            [[[0.5, 1e200], [-1e200, 0.5]], [[0.5, -1e200], [1e200, 0.5]]],
            # the Hermitian part overflows, and eigvalsh fails on it
            [np.full((3, 3), 1.5e308), np.eye(3)],
        ],
        ids=["asymmetry", "hermitian-part"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_q_whose_norms_overflow_is_invalid(self, q_mats):
        d = len(q_mats[1])
        p = validate([0.5 * np.eye(d), 0.5 * np.eye(d)])
        w = build_witness(p, decide_clean(p))
        q = povm_unchecked(q_mats)
        report = verify_witness(p, Witness(q, w.channel, 0, w.case_tag, w.epsilon, w.direction))
        assert not report.q_valid
        assert not report.passed

    @pytest.mark.parametrize("past_end", [False, True], ids=["minus-one", "n"])
    def test_widened_index_outside_the_povm_raises(self, past_end):
        # index -1 would check the last element and n has no element at all
        p = qb_not_clean()
        w = build_witness(p, decide_clean(p))
        index = p.n_outcomes if past_end else -1
        bad = Witness(w.q, w.channel, index, w.case_tag, w.epsilon, w.direction)
        with pytest.raises(DimensionMismatch):
            verify_witness(p, bad)

    def test_report_carries_margins(self):
        p = validate([0.5 * np.eye(2), 0.5 * np.eye(2)])
        report = verify_witness(p, build_witness(p, decide_clean(p)))
        assert report.closure_residual <= 1e-10
        assert report.max_map_residual <= 1e-8
        assert report.widening_margin >= 1e-6


def case_povm(case, d):
    """A POVM whose built witness is of the given case, at dimension d."""
    if case == "a":
        return random_povm("scalar", d, 3, [43, d])
    k = d // 2
    shape = {"b": dict(block_diagonal=True), "c": dict(n_extra_full=1), "d": dict(oblique=True)}
    return random_split_povm(d, k, k + 1, d - k + 1, [43, d], **shape[case])


def reference_report(p, w, tol=Tolerances()):
    """The report as Q's full re-validation and per-operator and per-element
    channel loops give it."""
    try:
        validate([e.matrix for e in w.q.elements], tol, w.q.labels)
        q_valid = True
    except CleanPovmError:
        q_valid = False
    closure_sum = 0  # a running sum in Kraus order, as a Python loop adds
    for k in w.channel.kraus:
        closure_sum = closure_sum + k.conj().T @ k
    closure = float(np.linalg.norm(closure_sum - np.eye(p.dim)))
    residual = max(
        float(np.linalg.norm(apply(w.channel, qe.matrix) - pe.matrix))
        for qe, pe in zip(w.q.elements, p.elements)
    )
    q_el, p_el = w.q.elements[w.widened_index], p.elements[w.widened_index]
    if w.direction == "max-eig-increase":
        margin = q_el.max_eigenvalue - p_el.max_eigenvalue
    else:
        margin = p_el.min_eigenvalue - q_el.min_eigenvalue
    return WitnessReport(
        q_valid, closure <= 1e-10, residual <= 1e-8, margin >= 1e-6, closure, residual, margin
    )


def bits(report):
    return [v if isinstance(v, bool) else float(v).hex() for v in vars(report).values()]


def scaled(rows, factor):
    return [[[factor * re, factor * im] for re, im in row] for row in rows]


def tampered(p, w, kind):
    """A bundle of (P, w) whose Q, channel, index or P was edited before loading, read back."""
    obj = json.loads(dumps_canonical(witness_bundle_to_json(p, w)))
    q = obj["povm_q"]["elements"]
    if kind == "not-psd":
        q[0] = scaled(q[0], -1.0)
    elif kind == "non-hermitian":
        q[0][0][1][0] += 0.1
    elif kind == "zero":
        q[-1] = [[[0.0, 0.0] for _ in row] for row in q[-1]]
    elif kind == "closure":
        q[0] = scaled(q[0], 1.01)
    elif kind == "kraus":
        kraus = obj["channel"]["kraus"]
        kraus[0] = scaled(kraus[0], 1.01)
    elif kind == "index":  # the lowest element other than the widened one
        obj["widened_index"] = 2 if obj["widened_index"] == 1 else 1
    else:  # p: the first two elements mixed, so that P stays a POVM
        e = obj["povm_p"]["elements"]
        a, b = np.array(e[0]), np.array(e[1])
        e[0], e[1] = (0.999 * a + 0.001 * b).tolist(), (0.999 * b + 0.001 * a).tolist()
    return witness_bundle_from_json(obj)


#: The report flags each edit must fail.
TAMPER_FAILS = {
    "not-psd": ("q_valid",),
    "non-hermitian": ("q_valid",),
    "zero": ("q_valid",),
    "closure": ("q_valid",),
    "kraus": ("channel_unital", "maps_to_target"),
    "index": ("widened",),
    "p": ("maps_to_target",),
}


class TestReportEquivalence:
    """verify_witness gives the reference report bit for bit."""

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("case", "abcd")
    def test_built_witness(self, case, d):
        p = case_povm(case, d)
        w = build_witness(p, decide_clean(p))
        assert w.case_tag == case
        report = verify_witness(p, w)
        assert report.passed
        assert bits(report) == bits(reference_report(p, w))

    # in cases b and d every element of these POVMs widens, so a moved index
    # still passes there
    @pytest.mark.parametrize(
        "case, kind",
        [(case, kind) for kind in TAMPER_FAILS for case in "abcd" if kind != "index" or case in "ac"],
    )
    def test_tampered_bundle(self, case, kind):
        p = case_povm(case, 4)
        target, loaded = tampered(p, build_witness(p, decide_clean(p)), kind)
        report = verify_witness(target, loaded)
        assert not any(getattr(report, flag) for flag in TAMPER_FAILS[kind])
        assert not report.passed
        assert bits(report) == bits(reference_report(target, loaded))


class TestVerifyWitnessWork:
    @pytest.mark.parametrize("case", "abcd")
    def test_no_eigendecomposition(self, monkeypatch, case):
        p = case_povm(case, 8)
        w = build_witness(p, decide_clean(p))
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        assert verify_witness(p, w).passed
        assert calls == []

    def test_unknown_direction_raises_before_any_check(self, monkeypatch):
        p = qb_not_clean()
        w = build_witness(p, decide_clean(p))
        sideways = Witness(w.q, w.channel, w.widened_index, w.case_tag, w.epsilon, "sideways")
        for name in ("_axiom_violation", "apply"):
            monkeypatch.setattr(witness, name, None)  # any check would fail on a call
        monkeypatch.setattr(KrausChannel, "closure_defect", None)
        with pytest.raises(PreconditionViolated, match="unknown widening direction 'sideways'"):
            verify_witness(p, sideways)


def spy(monkeypatch, owner, name, calls):
    """Record the first argument of every call of ``owner.name``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0] if owner is np.linalg else args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class TestOneJudgePerTrial:
    """Each eps trial is judged by at most one verify_witness report; nothing after."""

    @pytest.mark.parametrize("case", "abcd")
    def test_accepted_witness_costs_one_apply_and_one_eigvalsh(self, monkeypatch, case):
        p = case_povm(case, 8)
        verdict = decide_clean(p)
        applies, eighs, eigvalshs = [], [], []
        spy(monkeypatch, witness, "apply", applies)
        spy(monkeypatch, np.linalg, "eigh", eighs)
        spy(monkeypatch, np.linalg, "eigvalsh", eigvalshs)
        w = build_witness(p, verdict)
        assert w.case_tag == case

        def on_q(arrays):
            q = w.q.matrices
            return sum(a.shape == q.shape and np.array_equal(a, q) for a in arrays)

        assert [args[1] is w.q.matrices for args in applies].count(True) == 1
        # Q is a certificate: one eigvalsh, no eigh
        assert (on_q(eighs), on_q(eigvalshs)) == (0, 1)

    @pytest.mark.parametrize("case", "bcd")
    def test_verified_once_per_trial_and_never_after(self, monkeypatch, case):
        # at d = 8 cases b and d accept their second trial, eps = 0.125, and
        # their first stops on Q's eigenvalues before any Povm or report; case c
        # accepts its first
        p = case_povm(case, 8)
        verdict = decide_clean(p)
        built, verified = [], []
        make = witness._povm
        monkeypatch.setattr(witness, "_povm", lambda *args: built.append(make(*args)) or built[-1])
        spy(monkeypatch, witness, "verify_witness", verified)
        w = build_witness(p, verdict)
        assert len(built) == 1
        assert case == "c" or w.epsilon == 0.125
        assert [args[1].q for args in verified] == built
        assert verified[-1][1] is w
        assert verify_witness(p, w).passed

    @pytest.mark.parametrize(
        "case, needs_larger, problem",
        [("b", False, "loses positivity"), ("c", False, "loses positivity"),
         ("d", True, "widening margin")],
    )
    def test_positivity_and_margin_both_failing(self, monkeypatch, case, needs_larger, problem):
        # cases b and c check positivity first and ask for a smaller eps; case d
        # checks the margin first and asks for a larger one
        p = case_povm(case, 4)
        verdict = decide_clean(p)
        verify, judge, trials = witness.verify_witness, witness._judge, []

        def narrow(*args):
            return dataclasses.replace(verify(*args), widened=False)

        def judged(*args, **kwargs):
            trials.append(judge(*args, **kwargs))
            return trials[-1]

        monkeypatch.setattr(witness, "verify_witness", narrow)
        monkeypatch.setattr(witness, "_psd_within_floor", lambda eigs: False)
        monkeypatch.setattr(witness, "_judge", judged)
        with pytest.raises(ConstructionFailed):
            build_witness(p, verdict)
        first = trials[0]
        assert not first.report.widened
        assert first.needs_larger is needs_larger
        assert problem in first.problem

    @pytest.mark.parametrize("case, d", [*itertools.product("abcd", (4, 8)), ("d", "climbing")])
    def test_one_walk_runs_every_trial_and_sums_closure_once_per_judged_trial(
        self, monkeypatch, case, d
    ):
        # the climbing instance misses the margin at eps = 0.25 and climbs to its window
        p = narrow_window_povm() if d == "climbing" else case_povm(case, d)
        verdict = decide_clean(p)
        walks, judged, closures, outside = [], [], [], []
        walk, judge, attempt_d = witness._eps_walk, witness._judge, witness._case_d_attempt
        closure_defect = KrausChannel.closure_defect

        def one_walk(*args, **kwargs):
            walks.append("open")
            try:
                return walk(*args, **kwargs)
            finally:
                walks.append("closed")

        def in_walk(run, *args, **kwargs):
            if walks != ["open"]:
                outside.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(witness, "_eps_walk", one_walk)
        monkeypatch.setattr(
            witness, "_judge", lambda *a, **k: judged.append(a) or in_walk(judge, *a, **k)
        )
        monkeypatch.setattr(witness, "_case_d_attempt", lambda *a: in_walk(attempt_d, *a))
        monkeypatch.setattr(
            KrausChannel, "closure_defect", lambda self: closures.append(self) or closure_defect(self)
        )
        w = build_witness(p, verdict)
        assert w.case_tag == case
        assert walks == ["open", "closed"]  # one walk
        assert outside == []  # every trial ran inside it
        assert judged and len(closures) == len(judged)  # one closure sum per judged trial
        assert closures[-1] is w.channel
        if d == "climbing":
            assert w.epsilon > 0.25

    def test_failed_search_keeps_its_last_report(self):
        # both supports weigh 1e-5: eps = 0.25 widens either by only 6.25e-7
        p = validate([np.diag([1e-5, 0.0]), np.diag([0.0, 1e-5]), np.diag([1 - 1e-5, 1 - 1e-5])])
        with pytest.raises(ConstructionFailed, match="last problem: widening margin") as info:
            build_witness(p, decide_clean(p))
        assert info.value.case_tag == "b"
        report = info.value.diagnostics
        assert list(report) == [f.name for f in dataclasses.fields(WitnessReport)]
        assert report["q_valid"] and not report["widened"]
        assert report["widening_margin"] == pytest.approx(6.25e-7, rel=1e-9)


class TestWidenedIndexTies:
    def test_first_best(self):
        first_best = witness._first_best
        assert first_best(np.array([0.05, 0.05 + 1e-16, 0.01])) == 0
        assert first_best(np.array([0.01, 0.05, 0.05 - 1e-13])) == 1
        assert first_best(np.array([0.05, 0.05 + 2e-12])) == 1
        assert first_best(np.array([1e3, 1e3 + 1e-10])) == 0  # relative to |best|

    @pytest.mark.parametrize("seed", [[7, 3, 193], [7, 12, 132], [7, 4, 229], [7, 8, 248]])
    def test_tied_case_c_movers_widen_the_first(self, seed):
        # two movers whose minimum eigenvalues drop by the same amount, up to rounding
        _, p = random_quasi_qubit_instance(seed[1], np.random.default_rng(seed))
        w = build_witness(p, decide_clean(p))
        assert (w.case_tag, w.widened_index) == ("c", 0)
        assert verify_witness(p, w).passed


def _early_stop_corpus():
    """Fuzz instances and planted splits at d = 4, 8, 12, then the near-boundary probe."""
    for d in (4, 8, 12):
        for i in range(120 if d == 4 else 60):
            yield random_quasi_qubit_instance(d, np.random.default_rng([7, d, i]))[1]
        for i in range(20):
            rng = np.random.default_rng([11, d, i])
            dim_v = int(rng.integers(1, d))
            yield random_split_povm(d, 1, 1, int(rng.integers(1, d)), rng, block_diagonal=True)
            yield random_split_povm(d, dim_v, 2, d - dim_v, rng, n_extra_full=1)
            yield random_split_povm(d, dim_v, 2, d - dim_v + 1, rng, oblique=True)
    for delta in (1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6):
        for i in range(150):
            yield near_boundary_povm(i, delta)


class TestEarlyStop:
    @pytest.mark.parametrize("psd_fails", [False, True], ids=["as-built", "positivity-always-fails"])
    def test_a_trial_stops_early_only_where_the_full_judge_asks_for_a_smaller_eps(
        self, monkeypatch, psd_fails
    ):
        """A case-b or case-d trial that stops on Q's eigenvalues is rejected,
        asking for a smaller eps, by the full judge of the same eps as well;
        every other trial comes out as it does when judged in full, and no
        walk ends on an early stop. With positivity failing on every trial
        (the first 120 instances only), case d meets its margin on some
        trials and misses it on others, and the walks run down to their last
        eps."""
        early = {"b": 0, "d": 0}
        trials = []  # whether each trial of the current witness stopped early

        def judged_in_full(case, run):
            got = run()
            with monkeypatch.context() as m:
                m.setattr(witness, "_EPS_GOES_ON", frozenset())
                full = run()
            same = (got.problem, got.needs_larger, got.report) == (
                full.problem, full.needs_larger, full.report
            )
            if not same:  # it stopped early: no channel, no Povm, no report
                assert got.witness is None and got.report is None and not got.needs_larger
                assert full.report is not None  # _judge ran on the full candidate
                assert full.witness is None and not full.needs_larger
                early[case] += 1
            else:
                assert (got.witness is None) == (full.witness is None)
            trials.append(not same)
            return got

        walk, attempt_d = witness._eps_walk, witness._case_d_attempt

        def spy_walk(trial, case_tag, *args, **kwargs):
            if case_tag == "b":  # case d is spied through its attempt
                def trial_b(x):
                    return judged_in_full("b", lambda: trial(x))
                return walk(trial_b, case_tag, *args, **kwargs)
            return walk(trial, case_tag, *args, **kwargs)

        monkeypatch.setattr(witness, "_eps_walk", spy_walk)
        monkeypatch.setattr(
            witness, "_case_d_attempt", lambda *args: judged_in_full("d", lambda: attempt_d(*args))
        )
        corpus = _early_stop_corpus()
        if psd_fails:
            monkeypatch.setattr(witness, "_psd_within_floor", lambda eigs: False)
            corpus = itertools.islice(corpus, 120)
        failures, built = 0, set()
        for p in corpus:
            verdict = decide_clean(p)
            if verdict.clean:
                continue
            trials.clear()
            try:
                built.add(build_witness(p, verdict).case_tag)
            except ConstructionFailed as exc:
                failures += 1
                if "B(eps) undefined" not in str(exc):
                    assert "q_valid" in exc.diagnostics, str(exc)
            assert not trials or not trials[-1], "a walk ended on an early stop"
        assert early["b"] > 0 and early["d"] > 0
        if psd_fails:
            assert built <= {"a"}
        else:
            assert built == set("abcd") and failures == 5  # the probe's case-d tolerance ties

    def test_unchecked_eigenvalues_match_per_matrix_eigvalsh(self):
        rng = np.random.default_rng(9)
        for d in (2, 3, 4, 5, 8, 12, 16):
            stack = rng.standard_normal((7, d, d)) + 1j * rng.standard_normal((7, d, d))
            q = povm_unchecked(stack)
            want = np.array([np.linalg.eigvalsh(hermitian_part(m)) for m in stack])
            assert q.eigenvalues.tobytes() == want.tobytes()
