"""Tests for POVM validation, classification, and random generation."""

import json

import numpy as np
import pytest

from cleanpovm.cleanness import decide_clean, oracle_verdict
from cleanpovm.errors import (
    ClosureViolation,
    DimensionMismatch,
    InfeasibleRequest,
    NonHermitianInput,
    NotPsd,
    UnvalidatedPovm,
    ZeroElement,
)
from cleanpovm.fileio import dumps_canonical, povm_from_json, povm_to_json
from cleanpovm.fuzz import random_quasi_qubit_instance
from cleanpovm.linalg import DEFAULT_TOL, as_operator, fro_norms, haar_unitary, hermitian_part
from cleanpovm.povm import (
    Povm,
    PovmClass,
    classify,
    povm_unchecked,
    random_povm,
    random_split_povm,
    rank_one_supports,
    validate,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def diag(*entries):
    return np.diag(np.array(entries, dtype=float)).astype(complex)


def phase_fixed(ket):
    """The support convention, one ket at a time: unit norm, largest amplitude real positive."""
    u = ket / np.linalg.norm(ket)
    z = u[np.argmax(np.abs(u))]
    return u * (z / abs(z)).conjugate()


class TestValidate:
    def test_two_scalar_halves(self):
        p = validate([diag(0.5, 0.5), diag(0.5, 0.5)])
        assert p.dim == 2 and p.n_outcomes == 2
        assert all(e.rank == 2 for e in p.elements)

    def test_standard_observable(self):
        p = validate([diag(1, 0), diag(0, 1)])
        assert [e.rank for e in p.elements] == [1, 1]
        assert p.elements[0].weight == pytest.approx(1.0)

    def test_closure_violation(self):
        with pytest.raises(ClosureViolation) as info:
            validate([diag(0.6, 0.6), diag(0.6, 0.6)])
        assert info.value.residual == pytest.approx(0.2 * np.sqrt(2), rel=1e-6)

    def test_not_psd(self):
        with pytest.raises(NotPsd) as info:
            validate([diag(1.1, 0.5), diag(-0.1, 0.5)])
        assert info.value.index == 1

    def test_zero_element(self):
        with pytest.raises(ZeroElement):
            validate([diag(1, 1), diag(0, 0)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate([np.eye(2), np.eye(3)])

    def test_rejects_dim_one(self):
        with pytest.raises(DimensionMismatch):
            validate([np.eye(1)])

    def test_labels_round(self):
        p = validate([diag(1, 0), diag(0, 1)], labels=["up", "down"])
        assert p.labels == ("up", "down")
        with pytest.raises(DimensionMismatch):
            validate([diag(1, 0), diag(0, 1)], labels=["only-one"])

    def test_symmetrizes_tiny_asymmetry(self):
        m1 = diag(0.5, 0.5)
        m1[0, 1] = 1e-12
        p = validate([m1, diag(0.5, 0.5)])
        assert np.allclose(p.elements[0].matrix, p.elements[0].matrix.conj().T)


class TestPovmStacks:
    """A Povm keeps the matrix and eigenvalue stacks its elements view."""

    def test_validate_hands_over_its_stacks(self):
        _, p = random_quasi_qubit_instance(4, np.random.default_rng([7, 4, 1]))
        assert p.matrices.shape == (p.n_outcomes, 4, 4)
        assert p.eigenvalues.shape == (p.n_outcomes, 4)
        for i, e in enumerate(p.elements):
            assert np.shares_memory(e.matrix, p.matrices)
            assert np.array_equal(e.matrix, p.matrices[i])
            assert np.array_equal(e.eigenvalues, p.eigenvalues[i])
        assert not p.matrices.flags.writeable and not p.eigenvalues.flags.writeable

    def test_unchecked_keeps_the_matrices_as_given(self):
        skew = diag(0.5, 0.5)
        skew[0, 1] = 0.1
        p = povm_unchecked([skew, np.eye(2) - skew])
        assert np.array_equal(p.matrices[0], skew)
        assert np.array_equal(p.eigenvalues[0], np.linalg.eigvalsh(hermitian_part(skew)))

    def test_povm_from_elements_stacks_them(self):
        _, p = random_quasi_qubit_instance(3, np.random.default_rng([7, 3, 2]))
        order = list(reversed(range(p.n_outcomes)))
        permuted = Povm(p.dim, tuple(p.elements[i] for i in order))
        assert np.array_equal(permuted.matrices, p.matrices[order])
        assert np.array_equal(permuted.eigenvalues, p.eigenvalues[order])
        assert not permuted.matrices.flags.writeable


class TestStackedValidate:
    """validate checks all elements in one stacked pass; the results must
    equal a per-element computation bit for bit."""

    def test_first_bad_element_decides(self):
        skew = diag(0.2, 0.2)
        skew[0, 1] = 0.1
        with pytest.raises(NotPsd) as info:
            validate([diag(0.5, 0.5), diag(-0.1, 0.5), skew])
        assert info.value.index == 1
        with pytest.raises(NonHermitianInput, match="element 2:"):
            validate([diag(0.5, 0.5), skew, diag(-0.1, 0.5)])

    def test_zero_before_not_psd(self):
        with pytest.raises(ZeroElement) as info:
            validate([diag(0, 0), diag(-0.1, 0.5), diag(1.1, 0.5)])
        assert info.value.index == 0

    def test_hermiticity_then_psd_within_an_element(self):
        both = diag(-0.5, 0.5)
        both[0, 1] = 0.1
        with pytest.raises(NonHermitianInput, match="element 2:"):
            validate([diag(0.5, 0.5), both])
        with pytest.raises(NotPsd) as info:
            validate([diag(0.5, 0.5), diag(-0.5, 0.0)])  # not PSD and not zero
        assert info.value.index == 1
        assert info.value.min_eigenvalue == -0.5

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_matches_per_element_eigendata(self, d):
        rng = np.random.default_rng([31, d])
        for _ in range(20):
            _, p = random_quasi_qubit_instance(d, rng)
            # small non-Hermitian noise, so that the Hermitian part is not the input
            mats = [
                e.matrix + 1e-12 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                for e in p.elements
            ]
            q = validate(mats)
            for a, e in zip(mats, q.elements):
                h = hermitian_part(a)
                w, v = np.linalg.eigh(h)
                rank = int(np.sum(w > DEFAULT_TOL.rank * w[-1]))
                assert np.array_equal(e.matrix, h)
                assert np.array_equal(e.eigenvalues, w)
                assert np.array_equal(e.eigenvectors, v)
                assert e.rank == rank
                if rank == 1:
                    assert e.weight == float(w[-1])
                    assert np.array_equal(e.support, phase_fixed(v[:, -1]))
                else:
                    assert e.weight is None and e.support is None

    def test_stacked_norms_match_per_matrix_norms(self):
        # the hermiticity and zero gates compare these norms with tolerances
        rng = np.random.default_rng(8)
        for d in (2, 3, 5, 8, 16):
            a = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
            assert np.array_equal(fro_norms(a), [np.linalg.norm(m) for m in a])

    def test_cached_arrays_read_only(self):
        p = random_povm("strict-quasi-qubit", 3, 4, 5)
        for e in p.elements:
            for a in (e.matrix, e.eigenvalues, e.eigenvectors):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0
                with pytest.raises(ValueError):
                    a.setflags(write=True)

    def test_unchecked_keeps_matrices_and_skips_axioms(self):
        skew = diag(-1.5, 0.5)
        skew[0, 1] = 0.25
        q = povm_unchecked([skew, diag(0.5, 0.5)])
        assert np.array_equal(q.elements[0].matrix, skew)
        assert np.array_equal(q.elements[0].eigenvalues, np.linalg.eigvalsh(hermitian_part(skew)))
        assert not q.elements[0].matrix.flags.writeable
        with pytest.raises(DimensionMismatch):
            povm_unchecked([np.eye(2), np.eye(3)])


def _phase_fixed(ket):
    v = ket / np.linalg.norm(ket)
    i = int(np.argmax(np.abs(v)))
    phase = v[i] / abs(v[i])
    return v * phase.conjugate()


def _per_element_validate(matrices, tol=DEFAULT_TOL):
    """``validate`` computed matrix by matrix: the reference the stacked pass must match.

    Returns ``(matrix, eigenvalues, eigenvectors, rank, weight, support)``
    per element, or raises what ``validate`` raises.
    """
    mats = [as_operator(m) for m in matrices]
    if not mats:
        raise DimensionMismatch("a POVM needs at least one element")
    d = mats[0].shape[0]
    if d < 2:
        raise DimensionMismatch("dimension must be at least 2")
    if any(m.shape != (d, d) for m in mats):
        raise DimensionMismatch("POVM elements have mixed dimensions")
    herm = [hermitian_part(m) for m in mats]
    eig = [np.linalg.eigh(h) for h in herm]
    for i, (m, h, (w, _)) in enumerate(zip(mats, herm, eig)):
        asym = np.linalg.norm(m - m.conj().T)
        if asym > 1e-9 * max(1.0, np.linalg.norm(m)):
            raise NonHermitianInput(f"element {i + 1}: asymmetry {asym:.3e} exceeds tolerance")
        if w[0] < -1e-9 * max(1.0, w[-1]):
            raise NotPsd(f"element {i + 1}: minimum eigenvalue {w[0]:.3e}", index=i,
                         min_eigenvalue=float(w[0]))
        if np.linalg.norm(h) <= tol.zero:
            raise ZeroElement(f"element {i + 1} is numerically zero", index=i)
    residual = float(np.linalg.norm(sum(herm) - np.eye(d)))
    if residual > 1e-9:
        raise ClosureViolation(f"sum of elements deviates from identity by {residual:.3e}",
                               residual=residual)
    out = []
    for h, (w, v) in zip(herm, eig):
        rank = int(np.sum(w > tol.rank * w[-1]))
        one = rank == 1
        out.append((h, w, v, rank, float(w[-1]) if one else None, _phase_fixed(v[:, -1]) if one else None))
    return out


def _outcome(fn, matrices):
    try:
        return fn(matrices)
    except Exception as exc:  # the error is the outcome compared
        return exc


def _assert_same_outcome(matrices):
    got = _outcome(validate, matrices)
    want = _outcome(_per_element_validate, matrices)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        for attr in ("index", "min_eigenvalue", "residual"):
            assert getattr(got, attr, None) == getattr(want, attr, None), attr
        return want
    assert not isinstance(got, Exception), got
    for e, (h, w, v, rank, weight, support) in zip(got.elements, want, strict=True):
        for x, y in ((e.matrix, h), (e.eigenvalues, w), (e.eigenvectors, v)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert (e.rank, e.weight) == (rank, weight)
        assert e.support is None if support is None else e.support.tobytes() == support.tobytes()
    return None


class TestPerElementReference:
    """Every Povm field and every error equals the per-element computation bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_random_instances_and_their_defects(self, d):
        rng = np.random.default_rng([47, d])
        errors = set()
        for k in range(200):
            _, p = random_quasi_qubit_instance(d, rng)
            noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mats = [e.matrix + 1e-12 * noise for e in p.elements]
            # defects on up to two elements: the first in input order must decide
            for i in rng.choice(len(mats), size=min(len(mats), k % 3), replace=False).tolist():
                defect = rng.integers(4)
                if defect == 0:
                    mats[i] = mats[i] * (1 + 1e-6)  # closure
                elif defect == 1:
                    mats[i] = mats[i] - 2 * np.eye(d)  # not PSD
                elif defect == 2:
                    mats[i] = mats[i] + 1e-3 * noise  # not Hermitian
                else:
                    mats[i] = 1e-12 * mats[i]  # zero
            error = _assert_same_outcome(mats)
            errors.add(type(error).__name__)
        assert errors >= {"NoneType", "ClosureViolation", "NotPsd", "NonHermitianInput", "ZeroElement"}

    def test_closure_residual_bits(self):
        rng = np.random.default_rng(48)
        for d in (2, 3, 4, 8, 16):
            for n in (2, 7, 40):
                mats = list(rng.standard_normal((n, d, d)))
                mats = [m @ m.T / n for m in mats]
                assert isinstance(_assert_same_outcome(mats), ClosureViolation)

    @pytest.mark.parametrize(
        "matrices",
        [
            [],
            [np.eye(2), np.eye(3)],
            [np.eye(3), np.eye(2), np.full((2, 2), np.nan)],
            [np.eye(2), [1.0, 0.0]],
            [[1.0, 0.0], np.eye(3)],
            np.eye(2),
            [np.eye(1)],
            [[[1.0]], [[0.0]]],
            [np.eye(2), np.full((2, 2), np.inf)],
            [np.eye(2), np.array([[np.nan, 0], [0, 1]]), np.eye(3)],
            [[["a", 0], [0, 1]], np.eye(2)],
            [np.eye(2), [[None, 0], [0, 1]]],
            [np.eye(2), [[1, 0], [0]]],
            np.zeros((2, 3, 3)),
            np.zeros((2, 2, 3)),
        ],
        ids=[
            "empty", "mixed-shapes", "mixed-shapes-before-nan", "one-d", "one-d-first", "one-matrix",
            "one-by-one", "one-by-one-lists", "inf", "nan-before-mixed-shapes", "string",
            "none", "ragged", "zero-stack", "non-square-stack",
        ],
    )
    def test_malformed_input(self, matrices):
        assert isinstance(_assert_same_outcome(matrices), Exception)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
class TestOverflowingNorms:
    """An element whose norms overflow is judged as exact arithmetic would."""

    def test_non_hermitian_elements_whose_norms_overflow(self):
        # each Hermitian part is 1/2 and they close; the asymmetry 2.8e200 squares past the range
        with pytest.raises(NonHermitianInput, match=r"^element 1: asymmetry 2\.828e\+200 exceeds"):
            validate([[[0.5, 1e200], [-1e200, 0.5]], [[0.5, -1e200], [1e200, 0.5]]])

    def test_elements_whose_hermitian_part_overflows(self):
        # 1.5e308 + 1.5e308 overflows in the Hermitian part; element 2 is negative definite
        with pytest.raises(NotPsd) as info:
            validate([diag(1.5e308, 1.5e308), diag(1 - 1.5e308, 1 - 1.5e308)])
        assert (info.value.index, info.value.min_eigenvalue) == (1, -1.5e308)

    @pytest.mark.parametrize(
        "matrices",
        [
            # the Hermitian parts' off-diagonal entries overflow to +inf and -inf,
            # whose sum the residual would read as NaN
            [np.full((2, 2), 1.5e308), [[1.5e308, -1.5e308], [-1.5e308, 1.5e308]]],
            # eigh fails on the overflowed Hermitian part
            [np.full((3, 3), 1.5e308), np.eye(3)],
        ],
        ids=["nan-residual", "eigh-fails"],
    )
    def test_psd_elements_too_large_to_close(self, matrices):
        # every element passes its own gates
        with pytest.raises(ClosureViolation):
            validate(matrices)


class TestClassify:
    def test_strict_quasi_qubit(self):
        p = validate([0.25 * np.outer(E1, E1), 0.25 * np.outer(E2, E2), diag(0.75, 0.75)])
        profile = classify(p)
        assert profile.kind is PovmClass.STRICT_QUASI_QUBIT
        assert profile.ranks == (1, 1, 2)

    def test_trine_is_rank_one(self):
        kets = [
            np.array([np.cos(t / 2), np.sin(t / 2)], dtype=complex)
            for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        ]
        p = validate([(2 / 3) * np.outer(k, k.conj()) for k in kets])
        assert classify(p).kind is PovmClass.RANK_ONE

    def test_rank_two_in_dim_three_is_not_quasi_qubit(self):
        p = validate([np.diag([0.5, 0.5, 0.0]).astype(complex), np.diag([0.5, 0.5, 1.0]).astype(complex)])
        profile = classify(p)
        assert profile.kind is PovmClass.NOT_QUASI_QUBIT
        assert profile.ranks == (2, 3)

    def test_invariance_under_permutation_and_conjugation(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            p = random_povm("strict-quasi-qubit", d, int(rng.integers(2, d + 3)), rng)
            kind = classify(p).kind
            perm = rng.permutation(p.n_outcomes)
            shuffled = validate([p.elements[i].matrix for i in perm])
            assert classify(shuffled).kind is kind
            u = haar_unitary(d, rng)
            rotated = validate([u @ e.matrix @ u.conj().T for e in p.elements])
            assert classify(rotated).kind is kind


class TestRankOneSupports:
    def test_standard_observable(self):
        p = validate([diag(1, 0), diag(0, 1)])
        supports = rank_one_supports(p)
        assert [(s.index, s.weight) for s in supports] == [(0, 1.0), (1, 1.0)]
        assert np.allclose(supports[0].ket, E1)
        assert np.allclose(supports[1].ket, E2)

    def test_full_rank_has_none(self):
        p = validate([diag(0.5, 0.5), diag(0.5, 0.5)])
        assert rank_one_supports(p) == []

    def test_plus_state_support(self):
        p = validate([0.5 * np.outer(PLUS, PLUS.conj()), np.eye(2) - 0.5 * np.outer(PLUS, PLUS.conj())])
        (s,) = [s for s in rank_one_supports(p) if s.index == 0]
        assert s.weight == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(s.ket, [0.7071067811865476, 0.7071067811865476], atol=1e-12)

    def test_phase_convention(self):
        k = np.array([0.6j, -0.8j])
        p = validate([0.5 * np.outer(k, k.conj()), np.eye(2) - 0.5 * np.outer(k, k.conj())])
        (ket,) = [s.ket for s in rank_one_supports(p) if s.index == 0]
        biggest = ket[np.argmax(np.abs(ket))]
        assert biggest.imag == pytest.approx(0.0, abs=1e-15)
        assert biggest.real > 0

    @pytest.mark.parametrize("kind", ["strict-quasi-qubit", "full-rank"])
    def test_certificate_has_no_supports(self, kind):
        # read without the axiom checks, as cleanpovm verify reads Q: eigenvalues only
        p = random_povm(kind, 3, 4, 5)
        q = povm_from_json(json.loads(dumps_canonical(povm_to_json(p))), checked=False)
        assert [e.rank for e in q.elements] == [e.rank for e in p.elements]
        assert all(e.eigenvectors is None and e.support is None for e in q.elements)
        for read in (rank_one_supports, decide_clean, oracle_verdict):
            with pytest.raises(UnvalidatedPovm, match="keeps eigenvalues only"):
                read(q)


class TestRandomPovm:
    def test_scalar_kind(self):
        p = random_povm("scalar", 2, 2, 0)
        mus = [e.matrix[0, 0].real for e in p.elements]
        assert all(np.allclose(e.matrix, mu * np.eye(2)) for e, mu in zip(p.elements, mus))
        assert sum(mus) == pytest.approx(1.0)
        assert all(0 < mu < 1 for mu in mus)

    def test_rank_one_kind(self):
        p = random_povm("rank-one", 2, 3, 7)
        assert classify(p).kind is PovmClass.RANK_ONE

    def test_strict_kind(self):
        p = random_povm("strict-quasi-qubit", 3, 5, 1)
        profile = classify(p)
        assert profile.kind is PovmClass.STRICT_QUASI_QUBIT
        assert set(profile.ranks) == {1, 3}

    def test_full_rank_kind(self):
        p = random_povm("full-rank", 3, 3, 2)
        assert classify(p).kind is PovmClass.FULL_RANK

    def test_deterministic_for_fixed_seed(self):
        a = random_povm("strict-quasi-qubit", 3, 5, 123)
        b = random_povm("strict-quasi-qubit", 3, 5, 123)
        for ea, eb in zip(a.elements, b.elements):
            assert np.array_equal(ea.matrix, eb.matrix)

    def test_rank_one_needs_enough_outcomes(self):
        with pytest.raises(InfeasibleRequest):
            random_povm("rank-one", 3, 2, 0)

    def test_unknown_kind(self):
        with pytest.raises(InfeasibleRequest):
            random_povm("bogus", 2, 2, 0)

    def test_every_output_validates(self):
        rng = np.random.default_rng(5)
        for kind in ("scalar", "rank-one", "full-rank", "strict-quasi-qubit"):
            for _ in range(10):
                d = int(rng.integers(2, 5))
                n = int(rng.integers(max(2, d), d + 3))
                p = random_povm(kind, d, n, rng)
                total = sum(e.matrix for e in p.elements)
                assert np.linalg.norm(total - np.eye(d)) <= 1e-9
                assert all(e.min_eigenvalue >= -1e-9 for e in p.elements)


class TestRandomSplitPovm:
    def test_block_diagonal_split(self):
        p = random_split_povm(3, 1, 1, 2, 4, block_diagonal=True)
        assert classify(p).is_quasi_qubit

    def test_oblique_split(self):
        p = random_split_povm(3, 1, 1, 2, 4, oblique=True)
        assert classify(p).is_quasi_qubit

    def test_incompatible_flags(self):
        with pytest.raises(InfeasibleRequest):
            random_split_povm(3, 1, 1, 1, 0, oblique=True, block_diagonal=True)

