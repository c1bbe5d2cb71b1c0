"""Tests for the dense linear-algebra primitives."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cleanpovm.errors import NonHermitianInput, NotPsd
from cleanpovm.linalg import (
    CLOSURE_TOL,
    DEFAULT_TOL,
    HERM_TOL,
    PSD_TOL,
    Tolerances,
    haar_unitary,
    hermitian_part,
    in_span,
    orthonormal_complement,
    random_psd,
    support_frame,
)
from reference import (
    SOLVE_RESIDUAL_TOL,
    SPECTRUM_SLACK,
    SingularSuperop,
    eig_hermitian,
    psd_sqrt,
    superop_matrix,
    superop_solve,
)
from samplers import near_identity_channel, random_hermitian

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def eig2_oracle(h):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix (trace/determinant)."""
    a, c = h[0, 0].real, h[1, 1].real
    b = h[0, 1]
    mean = 0.5 * (a + c)
    radius = np.sqrt((0.5 * (a - c)) ** 2 + abs(b) ** 2)
    return mean - radius, mean + radius


class TestEigHermitian:
    def test_identity(self):
        w, v = eig_hermitian(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        w, v = eig_hermitian(np.diag([0.25, 0.75]))
        assert np.allclose(w, [0.25, 0.75])
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_half_matrix_against_closed_form(self):
        h = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        w, v = eig_hermitian(h)
        lo, hi = eig2_oracle(h)
        assert np.allclose(w, [lo, hi], atol=1e-14)
        assert np.allclose(w, [0.0, 1.0], atol=1e-14)
        # eigenvectors (e1 -+ e2)/sqrt(2) up to phase
        assert abs(abs(v[:, 0] @ np.array([1, -1]) / np.sqrt(2)) - 1) < 1e-12
        assert abs(abs(v[:, 1] @ np.array([1, 1]) / np.sqrt(2)) - 1) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(NonHermitianInput):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_repairs_tiny_asymmetry(self):
        h = np.diag([0.3, 0.7]).astype(complex)
        h[0, 1] = 1e-12
        w, _ = eig_hermitian(h)
        assert np.allclose(w, [0.3, 0.7], atol=1e-10)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        h = random_hermitian(d, rng)
        w, v = eig_hermitian(h)
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(h - (v * w) @ v.conj().T) <= 1e-10 * scale
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-10


class TestGreedyBasisSubset:
    """The greedy basis that ``support_frame`` selects."""

    def test_dependent_third(self):
        assert support_frame([E1, E2, E1 + E2]).selected == (0, 1)

    def test_colinear_pair(self):
        assert support_frame([E1, 2 * E1]).selected == (0,)

    def test_exact_dependence(self):
        # residual of e1 against span{e1+e2, e1-e2} is exactly zero
        assert support_frame([E1 + E2, E1 - E2, E1]).selected == (0, 1)

    def test_invariant_under_appending_spanned_vectors(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, d + 1))
            vs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(k)]
            base = support_frame(vs).selected
            span = [vs[i] for i in base]
            extra = sum(rng.standard_normal() * s for s in span)
            assert support_frame(vs + [extra]).selected == base


class TestCoordsInBasis:
    """The basis positions whose span ``support_frame`` finds for a ket."""

    def test_standard_basis(self):
        assert support_frame([E1, E2, E1]).spans == ((0,), (1,), (0,))

    def test_sum_vector(self):
        assert support_frame([E1, E2, E1 + E2]).spans[2] == (0, 1)

    def test_hand_solved_system(self):
        # e1 = 0.5 (e1+e2) + 0.5 (e1-e2) needs both positions
        assert support_frame([E1 + E2, E1 - E2, E1]).spans[2] == (0, 1)

    def test_small_coefficients_reported_zero(self):
        assert support_frame([E1, E2, E1 + 1e-12 * E2]).spans[2] == (0,)


class TestInSpan:
    def test_residual_relative_to_ket_norm(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        kets = np.array([[1.0, 5e-9], [1.0, 5e-8], [1e6, 5e-3], [0.0, 1.0]])
        assert in_span(kets, e1).tolist() == [True, False, True, False]
        assert in_span(kets, e1, Tolerances(rank=0.1)).tolist() == [True, True, True, False]

    def test_one_ket_and_the_empty_family(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        assert in_span(np.array([2.0, 0.0]), e1).tolist() == [True]
        assert in_span(np.zeros((0, 2)), e1).shape == (0,)


class TestSupportFrame:
    def test_q_is_orthonormal_basis_of_the_selection(self):
        rng = np.random.default_rng(7)
        kets = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2)]
        frame = support_frame(kets + [kets[0] - 2j * kets[1]])
        assert frame.q.shape == (4, 2)
        assert np.linalg.norm(frame.q.conj().T @ frame.q - np.eye(2)) <= 1e-12
        for ket in kets:
            assert np.linalg.norm(ket - frame.q @ (frame.q.conj().T @ ket)) <= 1e-12
        assert frame.spans[2] == (0, 1)

    def test_every_ket_lies_within_tolerance_of_its_span(self):
        rng = np.random.default_rng(11)
        for delta in (1e-10, 1e-9, 3e-9, 1e-8, 3e-8):
            for _ in range(40):
                d = int(rng.integers(2, 6))
                basis = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(d)]
                kets = basis + [
                    basis[0] + basis[1] + delta * rng.standard_normal(d),
                    basis[-1] + delta * (rng.standard_normal(d) + 1j * rng.standard_normal(d)),
                ]
                frame = support_frame(kets)
                assert frame.selected == tuple(range(d))
                for ket, span in zip(kets, frame.spans):
                    cols = np.column_stack([kets[p] for p in span])
                    q, _ = np.linalg.qr(cols)
                    residual = np.linalg.norm(ket - q @ (q.conj().T @ ket))
                    assert residual <= DEFAULT_TOL.rank * np.linalg.norm(ket)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_projector_is_fixed_point(self):
        h = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        s = psd_sqrt(h)
        assert np.linalg.norm(s @ s - h) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(NotPsd):
            psd_sqrt(np.diag([1.0, -0.1]))

    def test_clamps_tiny_negative(self):
        s = psd_sqrt(np.diag([1.0, -1e-12]))
        assert np.all(np.linalg.eigvalsh(s) >= 0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        s = psd_sqrt(random_psd(d, rng))
        assert np.linalg.norm(psd_sqrt(s @ s.conj().T) - s) <= 1e-8 * max(1, np.linalg.norm(s))


class TestSuperop:
    def test_identity_channel(self):
        s = superop_matrix([np.eye(3)])
        assert np.allclose(s, np.eye(9))

    def test_columns_match_direct_application_on_matrix_units(self):
        # the defining property: column (k,l) is the image of the matrix unit E_kl
        kraus = [np.outer(E1, E1.conj()), np.outer(E1, E2.conj())]
        s = superop_matrix(kraus)
        for k in range(2):
            for l in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[k, l] = 1.0
                direct = sum(r.conj().T @ unit @ r for r in kraus)
                assert np.allclose(s @ unit.reshape(-1), direct.reshape(-1), atol=1e-15)

    def test_unitary_channel_gives_unitary_superop(self):
        u = haar_unitary(3, np.random.default_rng(1))
        s = superop_matrix([u])
        assert np.linalg.norm(s.conj().T @ s - np.eye(9)) <= 1e-12

    def test_vec_convention_row_major(self):
        # vec(A) = A.reshape(-1) lists A row by row, so vec(X A Y) = kron(X, Y.T) vec(A)
        a = np.arange(4, dtype=complex).reshape(2, 2)
        assert np.array_equal(a.reshape(-1), np.array([0, 1, 2, 3], dtype=complex))
        rng = np.random.default_rng(2)
        x, y, a = (haar_unitary(3, rng) for _ in range(3))
        assert np.allclose(np.kron(x, y.T) @ a.reshape(-1), (x @ a @ y).reshape(-1), atol=1e-14)


class TestSuperopSolve:
    def test_identity(self):
        target = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
        a = superop_solve(np.eye(4), target)
        assert np.allclose(a, target)

    def test_unitary_conjugation(self):
        rng = np.random.default_rng(7)
        u = haar_unitary(2, rng)
        s = superop_matrix([u])  # E(A) = U^dagger A U
        target = random_psd(2, rng)
        a = superop_solve(s, target)
        assert np.allclose(a, u @ target @ u.conj().T, atol=1e-12)

    def test_projector_mixing_inverse_scales_off_diagonal(self):
        # channel {eps P1, eps P2, sqrt(1-eps^2) 1} at eps = 0.2:
        # the inverse image scales off-diagonal entries by 1/(1-eps^2) = 1.041666...
        eps = 0.2
        kraus = [
            eps * np.diag([1.0, 0.0]),
            eps * np.diag([0.0, 1.0]),
            np.sqrt(1 - eps**2) * np.eye(2),
        ]
        s = superop_matrix(kraus)
        target = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        a = superop_solve(s, target)
        expected = np.array([[0.5, 0.1 / 0.96], [0.1 / 0.96, 0.5]])
        assert np.allclose(a, expected, atol=1e-13)
        assert abs(a[0, 1].real - 0.1 * 1.0416666666666667) < 1e-12

    def test_singular_raises(self):
        kraus = [np.outer(E1, E1.conj()), np.outer(E1, E2.conj())]
        s = superop_matrix(kraus)  # rank-one range
        with pytest.raises(SingularSuperop):
            superop_solve(s, np.eye(2))

    def test_round_trip_for_near_identity_channels(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            ch = near_identity_channel(d, float(rng.uniform(0.001, 0.05)), rng)
            s = superop_matrix(ch.kraus)
            x = random_hermitian(d, rng)
            a = superop_solve(s, x)
            image = sum(k.conj().T @ a @ k for k in ch.kraus)
            assert np.linalg.norm(image - x) <= 1e-8 * max(1, np.linalg.norm(x))

    def test_stacked_targets_equal_single_solves(self):
        rng = np.random.default_rng(16)
        for d in (2, 3, 4, 8):
            s = superop_matrix(near_identity_channel(d, 0.1, rng).kraus)
            targets = np.stack([random_hermitian(d, rng) for _ in range(5)])
            stacked = superop_solve(s, targets)
            assert stacked.shape == targets.shape
            for a, x in zip(stacked, targets):
                assert np.array_equal(a, superop_solve(s, x))


class TestOrthonormalHelpers:
    def test_complement_dimensions(self):
        rng = np.random.default_rng(3)
        q = support_frame([rng.standard_normal(4) + 1j * rng.standard_normal(4)]).q
        comp = orthonormal_complement(q)
        assert comp.shape == (4, 3)
        assert np.linalg.norm(q.conj().T @ comp) <= 1e-12

    def test_stacked_complement_equals_each_single_complement(self):
        rng = np.random.default_rng(19)
        for d in (2, 3, 4, 8, 16):
            for k in range(d + 1):
                z = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
                q = np.linalg.qr(z)[0][..., :k]
                stacked = orthonormal_complement(q)
                assert stacked.shape == (6, d, d - k)
                for comp, single in zip(stacked, q):
                    assert np.array_equal(comp, orthonormal_complement(single))

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(5, np.random.default_rng(0))
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-12


def test_tolerances_defaults():
    t = Tolerances()
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["rank", "zero"]
    assert (HERM_TOL, PSD_TOL, CLOSURE_TOL) == (1e-9, 1e-9, 1e-9)
    assert (t.rank, t.zero) == (1e-8, 1e-8)
    with pytest.raises(ValueError):
        Tolerances(rank=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Tolerances(zero=bad)
    assert DEFAULT_TOL == Tolerances()


def test_reference_bounds():
    """The residual bound of the reference superoperator solve and the spectrum check's slack."""
    assert (SOLVE_RESIDUAL_TOL, SPECTRUM_SLACK) == (1e-8, 1e-10)


def test_hermitian_part_idempotent():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = hermitian_part(m)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(hermitian_part(h), h)
