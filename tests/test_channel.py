"""Tests for Kraus channels, and for the reference near-identity bound and map inversion."""

import numpy as np
import pytest

from cleanpovm.channel import KrausChannel, apply
from cleanpovm.errors import ClosureViolation, DimensionMismatch, InvalidMatrix
from cleanpovm.linalg import haar_unitary, hermitian_part, random_psd
from cleanpovm.povm import classify, random_povm, validate
from reference import (
    SingularSuperop,
    f_bound,
    invert_positive_map,
    spectrum_width_check,
    superop_matrix,
)
from samplers import near_identity_channel, random_channel, random_hermitian

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def depolarize_to_first_entry():
    """Channel with E(A) = <e1|A|e1> * 1 (Kraus |e1><e1|, |e1><e2|)."""
    return KrausChannel.build([np.outer(E1, E1.conj()), np.outer(E1, E2.conj())])


class TestKrausChannel:
    def test_identity_closure(self):
        ch = KrausChannel.build([np.eye(2)])
        assert ch.closure_residual() <= 1e-15

    def test_closure_violation(self):
        with pytest.raises(ClosureViolation):
            KrausChannel.build([0.5 * np.eye(2)])

    def test_identity_distance(self):
        ch = KrausChannel.build([np.eye(3)])
        assert np.linalg.norm(np.eye(3) - ch.kraus[0]) == 0.0

    def test_kraus_is_a_read_only_copy(self):
        kraus = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
        ch = KrausChannel.build(kraus)
        assert ch.kraus.shape == (2, 2, 2) and not ch.kraus.flags.writeable
        with pytest.raises(ValueError):
            ch.kraus[0, 0, 0] = 2.0
        kraus[0][0, 0] = 2.0
        kraus[1] = np.ones((2, 2))
        kraus.append(np.eye(2))
        assert np.array_equal(ch.kraus, [np.eye(2), np.zeros((2, 2))])

    def test_direct_construction_stacks_its_sequence(self):
        ops = (np.eye(2), np.zeros((2, 2)))
        ch = KrausChannel(2, ops)
        assert ch.kraus.shape == (2, 2, 2) and ch.kraus.dtype == complex
        assert not ch.kraus.flags.writeable
        assert ch.closure_residual() == 0.0


class TestApply:
    def test_identity_channel(self):
        ch = KrausChannel.build([np.eye(2)])
        a = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
        assert np.allclose(apply(ch, a), a)

    def test_first_entry_channel_by_hand(self):
        # sum_a K^dagger E_kl K expands to <e1|E_kl|e1> 1 on each matrix unit
        ch = depolarize_to_first_entry()
        for k in range(2):
            for l in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[k, l] = 1.0
                expected = unit[0, 0] * np.eye(2)
                assert np.allclose(apply(ch, unit), expected, atol=1e-15)

    def test_unital(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ch = random_channel(int(rng.integers(2, 5)), int(rng.integers(1, 4)), rng)
            assert np.linalg.norm(apply(ch, np.eye(ch.dim)) - np.eye(ch.dim)) <= 1e-10

    def test_preserves_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            ch = random_channel(d, 3, rng)
            out = apply(ch, random_psd(d, rng))
            assert np.linalg.eigvalsh(out)[0] >= -1e-9

    @pytest.mark.parametrize("d", [2, 4, 16])
    @pytest.mark.parametrize("n_kraus", [1, 3, 17])
    def test_stack_equals_per_matrix_loop_bit_for_bit(self, d, n_kraus):
        rng = np.random.default_rng([8, d, n_kraus])
        ch = random_channel(d, n_kraus, rng)
        stack = np.stack([random_hermitian(d, rng) for _ in range(5)])
        stack[1] += 0.3j * rng.standard_normal((d, d))  # one non-Hermitian input too
        out = apply(ch, stack)
        assert out.shape == stack.shape
        for a, b in zip(stack, out):
            assert np.array_equal(apply(ch, a), b)
            loop = np.zeros_like(a)  # the reference: a running sum from zero
            for k in ch.kraus:
                loop += k.conj().T @ a @ k
            assert hermitian_part(loop).tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", [(3, 2, 3), (2, 3, 2), (3, 3, 3, 3)])
    def test_stack_of_non_square_matrices_raises(self, shape):
        ch = KrausChannel.build([np.eye(3)])
        with pytest.raises(DimensionMismatch):
            apply(ch, np.ones(shape))

    def test_stack_of_another_dimension_raises(self):
        with pytest.raises(DimensionMismatch):
            apply(KrausChannel.build([np.eye(3)]), np.ones((4, 2, 2)))

    def test_non_finite_stack_raises(self):
        stack = np.ones((3, 2, 2), dtype=complex)
        stack[2, 1, 0] = np.inf
        with pytest.raises(InvalidMatrix):
            apply(KrausChannel.build([np.eye(2)]), stack)

    def test_nan_in_a_stack_is_worded_as_for_one_matrix(self):
        stack = np.ones((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = np.nan
        with pytest.raises(InvalidMatrix, match="^matrix has non-finite entries$"):
            apply(KrausChannel.build([np.eye(2)]), stack)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((2, 2, 3), r"^expected a square matrix, got shape \(2, 3\)$"),
            ((2, 0, 0), r"^expected a square matrix, got shape \(0, 0\)$"),
            ((2, 2, 2, 2), r"^expected a square matrix, got shape \(2, 2, 2, 2\)$"),
        ],
    )
    def test_non_square_stack_is_worded_as_for_one_matrix(self, shape, message):
        # a non-finite entry does not take precedence over the shape
        stack = np.full(shape, np.nan, dtype=complex)
        with pytest.raises(DimensionMismatch, match=message):
            apply(KrausChannel.build([np.eye(2)]), stack)


class TestApplyToPovm:
    """A channel maps a POVM element-wise; unitality preserves the closure relation."""

    def test_identity(self):
        p = random_povm("strict-quasi-qubit", 3, 4, 0)
        q = validate(apply(KrausChannel.build([np.eye(3)]), p.matrices))
        for a, b in zip(p.elements, q.elements):
            assert np.allclose(a.matrix, b.matrix)

    def test_unitary_conjugation_keeps_classification(self):
        rng = np.random.default_rng(2)
        p = random_povm("strict-quasi-qubit", 3, 4, rng)
        u = haar_unitary(3, rng)
        q = validate(apply(KrausChannel.build([u]), p.matrices))
        assert classify(q).kind is classify(p).kind
        for a, b in zip(p.elements, q.elements):
            assert np.allclose(b.matrix, u.conj().T @ a.matrix @ u, atol=1e-12)

    def test_degrading_channel_hits_scalar_target(self):
        # E(Q) for Q = {diag(0.5, 1), diag(0.5, 0)} lands on {0.5 1, 0.5 1}
        q = validate([np.diag([0.5, 1.0]).astype(complex), np.diag([0.5, 0.0]).astype(complex)])
        p = validate(apply(depolarize_to_first_entry(), q.matrices))
        assert np.allclose(p.elements[0].matrix, 0.5 * np.eye(2))
        assert np.allclose(p.elements[1].matrix, 0.5 * np.eye(2))


class TestNorms:
    def test_induced_norm_values(self):
        # the HS-to-HS norm of a superoperator is the spectral norm of its matrix
        u = haar_unitary(3, np.random.default_rng(0))
        assert np.linalg.norm(superop_matrix([u]), 2) == pytest.approx(1.0)
        assert np.linalg.norm(2 * superop_matrix([u]), 2) == pytest.approx(2.0)


class TestFBound:
    def test_zero(self):
        b = f_bound(0.0, 2)
        assert b.f_eps == 0.0
        assert b.inverse_norm_bound == 0.0

    def test_direct_evaluation_d2(self):
        b = f_bound(0.1, 2)
        assert b.f_eps == pytest.approx(2 * (1 + np.sqrt(2)) * 0.1 + 2 * 0.01)
        assert b.f_eps == pytest.approx(0.502842712, abs=1e-9)
        assert b.inverse_norm_bound == pytest.approx(b.f_eps / (1 - b.f_eps))

    def test_no_inverse_bound_beyond_one(self):
        b = f_bound(0.5, 4)
        assert b.f_eps == pytest.approx(3.5)
        assert b.inverse_norm_bound is None


class TestInvertPositiveMap:
    def test_identity_channel(self):
        handle = invert_positive_map(KrausChannel.build([np.eye(2)]))
        target = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
        assert np.allclose(handle.solve(target), target)

    def test_projector_mixing_closed_form(self):
        eps = 0.2
        ch = KrausChannel.build(
            [eps * np.diag([1.0, 0.0]), eps * np.diag([0.0, 1.0]), np.sqrt(1 - eps**2) * np.eye(2)]
        )
        handle = invert_positive_map(ch)
        target = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        a = handle.solve(target)
        expected = np.array([[0.5, 0.1 / (1 - eps**2)], [0.1 / (1 - eps**2), 0.5]])
        assert np.allclose(a, expected, atol=1e-12)

    def test_singular_channel_raises(self):
        with pytest.raises(SingularSuperop):
            invert_positive_map(depolarize_to_first_entry())

    def test_hermitian_targets_give_hermitian_solutions(self):
        rng = np.random.default_rng(14)
        ch = near_identity_channel(3, 0.02, rng)
        handle = invert_positive_map(ch)
        a = handle.solve(random_hermitian(3, rng))
        assert np.allclose(a, a.conj().T)


class TestSpectrumWidth:
    def test_identity_channel_equal_spectra(self):
        ch = KrausChannel.build([np.eye(2)])
        x = np.diag([0.2, 0.9]).astype(complex)
        report = spectrum_width_check(ch, x)
        assert report.ok
        assert report.output_min == pytest.approx(report.input_min)
        assert report.output_max == pytest.approx(report.input_max)

    def test_unitary_conjugation_equal_spectra(self):
        u = haar_unitary(3, np.random.default_rng(0))
        ch = KrausChannel.build([u])
        x = random_hermitian(3, np.random.default_rng(1))
        report = spectrum_width_check(ch, x)
        assert report.ok
        assert report.output_min == pytest.approx(report.input_min, abs=1e-12)

    def test_monte_carlo_never_widens(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = int(rng.integers(2, 5))
            ch = random_channel(d, int(rng.integers(1, 4)), rng)
            assert spectrum_width_check(ch, random_hermitian(d, rng)).ok


class TestNearIdentityChannel:
    def test_distance_is_exact(self):
        rng = np.random.default_rng(8)
        ch = near_identity_channel(3, 0.04, rng)
        assert np.linalg.norm(np.eye(3) - ch.kraus[0]) == pytest.approx(0.04, abs=1e-12)
        assert ch.closure_residual() <= 1e-9

    def test_distance_bound_holds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            eps = float(rng.uniform(0.001, 0.05))
            ch = near_identity_channel(d, eps, rng)
            deviation = np.linalg.norm(superop_matrix(ch.kraus) - np.eye(d * d), 2)
            assert deviation <= f_bound(eps, d).f_eps + 1e-10
