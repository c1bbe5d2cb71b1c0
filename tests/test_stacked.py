"""Every stacked form on the fuzz path equals its per-element loop, byte for byte.

Each test runs the loop the stacked form replaced (one matrix, ket or draw
at a time, as ``np.outer``, ``np.linalg.norm``, Python ``sum`` and
``rng.choice`` compute them) next to the stacked call, and compares
``tobytes()``. Decisions read off norms (``in_span``, the block-diagonal
flags) are compared as decisions.
"""

import dataclasses

import numpy as np
import pytest

from cleanpovm import fuzz, povm as povm_module
from cleanpovm.channel import KrausChannel
from cleanpovm.cleanness import scalar_weights
from cleanpovm.errors import DimensionMismatch, InvalidMatrix
from cleanpovm.linalg import (
    DEFAULT_TOL,
    fro_norms,
    haar_unitary,
    hermitian_part,
    in_span,
    random_psd,
    support_frame,
)
from cleanpovm.povm import random_povm, random_split_povm, validate
from cleanpovm.witness import case_b_kraus, case_b_widen_map
from reference import eig_hermitian, psd_sqrt

DIMS = (2, 3, 4, 8, 16)


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def loop_psd(dim, rng, ridge=0.0):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return hermitian_part(z @ z.conj().T) + ridge * np.eye(dim)


def loop_close(parts, dim, rng):
    """The remainder closure, one matrix at a time, summed with Python ``sum``."""
    lam = float(np.linalg.eigvalsh(sum(parts))[-1])
    parts = [(0.9 / lam) * p for p in parts]
    mats = parts + [np.eye(dim) - sum(parts)]
    return validate([mats[i] for i in rng.permutation(len(mats))])


def loop_projector(v, weight):
    ket = v / np.linalg.norm(v)
    return weight * np.outer(ket, ket.conj())


def loop_strict(d, n, rng, n_rank_one):
    kets = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n_rank_one)]
    parts = [loop_projector(v, rng.uniform(0.2, 1.0)) for v in kets]
    parts += [loop_psd(d, rng, 0.05) for _ in range(n - 1 - n_rank_one)]
    return loop_close(parts, d, rng)


def loop_split(d, k, n_v, n_w, rng, oblique=False, block_diagonal=False, n_extra_full=0):
    u = haar_unitary(d, rng)
    v_basis, w_basis = u[:, :k], u[:, k:]
    if oblique:
        tilt = 0.4 * (rng.standard_normal((k, d - k)) + 1j * rng.standard_normal((k, d - k)))
        w_basis = w_basis + v_basis @ tilt
        w_basis = w_basis / np.linalg.norm(w_basis, axis=0)
    parts = []
    for basis, count in ((v_basis, n_v), (w_basis, n_w)):
        for _ in range(count):
            c = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
            parts.append(loop_projector(basis @ c, rng.uniform(0.2, 1.0)))
    for _ in range(n_extra_full):
        if block_diagonal:
            blk = np.zeros((d, d), dtype=complex)
            blk[:k, :k] = loop_psd(k, rng, 0.05)
            blk[k:, k:] = loop_psd(d - k, rng, 0.05)
            parts.append(u @ blk @ u.conj().T)
        else:
            parts.append(loop_psd(d, rng, 0.05))
    return loop_close(parts, d, rng)


def same_povm(p, q) -> bool:
    return same(p.matrices, q.matrices) and same(p.eigenvalues, q.eigenvalues) and all(
        same(a.eigenvectors, b.eigenvectors) and (a.support is None) == (b.support is None)
        and (a.support is None or same(a.support, b.support))
        for a, b in zip(p.elements, q.elements)
    )


class TestGenerator:
    def test_scenario_draw_equals_rng_choice(self):
        names = [s for s, _ in fuzz._SCENARIOS]
        weights = np.array([w for _, w in fuzz._SCENARIOS])
        for seed in range(2000):
            ours, theirs = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 0])
            pick = fuzz._NAMES[int(fuzz._CDF.searchsorted(ours.random(), side="right"))]
            assert pick == str(theirs.choice(names, p=weights / weights.sum()))
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("d", DIMS)
    def test_psd_stack_equals_loop(self, d):
        ours, theirs = np.random.default_rng([1, d]), np.random.default_rng([1, d])
        assert same(random_psd(d, ours, 0.05, 4), [loop_psd(d, theirs, 0.05) for _ in range(4)])
        assert same(random_psd(d, ours), loop_psd(d, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("d", DIMS)
    def test_weighted_projectors_equal_loop(self, d):
        rng = np.random.default_rng([2, d])
        v = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
        v[1, 0] = 0.0  # a zero amplitude keeps its sign of zero too
        w = rng.uniform(0.2, 1.0, 5)
        stacked = povm_module._weighted_projectors(v, w)
        assert same(stacked, [loop_projector(x, float(y)) for x, y in zip(v, w)])

    @pytest.mark.parametrize("d", DIMS)
    def test_close_with_remainder_equals_python_sums(self, d):
        parts = random_psd(d, np.random.default_rng([3, d]), 0.05, 3)
        ours, theirs = np.random.default_rng([4, d]), np.random.default_rng([4, d])
        ours = povm_module._close_with_remainder(parts, d, ours)
        assert same_povm(ours, loop_close(list(parts), d, theirs))

    @pytest.mark.parametrize("d", (2, 3, 4, 8))
    def test_split_povm_equals_per_ket_loop(self, d):
        for i in range(40):
            k = 1 + i % (d - 1)
            args = (d, k, 1 + i % 3, 1 + i % 2)
            kinds = [{"oblique": True}, {"n_extra_full": 1}, {"block_diagonal": True, "n_extra_full": 1}]
            kw = kinds[i % 3]
            ours = random_split_povm(*args, np.random.default_rng([5, d, i]), **kw)
            assert same_povm(ours, loop_split(*args, np.random.default_rng([5, d, i]), **kw)), (d, i)

    @pytest.mark.parametrize("d", (2, 3, 4, 8))
    def test_strict_povm_equals_per_ket_loop(self, d):
        for n_rank_one in (1, 2, d):
            ours = random_povm("strict-quasi-qubit", d, d + 2, [6, d], n_rank_one=n_rank_one)
            theirs = loop_strict(d, d + 2, np.random.default_rng([6, d]), n_rank_one)
            assert same_povm(ours, theirs)

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_rank_one_and_scalar_povms_equal_loop(self, d):
        m = haar_unitary(d + 2, np.random.default_rng([7, d]))[:d, :]
        theirs = validate([np.outer(m[:, i], m[:, i].conj()) for i in range(d + 2)])
        assert same_povm(random_povm("rank-one", d, d + 2, [7, d]), theirs)
        mu = np.random.default_rng([8, d]).uniform(0.2, 1.0, size=3)
        mu = mu / mu.sum()
        assert same_povm(random_povm("scalar", d, 3, [8, d]), validate([x * np.eye(d) for x in mu]))


class TestPovm:
    def test_phases_equal_scalar_division(self):
        rng = np.random.default_rng(9)
        kets = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
        kets[::7] *= 1e-150  # moduli whose squares underflow
        u = kets / np.array([np.linalg.norm(k) for k in kets])[:, None]
        loop = []
        for row in u:
            z = row[np.argmax(np.abs(row))]
            loop.append(row * (z / abs(z)).conj())
        assert same(povm_module._fix_phases(kets), loop)

    def test_elements_are_frozen_and_keep_their_fields(self):
        p = random_povm("strict-quasi-qubit", 3, 4, 5, n_rank_one=2)
        names = [f.name for f in dataclasses.fields(p.elements[0])]
        assert names == ["matrix", "eigenvalues", "eigenvectors", "rank", "weight", "support"]
        for i, e in enumerate(p.elements):
            assert same(e.matrix, p.matrices[i]) and same(e.eigenvalues, p.eigenvalues[i])
            assert (e.weight is None) == (e.rank != 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                e.rank = 2

    @pytest.mark.parametrize("d", DIMS)
    def test_conjugated_copy_equals_loop(self, d):
        _, p = fuzz.random_quasi_qubit_instance(d, np.random.default_rng([10, d]))
        u = haar_unitary(d, np.random.default_rng([11, d]))
        assert same(u @ p.matrices @ u.conj().T, [u @ e.matrix @ u.conj().T for e in p.elements])


class TestLinalg:
    @pytest.mark.parametrize("d", DIMS)
    def test_support_frame_equals_gram_schmidt_loop(self, d):
        rng = np.random.default_rng([12, d])
        for n in (1, d - 1, d, d + 2):
            kets = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            if n > 2:
                kets[2] = kets[0] - 2j * kets[1]  # a dependent ket
            frame = support_frame(kets)
            q = np.zeros((d, d), dtype=complex)
            proj = np.zeros((d, d), dtype=complex)
            selected = []
            for j in range(n):
                r = kets.T[:, j]
                for _ in range(2):
                    r = r - proj @ r
                residual = np.sqrt(np.vdot(r, r).real)
                if len(selected) < d and residual > DEFAULT_TOL.rank * np.linalg.norm(kets[j]):
                    q[:, len(selected)] = r / residual
                    proj += np.outer(q[:, len(selected)], q[:, len(selected)].conj())
                    selected.append(j)
            assert frame.selected == tuple(selected)
            assert same(frame.q, q[:, : len(selected)])

    @pytest.mark.parametrize("d", DIMS)
    def test_in_span_decides_as_per_ket_norms(self, d):
        rng = np.random.default_rng([13, d])
        basis = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0][:, : d // 2]
        kets = rng.standard_normal((30, d)) + 1j * rng.standard_normal((30, d))
        kets[::2] = (basis @ kets[::2, : d // 2, None])[..., 0] + 1e-9 * kets[1::2]
        loop = [np.linalg.norm(k - basis @ (basis.conj().T @ k)) <= 1e-8 * np.linalg.norm(k) for k in kets]
        assert in_span(kets, basis).tolist() == loop

    @pytest.mark.parametrize("d", DIMS)
    def test_eig_hermitian_and_psd_sqrt_equal_the_per_norm_forms(self, d):
        rng = np.random.default_rng([14, d])
        a = random_psd(d, rng) + 1e-12 * rng.standard_normal((d, d))
        size, asym = fro_norms(np.concatenate([a, a - a.conj().T]).reshape(2, -1))
        assert (size, asym) == (np.linalg.norm(a), np.linalg.norm(a - a.conj().T))
        w, v = eig_hermitian(a)
        root = hermitian_part((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
        assert same(psd_sqrt(a), root)


class TestCleanness:
    @pytest.mark.parametrize("d", DIMS)
    def test_scalar_weights_equal_per_matrix_norms(self, d):
        rng = np.random.default_rng([18, d])
        mats = np.stack([0.3 * np.eye(d), random_psd(d, rng), 0.7 * np.eye(d) + 1e-10 * random_psd(d, rng)])
        loop = []
        for m in mats:
            mu = float(np.trace(m).real) / d
            scalar = np.linalg.norm(m - mu * np.eye(d)) <= 1e-8 * max(1.0, np.linalg.norm(m))
            loop.append(mu if scalar else None)
        assert scalar_weights(mats.astype(complex)) == loop
        assert loop[0] is not None and loop[1] is None


class TestChannel:
    @pytest.mark.parametrize("d", DIMS)
    def test_build_stacks_a_list_as_the_stack_it_equals(self, d):
        rng = np.random.default_rng([15, d])
        u = haar_unitary(d, rng)
        ops = [0.6 * u, 0.8 * np.eye(d)]
        assert same(KrausChannel.build(ops).kraus, KrausChannel.build(np.stack(ops)).kraus)
        assert same(KrausChannel.build(ops).kraus, np.stack(ops).astype(complex))

    def test_build_reads_an_iterable_that_is_not_a_sequence(self):
        ops = [0.6 * np.eye(3), 0.8 * np.eye(3)]
        assert same(KrausChannel.build(m for m in ops).kraus, KrausChannel.build(ops).kraus)

    @pytest.mark.parametrize(
        "kraus, error, message",
        [
            ([], DimensionMismatch, "a channel needs at least one Kraus operator"),
            (np.empty((0, 2, 2)), DimensionMismatch, "a channel needs at least one Kraus operator"),
            ([np.eye(2), np.eye(3)], DimensionMismatch, "Kraus operators have mixed dimensions"),
            ([np.eye(2), np.ones((2, 3))], DimensionMismatch, r"expected a square matrix, got shape \(2, 3\)"),
            ([np.eye(2), np.diag([np.nan, 1.0])], InvalidMatrix, "matrix has non-finite entries"),
            ([[1.0, 2.0]], DimensionMismatch, r"expected a square matrix, got shape \(2,\)"),
        ],
    )
    def test_build_words_a_bad_operator_as_the_per_operator_checks(self, kraus, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            KrausChannel.build(kraus)


class TestWitness:
    @pytest.mark.parametrize("d", (2, 3, 4, 8))
    def test_case_b_stacks_equal_loops(self, d):
        rng = np.random.default_rng([16, d])
        k = max(1, d // 2 - 1)
        a = np.linalg.qr(rng.standard_normal((d - k, d - k)) + 0j)[0][:, :k].conj().T
        u = haar_unitary(d, rng)
        mats = random_psd(d, rng, 0.0, 4)
        mats[:, :k, k:] = mats[:, k:, :k] = 0.0
        adapted = u.conj().T @ mats @ u
        assert same(adapted, [u.conj().T @ m @ u for m in mats])
        for eps in (0.25, 0.03125):
            widened = case_b_widen_map(adapted, a, eps)
            assert same(widened, [case_b_widen_map(m, a, eps) for m in adapted])
            for m, out in zip(adapted, widened):  # the closed form, block by block
                b, dd = m[:k, :k], m[k:, k:]
                assert same(out[:k, :k], (1.0 + eps**2) * b + eps**2 * (a @ dd @ a.conj().T))
                assert same(out[:k, k:], -eps * (a @ dd))
                assert same(out[k:, :k], out[:k, k:].conj().T) and same(out[k:, k:], dd)
            absorber = np.eye(d, dtype=complex) - sum(widened[i] for i in range(len(widened)))
            assert same(np.eye(d, dtype=complex) - widened.sum(axis=0, initial=0.0), absorber)
            kraus = case_b_kraus(a, eps)
            assert same(u @ kraus @ u.conj().T, [u @ m @ u.conj().T for m in kraus])

    @pytest.mark.parametrize("d", (2, 3, 4, 8))
    def test_case_d_kraus_products_equal_loop(self, d):
        rng = np.random.default_rng([17, d])
        u = haar_unitary(d, rng)
        r = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        stacked = u @ r.conj().swapaxes(-1, -2) @ u.conj().T
        assert same(stacked, [u @ m.conj().T @ u.conj().T for m in r])
