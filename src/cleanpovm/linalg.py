"""Dense complex linear algebra sized for operators on C^d with d <= ~16.

Conventions fixed here and used everywhere else in the package:

* matrices are numpy ``complex128`` arrays;
* operator vectorization is **row-major**: ``vec(A)[i*d + j] = A[i, j]``,
  so ``vec(X @ A @ Y) = kron(X, Y.T) @ vec(A)``;
* every rank / zero decision is relative, scaled by the largest magnitude
  in play, never absolute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMatrix,
    NonHermitianInput,
    NotPsd,
    SingularBasis,
    SingularSuperop,
)


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle for all numeric decisions.

    ``rank`` and ``zero`` are relative thresholds (scaled by the largest
    singular value / coefficient in play); ``herm``, ``psd`` and ``closure``
    are relative to ``max(1, scale)`` of the operator; ``eig`` and ``orth``
    bound reconstruction and orthonormality residuals.
    """

    herm: float = 1e-9
    psd: float = 1e-9
    closure: float = 1e-9
    rank: float = 1e-8
    zero: float = 1e-8
    eig: float = 1e-10
    orth: float = 1e-10

    def __post_init__(self):
        for name in ("herm", "psd", "closure", "rank", "zero", "eig", "orth"):
            if getattr(self, name) < 0:
                raise ValueError(f"tolerance {name!r} must be nonnegative")


DEFAULT_TOL = Tolerances()


def as_operator(matrix) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def as_ket(vector, dim=None) -> np.ndarray:
    """Coerce to a finite complex vector, optionally of a fixed dimension."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected a vector of dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise InvalidMatrix("vector has non-finite entries")
    return v


def hermitian_part(matrix) -> np.ndarray:
    """Hermitian part ``(A + A^dagger) / 2`` of a matrix or of each matrix in a stack."""
    a = np.asarray(matrix, dtype=complex)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def eig_hermitian(matrix, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a (numerically) Hermitian matrix.

    The input is symmetrized first; asymmetry beyond ``tol.herm`` relative
    to ``max(1, ||M||_HS)`` is an error, below it is silently repaired.
    Returns eigenvalues ascending and orthonormal eigenvector columns.
    """
    a = as_operator(matrix)
    scale = max(1.0, float(np.linalg.norm(a)))
    asym = float(np.linalg.norm(a - a.conj().T))
    if asym > tol.herm * scale:
        raise NonHermitianInput(
            f"asymmetry {asym:.3e} exceeds {tol.herm:.1e} * {scale:.3e}"
        )
    w, v = np.linalg.eigh(hermitian_part(a))
    return w, v


def greedy_basis_subset(vectors, tol: Tolerances = DEFAULT_TOL) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in input order.

    A vector is accepted iff its residual after projecting out the span of
    the previously accepted vectors exceeds ``tol.rank`` times its own norm.
    """
    accepted: list[np.ndarray] = []
    indices: list[int] = []
    for i, vector in enumerate(vectors):
        v = as_ket(vector)
        r = v.copy()
        for _ in range(2):  # second pass keeps the running basis orthonormal
            for b in accepted:
                r = r - b * (b.conj() @ r)
        if np.linalg.norm(r) > tol.rank * np.linalg.norm(v):
            indices.append(i)
            accepted.append(r / np.linalg.norm(r))
    return indices


def coords_in_basis(vector, basis, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Coefficients of ``vector`` in a (full) basis of C^d.

    Coefficients at or below ``tol.zero`` times the largest coefficient
    magnitude are reported as exactly zero.
    """
    b = np.column_stack([as_ket(k) for k in basis]) if not isinstance(basis, np.ndarray) else np.asarray(basis, complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"basis matrix must be square, got {b.shape}")
    v = as_ket(vector, b.shape[0])
    s = np.linalg.svd(b, compute_uv=False)
    if s[0] == 0 or s[-1] <= tol.rank * s[0]:
        raise SingularBasis(f"basis condition {s[0]:.3e}/{s[-1]:.3e} at rank tol {tol.rank:.1e}")
    c = np.linalg.solve(b, v)
    residual = float(np.linalg.norm(b @ c - v))
    if residual > max(tol.eig * np.linalg.norm(v), 1e2 * np.finfo(float).eps):
        raise SingularBasis(f"expansion residual {residual:.3e} too large")
    top = np.abs(c).max()
    if top > 0:
        c[np.abs(c) <= tol.zero * top] = 0.0
    return c


def psd_sqrt(matrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root; negative eigenvalues within tolerance are clamped."""
    w, v = eig_hermitian(matrix, tol)
    lam_max = max(float(w[-1]), 0.0)
    if w[0] < -tol.psd * max(1.0, lam_max):
        raise NotPsd(
            f"minimum eigenvalue {w[0]:.3e} below -{tol.psd:.1e} * {max(1.0, lam_max):.3e}",
            min_eigenvalue=float(w[0]),
        )
    w = np.clip(w, 0.0, None)
    return hermitian_part((v * np.sqrt(w)) @ v.conj().T)


def vec(matrix) -> np.ndarray:
    """Row-major flattening of an operator."""
    return np.asarray(matrix, dtype=complex).reshape(-1)


def unvec(x, dim: int) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(dim, dim)


def superop_matrix(kraus) -> np.ndarray:
    """d^2 x d^2 matrix of ``A -> sum_a K_a^dagger A K_a`` in the row-major vec convention."""
    ops = [as_operator(k) for k in kraus]
    if not ops:
        raise DimensionMismatch("empty Kraus list")
    d = ops[0].shape[0]
    if any(k.shape != (d, d) for k in ops):
        raise DimensionMismatch("Kraus operators have mixed dimensions")
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        s += np.kron(k.conj().T, k.T)
    return s


def superop_solve(superop, target, residual_tol: float = 1e-8) -> np.ndarray:
    """Solve ``E(A) = target`` for A given the d^2 x d^2 superoperator matrix of E.

    ``target`` is one d x d matrix or an ``(m, d, d)`` stack, solved with a
    single factorization. Each solution must be finite and reproduce its
    target to ``residual_tol`` relative to ``max(1, ||target||)``, else
    :class:`SingularSuperop` is raised. The solutions are re-Hermitized; for
    an invertible positivity-preserving map this is exact because such maps
    send Hermitian to Hermitian.
    """
    s = np.asarray(superop, dtype=complex)
    t = np.asarray(target, dtype=complex)
    d = t.shape[-1] if t.ndim in (2, 3) else 0
    if d < 1 or t.shape[-2] != d or s.shape != (d * d, d * d):
        raise DimensionMismatch(f"superoperator shape {s.shape} does not match targets {t.shape}")
    rhs = np.ascontiguousarray(t.reshape(-1, d * d).T)  # one vec(target) per column
    try:
        x = np.linalg.solve(s, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSuperop(f"linear solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSuperop("linear solve produced non-finite values")
    residual = np.linalg.norm(s @ x - rhs, axis=0)
    worst = float(np.max(residual / np.maximum(1.0, np.linalg.norm(rhs, axis=0))))
    if worst > residual_tol:
        raise SingularSuperop(f"round-trip residual {worst:.3e} exceeds {residual_tol:.1e}")
    return hermitian_part(x.T.reshape(t.shape))


def orthonormal_columns(vectors, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the given vectors."""
    m = vectors if isinstance(vectors, np.ndarray) else np.column_stack([as_ket(v) for v in vectors])
    if m.ndim != 2:
        raise DimensionMismatch("expected a matrix of column vectors")
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    rank = int(np.sum(s > tol.rank * s[0]))
    return u[:, :rank]


def orthonormal_complement(q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span of ``q``.

    ``q`` must already have orthonormal columns.
    """
    d = q.shape[0]
    k = q.shape[1]
    if k == 0:
        return np.eye(d, dtype=complex)
    u, _, _ = np.linalg.svd(q, full_matrices=True)
    return u[:, k:]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Ginibre matrix)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(z)


def random_psd(dim: int, rng: np.random.Generator, ridge: float = 0.0) -> np.ndarray:
    """Random positive semidefinite matrix; ``ridge`` adds a multiple of the identity."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return hermitian_part(z @ z.conj().T) + ridge * np.eye(dim)
