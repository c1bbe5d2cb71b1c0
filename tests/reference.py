"""Reference routes for the test suite: superoperator solve, near-identity bound, spectrum check.

None of these plays a part in a verdict or a witness. The tests use them as
independent checks: the d^2 x d^2 linear solve against case d's block
inverse, the near-identity bound against sampled channels, and the
spectrum-width check against channels and built witnesses. The gated
Hermitian eigendecomposition and PSD square root serve the samplers and the
spectrum check.

Operator vectorization is row-major, ``A.reshape(-1)``, so
``vec(X @ A @ Y) = kron(X, Y.T) @ vec(A)``.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from cleanpovm.channel import KrausChannel, apply
from cleanpovm.errors import NonHermitianInput, NotPsd
from cleanpovm.linalg import HERM_TOL, PSD_TOL, as_operator, fro_norms, hermitian_part

SOLVE_RESIDUAL_TOL = 1e-8  # the round-trip residual superop_solve accepts
SPECTRUM_SLACK = 1e-10  # the noise spectrum_width_check forgives at each end


def eig_hermitian(matrix):
    """Eigendecomposition of a (numerically) Hermitian matrix.

    The input is symmetrized first; asymmetry beyond the hermiticity gate
    is an error, below it is silently repaired.
    Returns eigenvalues ascending and orthonormal eigenvector columns.
    """
    a = as_operator(matrix)
    size, asym = fro_norms(np.concatenate([a, a - a.conj().T]).reshape(2, -1)).tolist()
    scale = max(1.0, size)
    if asym > HERM_TOL * scale:
        raise NonHermitianInput(
            f"asymmetry {asym:.3e} exceeds {HERM_TOL:.1e} * {scale:.3e}"
        )
    w, v = np.linalg.eigh(hermitian_part(a))
    return w, v


def psd_sqrt(matrix) -> np.ndarray:
    """Hermitian PSD square root; negative eigenvalues within the PSD gate are clamped."""
    w, v = eig_hermitian(matrix)
    lam_max = max(float(w[-1]), 0.0)
    if w[0] < -PSD_TOL * max(1.0, lam_max):
        raise NotPsd(
            f"minimum eigenvalue {w[0]:.3e} below -{PSD_TOL:.1e} * {max(1.0, lam_max):.3e}",
            min_eigenvalue=float(w[0]),
        )
    w = np.maximum(w, 0.0)  # what np.clip(w, 0.0, None) calls
    return hermitian_part((v * np.sqrt(w)) @ v.conj().T)


class SingularSuperop(ArithmeticError):
    """Superoperator linear system is singular or numerically unusable."""


def superop_matrix(kraus) -> np.ndarray:
    """d^2 x d^2 matrix of ``A -> sum_a K_a^dagger A K_a`` in the row-major vec convention."""
    return sum(np.kron(k.conj().T, k.T) for k in np.asarray(kraus, dtype=complex))


def superop_solve(superop, target) -> np.ndarray:
    """Solve ``E(A) = target`` for A given the d^2 x d^2 superoperator matrix of E.

    ``target`` is one d x d matrix or an ``(m, d, d)`` stack, solved with a
    single factorization. Each solution must be finite and reproduce its
    target to ``SOLVE_RESIDUAL_TOL`` relative to ``max(1, ||target||)``, else
    :class:`SingularSuperop` is raised. The solutions are re-Hermitized.
    """
    s = np.asarray(superop, dtype=complex)
    t = np.asarray(target, dtype=complex)
    d = t.shape[-1]
    rhs = np.ascontiguousarray(t.reshape(-1, d * d).T)  # one vec(target) per column
    try:
        x = np.linalg.solve(s, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSuperop(f"linear solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSuperop("linear solve produced non-finite values")
    residual = np.linalg.norm(s @ x - rhs, axis=0)
    worst = float(np.max(residual / np.maximum(1.0, np.linalg.norm(rhs, axis=0))))
    if worst > SOLVE_RESIDUAL_TOL:
        raise SingularSuperop(f"round-trip residual {worst:.3e} exceeds {SOLVE_RESIDUAL_TOL:.1e}")
    return hermitian_part(x.T.reshape(t.shape))


@dataclass(frozen=True)
class NearIdentityBound:
    """Distance bound for a channel with a Kraus operator eps-close to the identity.

    ``f_eps = 2 (1 + sqrt(d)) eps + 2 eps^2`` bounds ``||E - 1||`` in the
    HS-induced norm; when ``f_eps < 1`` the channel is invertible as a linear
    map and ``||E^-1 - 1|| <= f_eps / (1 - f_eps)``.
    """

    epsilon: float
    f_eps: float
    inverse_norm_bound: Optional[float]


def f_bound(epsilon: float, dim: int) -> NearIdentityBound:
    f = 2.0 * (1.0 + math.sqrt(dim)) * epsilon + 2.0 * epsilon**2
    inverse = f / (1.0 - f) if f < 1.0 else None
    return NearIdentityBound(float(epsilon), float(f), inverse)


@dataclass(frozen=True, eq=False)
class PositiveMapInverse:
    """Solver handle for E(A) = B; constructed by :func:`invert_positive_map`."""

    superop: np.ndarray

    def solve(self, target) -> np.ndarray:
        """Solve ``E(A) = target`` for one target or a stack; see :func:`superop_solve`."""
        return superop_solve(self.superop, target)


def invert_positive_map(channel: KrausChannel) -> PositiveMapInverse:
    """Invertible-map handle for the channel, certified on the identity probe.

    A direct d^2 x d^2 linear solve, never a Neumann series: it works whenever
    the superoperator is numerically nonsingular, whether or not the
    near-identity bound :func:`f_bound` applies.
    """
    handle = PositiveMapInverse(superop_matrix(channel.kraus))
    probe = handle.solve(np.eye(channel.dim))  # E is unital, so E^-1(1) = 1
    if np.linalg.norm(probe - np.eye(channel.dim)) > SOLVE_RESIDUAL_TOL:
        raise SingularSuperop("identity probe failed; map is not reliably invertible")
    return handle


@dataclass(frozen=True)
class SpectrumWidthReport:
    """Extreme eigenvalues of X and E(X); channels may only narrow the spectrum."""

    input_min: float
    input_max: float
    output_min: float
    output_max: float

    @property
    def ok(self) -> bool:
        return (
            self.output_min >= self.input_min - SPECTRUM_SLACK
            and self.output_max <= self.input_max + SPECTRUM_SLACK
        )


def spectrum_width_check(channel: KrausChannel, operator) -> SpectrumWidthReport:
    """Whether the channel kept E(X) inside the spectrum of a Hermitian X.

    A violation beyond :data:`SPECTRUM_SLACK` indicates a broken channel (or
    a bug), never a property of a valid channel.
    """
    w_in, _ = eig_hermitian(operator)
    w_out = np.linalg.eigvalsh(apply(channel, operator))
    return SpectrumWidthReport(float(w_in[0]), float(w_in[-1]), float(w_out[0]), float(w_out[-1]))
