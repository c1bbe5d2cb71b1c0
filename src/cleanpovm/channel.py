"""Kraus channels in the Heisenberg picture.

A channel acts on operators as ``E(A) = sum_a K_a^dagger A K_a`` with the
closure ``sum_a K_a^dagger K_a = 1`` (so E is unital: E(1) = 1). A
:class:`KrausChannel` holds its operators as one read-only ``(m, d, d)``
stack: :func:`apply` maps with it, and :meth:`KrausChannel.closure_defect`
is the one closure sum, which :meth:`KrausChannel.build` gates on and
:func:`~cleanpovm.witness.verify_witness` reports. Channels never widen the
spectrum of a Hermitian operator. A channel with one Kraus operator close
to the identity can be inverted as a linear map on operators by a d^2 x d^2
linear solve; witness construction inverts its own channels in closed form
instead, and tests use this solve as their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BoundUnavailable,
    ClosureViolation,
    DimensionMismatch,
    NotPsd,
    SingularSuperop,
)
from .linalg import (
    CLOSURE_TOL,
    DEFAULT_TOL,
    PSD_TOL,
    SOLVE_RESIDUAL_TOL,
    Tolerances,
    as_operator,
    eig_hermitian,
    hermitian_part,
    superop_matrix,
    superop_solve,
)
from .povm import Povm, validate


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Validated Kraus channel; use :meth:`build` to construct one.

    ``kraus`` is one read-only ``(m, d, d)`` complex stack. The constructor
    stacks whatever sequence of matrices it is given into a copy, once.
    """

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        stack = np.array(self.kraus, dtype=complex)
        stack.setflags(write=False)
        object.__setattr__(self, "kraus", stack)

    @classmethod
    def build(cls, kraus) -> "KrausChannel":
        ops = [as_operator(k) for k in kraus]
        if not ops:
            raise DimensionMismatch("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise DimensionMismatch("Kraus operators have mixed dimensions")
        channel = cls(d, ops)
        residual = channel.closure_residual()
        if residual > CLOSURE_TOL:
            raise ClosureViolation(
                f"Kraus closure residual {residual:.3e} exceeds {CLOSURE_TOL:.1e}",
                residual=residual,
            )
        return channel

    def closure_defect(self) -> np.ndarray:
        """``sum_a K_a^dagger K_a - 1``, the terms summed in Kraus order from zero."""
        k = self.kraus
        total = (k.conj().swapaxes(-1, -2) @ k).sum(axis=0, initial=0.0)
        total.flat[:: self.dim + 1] -= 1.0  # the diagonal
        return total

    def closure_residual(self) -> float:
        """Frobenius norm of :meth:`closure_defect`."""
        return float(np.linalg.norm(self.closure_defect()))


def hs_norm(matrix) -> float:
    """Hilbert-Schmidt norm sqrt(sum |M_ij|^2)."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=complex)))


def apply(channel: KrausChannel, operator) -> np.ndarray:
    """Heisenberg action ``sum_a K_a^dagger A K_a``, re-Hermitized.

    ``operator`` is one matrix or an ``(n, d, d)`` stack. A stack is mapped in
    one broadcast product, and the terms are summed in Kraus order from zero,
    so that each matrix maps bit for bit as it would on its own.
    """
    a = np.asarray(operator, dtype=complex)
    if not (a.ndim in (2, 3) and a.shape[-1] == a.shape[-2] >= 1 and np.isfinite(a).all()):
        for m in a if a.ndim == 3 else (a,):
            as_operator(m)  # words the error of the first bad matrix
    if a.shape[-1] != channel.dim:
        raise DimensionMismatch(
            f"operator dimension {a.shape[-1]} does not match channel dimension {channel.dim}"
        )
    k = channel.kraus
    terms = k.conj().swapaxes(-1, -2) @ a[..., None, :, :] @ k
    return hermitian_part(terms.sum(axis=-3, initial=0.0))


def apply_to_povm(channel: KrausChannel, povm: Povm, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """Element-wise channel action; unitality preserves the closure relation."""
    if povm.dim != channel.dim:
        raise DimensionMismatch("POVM and channel dimensions differ")
    return validate(apply(channel, povm.matrices), tol, povm.labels)


def superop(channel: KrausChannel) -> np.ndarray:
    """d^2 x d^2 matrix of the channel in the row-major vec convention."""
    return superop_matrix(channel.kraus)


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
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    f = 2.0 * (1.0 + math.sqrt(dim)) * epsilon + 2.0 * epsilon**2
    inverse = f / (1.0 - f) if f < 1.0 else None
    return NearIdentityBound(float(epsilon), float(f), inverse)


def min_eig_lower_bound(operator, epsilon: float, dim: int) -> float:
    """Lower bound on the minimum eigenvalue of the inverse image E^-1(X).

    Requires X PSD and f(eps) < 1; returns
    ``lambda_min(X) - lambda_max(X) f sqrt(d) / (1 - f)``. A positive value
    certifies that the inverse image is PSD without computing it.
    """
    w, _ = eig_hermitian(operator)
    lam_min, lam_max = float(w[0]), float(w[-1])
    if lam_min < -PSD_TOL * max(1.0, lam_max):
        raise NotPsd("bound requires a PSD operator", min_eigenvalue=lam_min)
    bound = f_bound(epsilon, dim)
    if bound.f_eps >= 1.0:
        raise BoundUnavailable(f"f({epsilon}) = {bound.f_eps:.3f} >= 1")
    return lam_min - lam_max * bound.f_eps * math.sqrt(dim) / (1.0 - bound.f_eps)


@dataclass(frozen=True, eq=False)
class PositiveMapInverse:
    """Solver handle for E(A) = B; constructed by :func:`invert_positive_map`."""

    channel: KrausChannel
    superop: np.ndarray

    def solve(self, target) -> np.ndarray:
        """Solve ``E(A) = target`` for one target or a stack; see :func:`superop_solve`."""
        return superop_solve(self.superop, target)


def invert_positive_map(channel: KrausChannel) -> PositiveMapInverse:
    """Invertible-map handle for the channel, certified on the identity probe.

    The solve is a direct d^2 x d^2 linear solve, never a Neumann series, and
    works whenever the superoperator is numerically nonsingular, whether or
    not the near-identity bound :func:`f_bound` applies.
    """
    handle = PositiveMapInverse(channel, superop(channel))
    probe = handle.solve(np.eye(channel.dim))  # E is unital, so E^-1(1) = 1
    if np.linalg.norm(probe - np.eye(channel.dim)) > SOLVE_RESIDUAL_TOL:
        raise SingularSuperop("identity probe failed; map is not reliably invertible")
    return handle


SPECTRUM_SLACK = 1e-10  # the noise spectrum_width_check forgives at each end


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
    """Check that the channel did not widen the spectrum of a Hermitian operator.

    A violation beyond floating-point noise (:data:`SPECTRUM_SLACK`) indicates
    a broken channel (or a bug), never a property of a valid channel.
    """
    w_in, _ = eig_hermitian(operator)
    w_out = np.linalg.eigvalsh(apply(channel, operator))
    return SpectrumWidthReport(float(w_in[0]), float(w_in[-1]), float(w_out[0]), float(w_out[-1]))

