"""Kraus channels in the Heisenberg picture.

A channel acts on operators as ``E(A) = sum_a K_a^dagger A K_a`` with the
closure ``sum_a K_a^dagger K_a = 1`` (so E is unital: E(1) = 1). A
:class:`KrausChannel` holds its operators as one read-only ``(m, d, d)``
stack: :func:`apply` maps with it, and :meth:`KrausChannel.closure_defect`
is the one closure sum. :meth:`KrausChannel.build`, the validated
constructor, gates on it; a witness trial uses the plain constructor, and
:func:`~cleanpovm.witness.verify_witness`'s report is its one closure check.
Channels never widen the spectrum of a Hermitian operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClosureViolation, DimensionMismatch
from .linalg import CLOSURE_TOL, as_operator, hermitian_part


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Kraus channel; :meth:`build` constructs a validated one.

    ``kraus`` is one read-only ``(m, d, d)`` complex stack. The constructor
    copies whatever matrices it is given into it, once, and checks nothing.
    """

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        stack = np.array(self.kraus, dtype=complex)
        stack.setflags(write=False)
        object.__setattr__(self, "kraus", stack)

    @classmethod
    def build(cls, kraus) -> "KrausChannel":
        try:
            k = np.array(kraus, dtype=complex)
        except (TypeError, ValueError, OverflowError):  # not one stack of numbers
            k = np.empty(0)
        if not (k.ndim == 3 and len(k) and k.shape[1] == k.shape[2] >= 1 and np.isfinite(k).all()):
            ops = [as_operator(m) for m in kraus]  # words the error of the first bad operator
            if not ops or any(m.shape != ops[0].shape for m in ops):
                mixed = "Kraus operators have mixed dimensions"
                raise DimensionMismatch(mixed if ops else "a channel needs at least one Kraus operator")
            k = np.array(ops)  # good operators from an iterable that numpy does not read as a sequence
        channel = cls(k.shape[1], k)
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
