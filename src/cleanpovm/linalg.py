"""Dense complex linear algebra sized for operators on C^d with d <= ~16.

Conventions fixed here and used everywhere else in the package:

* matrices are numpy ``complex128`` arrays;
* support geometry has one dependence rule, applied by :func:`support_frame`:
  a vector lies in the span of a set iff its residual against that span is
  at most ``tol.rank`` times its own norm. It decides every subspace basis
  and dimension and every supplementarity test of the cleanness decision
  and the witness constructions; the nullspace oracle's SVD cuts are the
  only other rank cut on a family of kets, kept apart as the independent
  cross-check.
  :class:`Tolerances` lists how every other threshold is scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix


#: The fixed gates of :class:`Tolerances`.
HERM_TOL = PSD_TOL = CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """The two settable tolerances, each finite and nonnegative, and the fixed gates.

    * ``HERM_TOL``: ``||A - A^dagger||_F <= HERM_TOL * max(1, ||A||_F)``.
    * ``PSD_TOL``: ``lambda_min >= -PSD_TOL * max(1, lambda_max)``.
    * ``CLOSURE_TOL``: absolute, ``||sum_i P_i - 1||_F <= CLOSURE_TOL`` (and Kraus).
    * ``rank``: an element's rank counts eigenvalues above ``rank *
      lambda_max``; :func:`support_frame` decides every subspace basis and
      supplementarity test of support geometry, and every ket membership
      test (:func:`in_span`) applies the same rule. The only other rank
      cuts on kets are the nullspace oracle's SVDs, which count singular
      values above ``rank * s_max``: it keeps its eigenvalue form when
      every singular value lies more than 4 decades from the cut, and
      otherwise (always when ``rank >= 1e-4``) falls back to the d^2-column
      system.
    * ``zero``: ``validate``'s zero gate is absolute, ``||P_i||_F <= zero``;
      scalar and off-diagonal tests compare with ``zero * max(1, ||P_i||_F)``.
    """

    rank: float = 1e-8
    zero: float = 1e-8

    def __post_init__(self):
        for name in ("rank", "zero"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"tolerance {name!r} must be finite and nonnegative")


DEFAULT_TOL = Tolerances()


def as_operator(matrix) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def as_ket(vector, dim=None) -> np.ndarray:
    """Coerce to a finite complex vector, optionally of a fixed dimension."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected a vector of dimension {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise InvalidMatrix("vector has non-finite entries")
    return v


def fro_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix (or ket) of a stack, in one ``vecdot`` pass.

    Summed as ``np.linalg.norm`` sums a single matrix (real and imaginary
    dot products of the flattened entries), so every tolerance comparison
    decides exactly as a per-matrix norm would.
    """
    flat = stack.reshape(len(stack), -1) if stack.ndim > 2 else stack
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def hermitian_part(matrix) -> np.ndarray:
    """Hermitian part ``(A + A^dagger) / 2`` of a matrix or of each matrix in a stack."""
    a = np.asarray(matrix, dtype=complex)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


class SupportFrame(NamedTuple):
    """A ket family read under the one dependence rule; see :func:`support_frame`."""

    selected: tuple[int, ...]
    q: np.ndarray
    spans: tuple[tuple[int, ...], ...]


def support_frame(kets, tol: Tolerances = DEFAULT_TOL) -> SupportFrame:
    """Basis, orthonormal span and per-ket spans of a nonempty family of kets.

    One rule makes every dependence decision: a vector lies in the span of a
    set iff its residual against that span is at most ``tol.rank`` times its
    own norm.

    * ``selected``: a basis, greedy in input order: a ket joins unless it
      lies in the span of those already selected (two-pass Gram-Schmidt).
    * ``q``: orthonormal columns spanning the selected kets.
    * ``spans[j]``: the basis positions (indices into ``selected``) whose span
      holds ket j: its own position for a selected ket, else the shortest
      prefix of the positions, ordered by the size ``|c_p| * ||ket_p||`` of
      its components, whose span holds it.
    """
    k = np.asarray(kets, dtype=complex)
    if k.ndim != 2 or not np.isfinite(k).all():
        raise InvalidMatrix("expected a nonempty family of finite kets of one dimension")
    n, d = k.shape
    k = k.T  # one ket per column
    norms = np.linalg.norm(k, axis=0)
    cuts = tol.rank * norms
    selected: list[int] = []
    q = np.zeros((d, d), dtype=complex)  # columns past len(selected) stay zero
    proj = np.zeros((d, d), dtype=complex)  # q q^dagger
    for j, cut in enumerate(cuts.tolist()):
        r = k[:, j]
        r = r - proj.dot(r)  # ndarray.dot: the product @ takes, with less call overhead
        r -= proj.dot(r)  # the second pass keeps q orthonormal
        residual = math.sqrt(np.vdot(r, r).real)
        if residual > cut:
            u = r / residual
            q[:, len(selected)] = u
            proj += u[:, None] * u.conj()  # np.outer's product
            selected.append(j)
            if len(selected) == d:
                break
    rank = len(selected)
    q = q[:, :rank]

    spans = {j: (pos,) for pos, j in enumerate(selected)}
    others = sorted(set(range(n)).difference(selected))
    if others:
        basis, rest, qh = k[:, selected], k[:, others], q.conj().T
        coords = np.linalg.solve(qh @ basis, qh @ rest)
        order = np.argsort(-np.abs(coords) * norms[selected, None], axis=0, kind="stable").T
        # R of [reordered basis | ket] (its raw factor: mode "r" only adds triu) ends in
        # the ket's coordinates along an orthonormal basis built prefix by prefix; its
        # tail norms are the residuals against the prefixes, and they never increase.
        stacked = np.concatenate([basis.T[order], rest.T[:, None]], axis=1).swapaxes(-1, -2)
        y = np.abs(np.linalg.qr(stacked, mode="raw")[0][..., -1, : min(d, rank + 1)]) ** 2
        tails = np.sqrt(np.cumsum(y[:, ::-1], axis=1)[:, ::-1])
        held = (tails[:, 1:rank] <= cuts[others, None]).sum(axis=1)
        for j, ranked, size in zip(others, order.tolist(), (rank - held).tolist()):
            spans[j] = tuple(sorted(ranked[:size]))
    return SupportFrame(tuple(selected), q, tuple(spans[j] for j in range(n)))


def in_span(kets, basis: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Whether each ket lies in the span of the orthonormal columns of ``basis``.

    The rule of :func:`support_frame`: the ket's residual against the span is
    at most ``tol.rank`` times its own norm. ``kets`` is one ket or a family
    of kets, one per row; the result holds one flag per ket.
    """
    k = np.asarray(kets, dtype=complex).reshape(-1, basis.shape[0]).T  # one ket per column
    both = np.concatenate([k - basis @ (basis.conj().T @ k), k], axis=1).T  # one per row
    residual, size = fro_norms(both).reshape(2, -1)
    return residual <= tol.rank * size


def orthonormal_complement(q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span of ``q``.

    ``q`` must already have orthonormal columns. A stack ``(..., d, k)``
    gives one complement per matrix from a single SVD call, each equal to
    the complement of that matrix alone.
    """
    d, k = q.shape[-2:]
    if k == 0:
        return np.broadcast_to(np.eye(d, dtype=complex), (*q.shape[:-1], d)).copy()
    u, _, _ = np.linalg.svd(q, full_matrices=True)
    return u[..., k:]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Ginibre matrix)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = r.diagonal()
    return q * (phases / np.abs(phases))


def random_psd(dim: int, rng: np.random.Generator, ridge: float = 0.0, count=None) -> np.ndarray:
    """Random positive semidefinite matrix; ``ridge`` adds a multiple of the identity.
    With ``count``, a stack of that many, each as ``count`` one-matrix calls draw it."""
    z = rng.standard_normal((2, dim, dim) if count is None else (count, 2, dim, dim))
    z = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)
    return hermitian_part(z @ z.conj().swapaxes(-1, -2)) + ridge * np.eye(dim)
