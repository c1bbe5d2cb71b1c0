"""Cleanness decision for quasi-qubit POVMs.

A POVM is *clean* when it is maximal under channel pre-processing: no
strictly less noisy POVM maps onto it through a channel. For quasi-qubit
POVMs (every element rank one or full rank) cleanness can be read off the
rank-one supports: the POVM is clean iff it is rank-one, or the supports pin
down the space so tightly that the only operator mapping each support into
its own line is a multiple of the identity ("totally determined").

Two independent routes to that support condition live here:

* :func:`decide_clean` — partition refinement over a support basis, merging
  the basis positions whose span holds each remaining support (spans from
  :func:`~cleanpovm.linalg.support_frame`);
* :func:`totally_determined_nullspace` — the dimension of the space of
  operators R with R psi_i colinear to psi_i for every support, solved for
  the n eigenvalues of R and, near the rank cut, as the nullspace of an
  n(d-1) x d^2 system. For spanning support families the dimension is 1
  exactly when the supports totally determine the space.

The two must agree; the test suite fuzzes that agreement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import NotQuasiQubit, SingleBlock, ZeroElement
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_ket,
    fro_norms,
    orthonormal_complement,
    support_frame,
)
from .povm import Povm, PovmClass, classify, rank_one_supports


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Disjoint blocks of basis positions encoding a direct-sum decomposition.

    ``basis_kets`` holds the d basis vectors as columns; block ``B`` encodes
    the subspace spanned by the columns at positions in ``B``. Column ``j``
    of an algorithmic partition is the support of POVM element
    ``basis_element_indices[j]``; synthetic completion columns (used for
    evidence when the supports do not span, or when there are no supports at
    all) carry ``None`` there.
    """

    basis_kets: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    basis_element_indices: tuple[Optional[int], ...]

    def __post_init__(self):
        d = self.basis_kets.shape[1]
        seen = sorted(pos for block in self.blocks for pos in block)
        if seen != list(range(d)) or any(len(b) == 0 for b in self.blocks):
            raise ValueError("blocks must partition the basis positions exactly")
        if len(self.basis_element_indices) != d:
            raise ValueError("one element index (or None) per basis column required")

    def block_element_indices(self) -> list[list[Optional[int]]]:
        """Blocks translated from basis positions to POVM element indices."""
        return [[self.basis_element_indices[j] for j in block] for block in self.blocks]


class VerdictReason(enum.Enum):
    RANK_ONE = "RankOne"
    TOTALLY_DETERMINED = "TotallyDetermined"
    SUPPORTS_DO_NOT_SPAN = "SupportsDoNotSpan"
    PARTITION_SPLIT = "PartitionSplit"
    SCALAR_ELEMENTS = "ScalarElements"
    TRIVIAL_SINGLE_OUTCOME = "TrivialSingleOutcome"


@dataclass(frozen=True, eq=False)
class CleannessVerdict:
    clean: bool
    reason: VerdictReason
    partition: Optional[BlockPartition]
    separating_pair: Optional[tuple[tuple[int, ...], tuple[int, ...]]]


def scalar_weights(matrices: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> list[Optional[float]]:
    """For each matrix of an ``(n, d, d)`` stack, the scalar mu with ``matrix = mu * 1``,
    or None if it is not scalar; all 2n norms in one ``vecdot`` pass."""
    d = matrices.shape[-1]
    mu = np.trace(matrices, axis1=1, axis2=2).real / d
    off, size = fro_norms(np.concatenate([matrices - mu[:, None, None] * np.eye(d), matrices])).reshape(2, -1)
    scalar = (off <= tol.zero * np.maximum(1.0, size)).tolist()
    return [m if ok else None for m, ok in zip(mu.tolist(), scalar)]


def _partition(basis_kets, blocks, element_indices) -> BlockPartition:
    kets = np.asarray(basis_kets, dtype=complex)
    kets.setflags(write=False)
    return BlockPartition(kets, tuple(tuple(sorted(b)) for b in blocks), tuple(element_indices))


def decide_clean(povm: Povm, tol: Tolerances = DEFAULT_TOL) -> CleannessVerdict:
    """Decide whether a quasi-qubit POVM is clean.

    The verdict carries its evidence: the final block partition for a
    partition-based outcome, and a separating pair of supplementary
    subspaces (as index sets into the partition basis) whenever the POVM is
    not clean for a support-geometry reason.

    Raises :class:`NotQuasiQubit` for POVMs outside the quasi-qubit class.
    """
    profile = classify(povm)
    if not profile.is_quasi_qubit:
        bad = [i + 1 for i, r in enumerate(profile.ranks) if r not in (1, povm.dim)]
        raise NotQuasiQubit(
            f"elements {bad} have rank outside {{1, {povm.dim}}}: ranks {profile.ranks}"
        )
    d = povm.dim

    if profile.kind is PovmClass.RANK_ONE:
        return CleannessVerdict(True, VerdictReason.RANK_ONE, None, None)
    if povm.n_outcomes == 1:
        # The only one-outcome POVM is {1}, trivially maximal.
        return CleannessVerdict(True, VerdictReason.TRIVIAL_SINGLE_OUTCOME, None, None)

    supports = rank_one_supports(povm)
    if not supports:
        return _decide_full_rank(povm, tol)

    frame = support_frame(np.array([s.ket for s in supports]), tol)
    if len(frame.selected) < d:
        return _supports_do_not_span(povm, supports, frame)

    basis = np.column_stack([supports[j].ket for j in frame.selected])
    element_of_position = [supports[j].index for j in frame.selected]
    merged: list[set[int]] = []  # a selected ket's span is its own position
    for span in map(set, frame.spans):
        touching = [b for b in merged if b & span]
        merged = [b for b in merged if not b & span] + [span.union(*touching)]
    blocks = sorted(tuple(sorted(b)) for b in merged)
    partition = _partition(basis, blocks, element_of_position)
    if len(blocks) == 1:
        return CleannessVerdict(True, VerdictReason.TOTALLY_DETERMINED, partition, None)
    first = blocks[0]
    rest = tuple(sorted(pos for block in blocks[1:] for pos in block))
    return CleannessVerdict(False, VerdictReason.PARTITION_SPLIT, partition, (first, rest))


def _decide_full_rank(povm: Povm, tol: Tolerances) -> CleannessVerdict:
    """Full-rank POVM with n >= 2: never clean; pick the evidence by shape."""
    d = povm.dim
    scalars = scalar_weights(povm.matrices, tol)
    if all(mu is not None for mu in scalars):
        return CleannessVerdict(False, VerdictReason.SCALAR_ELEMENTS, None, None)
    # A non-scalar element has distinct extreme eigenvalues; mixing their
    # eigenvectors yields a line u with <u|P|u_perp> = (lam_max - lam_min)/2 != 0,
    # so P is not block-diagonal for the split span(u) + span(u)^perp.
    i = next(j for j, mu in enumerate(scalars) if mu is None)
    element = povm.elements[i]
    v_min = element.eigenvectors[:, 0]
    v_max = element.eigenvectors[:, -1]
    u = (v_min + v_max) / np.sqrt(2.0)
    completion = orthonormal_complement(u.reshape(d, 1))
    basis = np.column_stack([u, completion])
    blocks = ((0,), tuple(range(1, d)))
    partition = _partition(basis, blocks, [None] * d)
    return CleannessVerdict(False, VerdictReason.PARTITION_SPLIT, partition, blocks)


def _supports_do_not_span(povm, supports, frame) -> CleannessVerdict:
    d = povm.dim
    chosen = [supports[j].ket for j in frame.selected]
    completion = orthonormal_complement(frame.q)
    basis = np.column_stack(chosen + [completion])
    r = len(frame.selected)
    element_indices = [supports[j].index for j in frame.selected] + [None] * (d - r)
    blocks = (tuple(range(r)), tuple(range(r, d)))
    partition = _partition(basis, blocks, element_indices)
    return CleannessVerdict(False, VerdictReason.SUPPORTS_DO_NOT_SPAN, partition, blocks)


def separating_pair(partition: BlockPartition):
    """Supplementary proper subspaces (V, W) splitting the partition.

    V is spanned by the first block's basis columns, W by all the others;
    returns (V, W) as matrices of basis columns. The witness constructions
    read V's and W's orthonormal bases, and whether V + W is supplementary,
    off :func:`~cleanpovm.linalg.support_frame`, the rule that made the
    partition, so every basis direction is kept. Which support in W an
    oblique (case ``d``) witness widens is decided per eps trial, as the one
    whose eigenvalue gains most.
    """
    if len(partition.blocks) < 2:
        raise SingleBlock("partition has a single block; no separating pair")
    first = partition.blocks[0]
    rest = [pos for block in partition.blocks[1:] for pos in block]
    return partition.basis_kets[:, list(first)], partition.basis_kets[:, sorted(rest)]


#: Below this norm a ket's squared norm is subnormal or zero.
_NORM_FLOOR = float(np.sqrt(np.finfo(float).tiny))

#: Factor (4 decades) by which every singular value of the eigenvalue form must
#: clear its rank cut, on either side, before that form's nullity is returned
#: without the d^2-column system.
_ORACLE_BAND = 1e4


def totally_determined_nullspace(
    supports: Sequence[np.ndarray], dim: int, tol: Tolerances = DEFAULT_TOL
) -> int:
    """Dimension of {R : R psi_i colinear to psi_i for every support psi_i}.

    R psi_i = lambda_i psi_i for all i reads R Psi = Psi diag(lambda) with
    Psi = [psi_1 ... psi_n]. Since psi_i != 0, R = 0 forces lambda = 0, so
    the solutions are counted as pairs (R, lambda). With one full SVD
    Psi = U S Vh of rank r, R is fixed on the range of Psi and free on its
    complement (d(d-r) dimensions), and lambda must satisfy
    Vh[:r] diag(lambda) K = 0 for K = Vh[r:]^dagger, whose columns span
    ker Psi. Hence the nullity is d(d-r) + n - rank(M), where the
    r(n-r) x n matrix M[(a, c), i] = Vh[a, i] K[i, c] is ranked by a second
    SVD with the same cut (M is empty when n <= r).

    Both rank cuts count singular values above ``tol.rank * s_max``. The
    eigenvalue form is returned only when every singular value of both
    spectra lies more than 4 decades (:data:`_ORACLE_BAND`) from its cut;
    otherwise the nullity comes from the n(d-1) x d^2 homogeneous system
    over the entries of R (:func:`_system_nullity`). The identity is always
    a solution. For a spanning support family, nullity 1 means the supports
    totally determine C^d; any second solution splits the space into a
    separating pair of R-invariant subspaces, and conversely an oblique
    projector onto V along W is a second solution.

    A nonzero ket whose squared norm overflows or underflows is first
    divided by its largest entry. A zero support raises :class:`ZeroElement`.
    """
    d = int(dim)
    kets = np.array([as_ket(ket, d) for ket in supports]).reshape(-1, d)
    if not len(kets):
        return d * d
    with np.errstate(over="ignore"):
        norms = fro_norms(kets)  # rounds as np.linalg.norm of each ket does
    odd = ~((norms >= _NORM_FLOOR) & (norms < np.inf))
    if odd.any():  # a squared norm overflowed or left the normal range
        peak = np.abs(kets[odd]).max(axis=1, keepdims=True)
        kets[odd] /= np.where(peak > 0, peak, 1.0)  # a zero ket stays zero
        norms[odd] = fro_norms(kets[odd])
    if not norms.all():
        i = int(np.argmin(norms))
        raise ZeroElement(f"support {i + 1} is zero", index=i)
    psi = kets / norms[:, None]
    n = len(psi)
    _, s, vh = np.linalg.svd(psi.T)
    r = int((s > tol.rank * s[0]).sum())
    near_cut, rank_m = _near_cut(s, tol), 0
    if not near_cut and n > r:
        m = (vh[:r, None, :] * vh[None, r:, :].conj()).reshape(-1, n)
        t = np.linalg.svd(m, compute_uv=False)
        rank_m = int((t > tol.rank * t[0]).sum())
        near_cut = _near_cut(t, tol)
    if near_cut:
        return _system_nullity(psi, tol)
    return d * (d - r) + n - rank_m


def _near_cut(s: np.ndarray, tol: Tolerances) -> bool:
    """Whether a value of a descending spectrum lies within ``_ORACLE_BAND`` of
    its cut ``tol.rank * s[0]``, either way; a zero cut holds exact zeros."""
    cut = tol.rank * s[0]
    return bool(((s >= cut / _ORACLE_BAND) & (s <= cut * _ORACLE_BAND)).any())


def _system_nullity(psi: np.ndarray, tol: Tolerances) -> int:
    """Nullity of the n(d-1) x d^2 system over the entries of R.

    Each unit support psi_i contributes the d-1 rows
    ``u_k^dagger R psi_i = 0`` for an orthonormal basis {u_k} of its
    orthogonal complement. Every complement comes from one stacked SVD, and
    every row ``kron(conj(u_k), psi_i)`` from one broadcast product.
    """
    d = psi.shape[1]
    u = orthonormal_complement(psi[:, :, None]).conj().swapaxes(1, 2)  # (n, d-1, d)
    system = (u[..., None] * psi[:, None, None, :]).reshape(-1, d * d)
    s = np.linalg.svd(system, compute_uv=False)
    rank = int(np.sum(s > tol.rank * s[0])) if s[0] > 0 else 0
    return d * d - rank


class OracleVerdict(NamedTuple):
    clean: bool
    nullity: int


def oracle_verdict(povm: Povm, tol: Tolerances = DEFAULT_TOL) -> OracleVerdict:
    """The nullspace oracle's verdict: clean iff rank-one or nullity 1.

    Independent of :func:`decide_clean`; the two must agree.
    """
    supports = [s.ket for s in rank_one_supports(povm)]
    nullity = totally_determined_nullspace(supports, povm.dim, tol)
    rank_one = all(e.rank == 1 for e in povm.elements)
    return OracleVerdict(rank_one or nullity == 1, nullity)
