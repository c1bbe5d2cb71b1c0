"""POVM representation, validation, rank taxonomy, and random generation.

A POVM is a finite list of Hermitian PSD operators on C^d (d >= 2) summing
to the identity. :func:`validate` decomposes every element fully, in one
stacked ``eigh``: elements whose rank is 1 carry a cached weight/support
decomposition ``P = weight * |support><support|`` with the support phase
fixed so its largest-magnitude amplitude is real positive. A certificate
(a witness's Q, loaded by :func:`povm_unchecked` or built by an eps trial)
keeps eigenvalues only, from one stacked ``eigvalsh``: ranks and weights, but no
eigenvectors or supports, which :func:`rank_one_supports` refuses to read.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    CleanPovmError,
    ClosureViolation,
    DimensionMismatch,
    InfeasibleRequest,
    NonHermitianInput,
    NotPsd,
    UnvalidatedPovm,
    ZeroElement,
)
from .linalg import (
    CLOSURE_TOL,
    DEFAULT_TOL,
    HERM_TOL,
    PSD_TOL,
    Tolerances,
    as_operator,
    fro_norms,
    haar_unitary,
    hermitian_part,
    random_psd,
)


def _fix_phases(kets: np.ndarray) -> np.ndarray:
    """Each row of ``kets`` normalized, its largest amplitude rotated to real positive.

    Rounds as the one-ket computation does: the norm is summed as ``np.linalg.norm``
    sums it, and each pivot's modulus is ``np.hypot`` of its parts, as the scalar
    ``abs(z)`` takes it (``np.abs`` of an array rounds differently in the last bit).
    """
    u = kets / fro_norms(kets)[:, None]
    pivots = u[np.arange(len(u)), np.abs(u).argmax(axis=1)]
    return u * (pivots / np.hypot(pivots.real, pivots.imag)).conj()[:, None]


@dataclass(frozen=True, eq=False)
class PovmElement:
    """One POVM element with cached eigendata.

    ``weight`` is present iff ``rank == 1``. ``eigenvectors`` and ``support``
    exist on validated POVMs only (both ``None`` on a certificate from
    :func:`povm_unchecked`); there ``support`` is present iff ``rank == 1``,
    in which case ``matrix ~= weight * outer(support, support.conj())``.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    rank: int
    weight: Optional[float]
    support: Optional[np.ndarray]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True, eq=False)
class Povm:
    """Validated POVM: use :func:`validate` to construct one.

    ``matrices`` and ``eigenvalues`` stack the elements' matrices and
    ascending eigenvalues, one row per element. :func:`validate` and
    :func:`povm_unchecked` hand over the stacks they decomposed; a Povm
    built from elements alone stacks them once, here.
    """

    dim: int
    elements: tuple[PovmElement, ...]
    labels: Optional[tuple[str, ...]] = None
    matrices: np.ndarray = field(default=None, repr=False)
    eigenvalues: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        for name, attr in (("matrices", "matrix"), ("eigenvalues", "eigenvalues")):
            if getattr(self, name) is None:
                object.__setattr__(self, name, np.stack([getattr(e, attr) for e in self.elements]))
            getattr(self, name).setflags(write=False)

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


class PovmClass(enum.Enum):
    RANK_ONE = "rank-one"
    FULL_RANK = "full-rank"
    STRICT_QUASI_QUBIT = "strict-quasi-qubit"
    NOT_QUASI_QUBIT = "not-quasi-qubit"


@dataclass(frozen=True)
class RankProfile:
    kind: PovmClass
    ranks: tuple[int, ...]

    @property
    def is_quasi_qubit(self) -> bool:
        return self.kind is not PovmClass.NOT_QUASI_QUBIT


class RankOneSupport(NamedTuple):
    index: int
    weight: float
    ket: np.ndarray


def _stack(matrices) -> np.ndarray:
    """The matrices as one ``(n, d, d)`` complex array, after the shape checks."""
    try:
        a = np.array(matrices, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is not None and a.ndim == 3 and a.shape[1] == a.shape[2] >= 2 and np.isfinite(a).all():
        return a
    # not a finite stack of square matrices: check matrix by matrix to word the error
    mats = [as_operator(m) for m in matrices]
    if not mats:
        raise DimensionMismatch("a POVM needs at least one element")
    d = mats[0].shape[0]
    if d < 2:
        raise DimensionMismatch("dimension must be at least 2")
    if any(m.shape != (d, d) for m in mats):
        raise DimensionMismatch("POVM elements have mixed dimensions")
    return np.stack(mats)


def _povm(stack: np.ndarray, w, v, labels, tol: Tolerances) -> Povm:
    """A Povm of read-only elements over the stacked matrices and their eigendata;
    ``v`` is ``None`` for a certificate, whose elements keep eigenvalues only.
    A witness trial builds its Q here, with the eigenvalues it already took."""
    for a in (stack, w) if v is None else (stack, w, v):
        a.setflags(write=False)
    ranks = (w > tol.rank * w[:, -1:]).sum(axis=1).tolist()
    rank_one = [i for i, rank in enumerate(ranks) if rank == 1]
    supports = [None] * len(ranks)
    if rank_one and v is not None:
        for i, ket in zip(rank_one, _fix_phases(v[rank_one, :, -1])):
            supports[i] = ket
    weights = [top if rank == 1 else None for top, rank in zip(w[:, -1].tolist(), ranks)]
    vectors = [None] * len(ranks) if v is None else v
    elements = tuple(map(PovmElement, stack, w, vectors, ranks, weights, supports))
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(elements):
            raise DimensionMismatch("label count does not match element count")
    return Povm(stack.shape[1], elements, labels, stack, w)


def _decompose(a: np.ndarray, vectors: bool):
    """The Hermitian part h of the stack ``a`` and its ``eigh``, or its ``eigvalsh``
    and ``None``. When h overflows and the solver fails on it, the eigenvalues are
    NaN and there are no eigenvectors; :func:`_axiom_violation` rejects such a stack."""
    h = hermitian_part(a)
    try:
        w, v = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    except np.linalg.LinAlgError:
        if np.isfinite(h).all():
            raise
        w, v = np.full(h.shape[:2], np.nan), None
    return h, w, v


def _axiom_violation(
    a: np.ndarray, h: np.ndarray, w: np.ndarray, tol: Tolerances, extra: Sequence = ()
) -> tuple[Optional[CleanPovmError], np.ndarray]:
    """The first failing axiom gate of :func:`validate` and the norms of ``extra``.

    ``a`` is the ``(n, d, d)`` stack as given, ``h`` its Hermitian part and
    ``w`` the ascending eigenvalues of ``h``, one row per element. Every
    Frobenius norm is taken in one pass over ``[a - a^dagger, a, h, sum h -
    1]`` and the ``(k, d, d)`` stacks of ``extra``. Returns the error that
    :func:`validate` raises, chosen in its order and worded as it words it
    (``None`` when every gate passes), and the norms of ``extra``'s matrices.

    An element whose norms overflow is decided on its copy divided by a power
    of two ``scale`` near its largest entry, with each 1 in its gates read as
    1 / scale, so the gates decide as exact arithmetic would; a message scales
    its value back. The closure residual is then summed over every element
    divided by the largest scale (an element that large cannot close).
    """
    n, d = a.shape[:2]
    total = h.sum(axis=0)  # adds the elements in order, as a running sum does
    total.flat[:: d + 1] -= 1.0  # the diagonal
    norms = fro_norms(np.concatenate([a - a.conj().swapaxes(1, 2), a, h, total[None], *extra]))
    asym, size, h_size = norms[: 3 * n].reshape(3, -1)
    residual = float(norms[3 * n])
    extra_norms = norms[3 * n + 1 :]
    lam_min, lam_max = w[:, 0], w[:, -1]
    scale = 1.0
    if not math.isfinite(norms[: 3 * n].sum()):  # a norm overflowed; |lambda| <= ||h||_F
        huge = ~np.isfinite(norms[: 3 * n].reshape(3, -1)).all(axis=0)
        peak = np.maximum(abs(a.real), abs(a.imag)).max(axis=(1, 2))
        scale = np.where(huge, np.ldexp(1.0, np.frexp(peak)[1] - 1), 1.0)
        b = a / scale[:, None, None]  # entries below 2, and a itself where scale is 1
        hb = hermitian_part(b)
        norms = fro_norms(np.concatenate([b - b.conj().swapaxes(1, 2), b, hb]))
        asym, size, h_size = norms.reshape(3, -1)
        lam_min, lam_max = lam_min.copy(), lam_max.copy()
        lam_min[huge], lam_max[huge] = np.linalg.eigvalsh(hb[huge])[:, [0, -1]].T
        top = float(scale.max())
        total = hermitian_part(a / top).sum(axis=0)
        total.flat[:: d + 1] -= 1.0 / top
        residual = top * float(fro_norms(total[None])[0])  # a float product: inf past the range
    unit = 1.0 / scale
    non_hermitian = asym > HERM_TOL * np.maximum(unit, size)
    not_psd = lam_min < -PSD_TOL * np.maximum(unit, lam_max)
    zero = h_size <= tol.zero * unit
    bad = non_hermitian | not_psd | zero
    if bad.any():
        i = int(bad.argmax())
        if non_hermitian[i]:
            error = NonHermitianInput(f"element {i + 1}: asymmetry {(asym * scale)[i]:.3e} exceeds tolerance")
        elif not_psd[i]:
            error = NotPsd(
                f"element {i + 1}: minimum eigenvalue {(lam_min * scale)[i]:.3e}",
                index=i,
                min_eigenvalue=float((lam_min * scale)[i]),
            )
        else:
            error = ZeroElement(f"element {i + 1} is numerically zero", index=i)
    elif residual > CLOSURE_TOL:
        error = ClosureViolation(
            f"sum of elements deviates from identity by {residual:.3e}", residual=residual
        )
    else:
        error = None
    return error, extra_norms


def validate(matrices: Sequence, tol: Tolerances = DEFAULT_TOL, labels=None) -> Povm:
    """Check the POVM axioms and return a :class:`Povm` with cached eigendata.

    All elements are checked in one stacked pass. The first failing element
    in input order decides the error; within it, hermiticity is checked
    before PSD, and PSD before zero. Raises ``DimensionMismatch``,
    ``NonHermitianInput``, ``NotPsd(index)``, ``ZeroElement(index)`` or
    ``ClosureViolation`` as appropriate. Messages number elements from 1;
    ``index`` is 0-based.
    """
    a = _stack(matrices)
    h, w, v = _decompose(a, vectors=True)
    error, _ = _axiom_violation(a, h, w, tol)
    if error is not None:
        raise error
    return _povm(h, w, v, labels, tol)


def povm_unchecked(matrices: Sequence, tol: Tolerances = DEFAULT_TOL, labels=None) -> Povm:
    """A certificate :class:`Povm`: eigenvalues only, and no axiom checks.

    For a witness's Q read from a file (an eps trial hands its Q's stacks to
    the Povm itself): the matrices are kept exactly as given, so that
    :func:`cleanpovm.witness.verify_witness` decides whether they form a
    POVM. Only shapes and labels are checked. One stacked ``eigvalsh`` of the
    Hermitian part gives the eigenvalues, ranks and weights; no eigenvectors
    or supports are built.
    """
    a = _stack(matrices)
    _, w, _ = _decompose(a, vectors=False)
    return _povm(a, w, None, labels, tol)


def classify(povm: Povm) -> RankProfile:
    """Rank taxonomy: rank-one / full-rank / strict quasi-qubit / not quasi-qubit."""
    d = povm.dim
    ranks = tuple(e.rank for e in povm.elements)
    if all(r == 1 for r in ranks):
        kind = PovmClass.RANK_ONE
    elif all(r == d for r in ranks):
        kind = PovmClass.FULL_RANK
    elif all(r in (1, d) for r in ranks):
        kind = PovmClass.STRICT_QUASI_QUBIT
    else:
        kind = PovmClass.NOT_QUASI_QUBIT
    return RankProfile(kind, ranks)


def rank_one_supports(povm: Povm) -> list[RankOneSupport]:
    """Weight/support data of every rank-one element, in element order.

    Raises :class:`UnvalidatedPovm` on a certificate from
    :func:`povm_unchecked`, which keeps no eigenvectors or supports.
    """
    if any(e.eigenvectors is None for e in povm.elements):
        raise UnvalidatedPovm(
            "the POVM keeps eigenvalues only (built without the axiom checks); "
            "validate it to read its supports"
        )
    return [RankOneSupport(i, float(e.weight), e.support) for i, e in enumerate(povm.elements) if e.rank == 1]


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _weighted_projectors(vectors: np.ndarray, weights) -> np.ndarray:
    """``weights[i] * outer(u_i, u_i^*)`` for each row ``v_i`` and ``u_i = v_i / ||v_i||``,
    stacked; each entry rounds as the one-ket expression does."""
    u = vectors / fro_norms(vectors)[:, None]
    return np.asarray(weights)[:, None, None] * (u[:, :, None] * u.conj()[:, None, :])


def random_povm(kind: str, dim: int, n_elements: int, seed, n_rank_one=None) -> Povm:
    """Deterministic random POVM of the requested kind.

    ``kind`` is one of ``"rank-one"``, ``"full-rank"``,
    ``"strict-quasi-qubit"``, ``"scalar"``. Rank-one POVMs need
    ``n_elements >= dim``; strict quasi-qubit POVMs need ``n_elements >= 2``
    and accept an optional rank-one element count ``n_rank_one``.
    """
    rng = _as_generator(seed)
    d, n = int(dim), int(n_elements)
    if d < 2 or n < 1:
        raise InfeasibleRequest(f"need dim >= 2 and n >= 1, got ({d}, {n})")

    if kind == "scalar":
        mu = rng.uniform(0.2, 1.0, size=n)
        mu = mu / mu.sum()
        return validate(mu[:, None, None] * np.eye(d))

    if kind == "rank-one":
        if n < d:
            raise InfeasibleRequest(f"rank-one POVM needs n >= dim, got n={n} < d={d}")
        # Rows of a Haar isometry: columns m_i of the d x n block give
        # P_i = m_i m_i^dagger with sum_i P_i = 1 exactly.
        cols = haar_unitary(n, rng)[:d, :].T
        if np.any(fro_norms(cols) < 1e-6):
            return random_povm(kind, dim, n_elements, rng)  # measure-zero retry
        return validate(cols[:, :, None] * cols.conj()[:, None, :])

    if kind == "full-rank":
        if n == 1:
            return validate([np.eye(d)])
        return _close_with_remainder(random_psd(d, rng, 0.05, n - 1), d, rng)

    if kind == "strict-quasi-qubit":
        if n < 2:
            raise InfeasibleRequest("strict quasi-qubit POVM needs n >= 2")
        if n_rank_one is None:
            n_rank_one = int(rng.integers(1, n))
        if not 1 <= n_rank_one <= n - 1:
            raise InfeasibleRequest(f"n_rank_one must be in [1, {n - 1}]")
        z = rng.standard_normal((n_rank_one, 2, d))  # each ket's real, then imaginary parts
        parts = _weighted_projectors(z[:, 0] + 1j * z[:, 1], rng.uniform(0.2, 1.0, n_rank_one))
        full = random_psd(d, rng, 0.05, n - 1 - n_rank_one)
        return _close_with_remainder(np.concatenate([parts, full]), d, rng)

    raise InfeasibleRequest(f"unknown POVM kind {kind!r}")


def _close_with_remainder(parts: np.ndarray, dim: int, rng) -> Povm:
    """Scale the ``(n, d, d)`` stack ``parts`` so its sum's top eigenvalue is 0.9,
    append the remainder, and shuffle. Sums run in order from zero, as ``sum`` does."""
    lam = float(np.linalg.eigvalsh(parts.sum(axis=0, initial=0.0))[-1])
    parts = (0.9 / lam) * parts
    remainder = np.eye(dim) - parts.sum(axis=0, initial=0.0)
    order = rng.permutation(len(parts) + 1)
    return validate(np.concatenate([parts, remainder[None]])[order])


def random_split_povm(
    dim: int,
    dim_v: int,
    n_v: int,
    n_w: int,
    seed,
    oblique: bool = False,
    block_diagonal: bool = False,
    n_extra_full: int = 0,
) -> Povm:
    """POVM whose rank-one supports are planted inside two supplementary subspaces.

    ``n_v`` supports are drawn in a random ``dim_v``-dimensional subspace V and
    ``n_w`` in a supplement W (the orthogonal complement, or an oblique tilt of
    it when ``oblique``). With ``block_diagonal`` (orthogonal split only) every
    element is block-diagonal with respect to V and its complement. The last
    element closes the sum and is full-rank, so the result is quasi-qubit.
    """
    rng = _as_generator(seed)
    d, k = int(dim), int(dim_v)
    if not (1 <= k <= d - 1):
        raise InfeasibleRequest(f"dim_v must be in [1, {d - 1}]")
    if oblique and block_diagonal:
        raise InfeasibleRequest("block_diagonal requires an orthogonal split")
    u = haar_unitary(d, rng)
    v_basis = u[:, :k]
    w_basis = u[:, k:]
    if oblique:
        tilt = 0.4 * (rng.standard_normal((k, d - k)) + 1j * rng.standard_normal((k, d - k)))
        w_basis = w_basis + v_basis @ tilt
        w_basis = w_basis / np.linalg.norm(w_basis, axis=0)

    parts = []
    for basis, count in ((v_basis, n_v), (w_basis, n_w)):
        # per ket: its coordinates' real parts, imaginary parts, then its weight
        draws = [(rng.standard_normal((2, basis.shape[1])), rng.uniform(0.2, 1.0)) for _ in range(count)]
        if draws:
            c = np.array([z[0] + 1j * z[1] for z, _ in draws])
            parts.append(_weighted_projectors((basis @ c[:, :, None])[:, :, 0], [w for _, w in draws]))
    if not parts:
        raise InfeasibleRequest("need at least one planted support")

    for _ in range(n_extra_full):
        if block_diagonal:
            top = random_psd(k, rng, ridge=0.05)
            bottom = random_psd(d - k, rng, ridge=0.05)
            blk = np.zeros((d, d), dtype=complex)
            blk[:k, :k] = top
            blk[k:, k:] = bottom
            parts.append((u @ blk @ u.conj().T)[None])
        else:
            parts.append(random_psd(d, rng, 0.05, 1))

    return _close_with_remainder(np.concatenate(parts), d, rng)

