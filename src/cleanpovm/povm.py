"""POVM representation, validation, rank taxonomy, and random generation.

A POVM is a finite list of Hermitian PSD operators on C^d (d >= 2) summing
to the identity. :func:`validate` decomposes every element fully, in one
stacked ``eigh``: elements whose rank is 1 carry a cached weight/support
decomposition ``P = weight * |support><support|`` with the support phase
fixed so its largest-magnitude amplitude is real positive. A certificate
built by :func:`povm_unchecked` (a witness's Q, tried or loaded) keeps
eigenvalues only, from one stacked ``eigvalsh``: ranks and weights, but no
eigenvectors or supports, which :func:`rank_one_supports` refuses to read.
"""

from __future__ import annotations

import enum
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
    haar_unitary,
    hermitian_part,
    random_psd,
)


def _fix_phases(kets: np.ndarray) -> np.ndarray:
    """Each row of ``kets`` normalized, its largest amplitude rotated to real positive.

    Rounds as the one-ket computation does: the norm is summed as
    ``np.linalg.norm`` sums it, and each phase is a scalar division, which
    rounds differently from the array division in the last bit.
    """
    norms = np.sqrt(np.vecdot(kets.real, kets.real) + np.vecdot(kets.imag, kets.imag))
    u = kets / norms[:, None]
    pivots = u[np.arange(len(u)), np.argmax(np.abs(u), axis=1)]
    phases = np.array([z / abs(z) for z in pivots], dtype=complex)
    return u * phases.conj()[:, None]


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
        if self.matrices is None:
            for name, attr in (("matrices", "matrix"), ("eigenvalues", "eigenvalues")):
                stack = np.stack([getattr(e, attr) for e in self.elements])
                stack.setflags(write=False)
                object.__setattr__(self, name, stack)

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


def _fro_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack.

    Summed as ``np.linalg.norm`` sums a single matrix (real and imaginary
    dot products of the flattened entries), so every tolerance comparison
    decides exactly as a per-matrix norm would.
    """
    flat = stack.reshape(len(stack), -1)
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _povm(stack: np.ndarray, w, v, labels, tol: Tolerances) -> Povm:
    """A Povm of read-only elements over the stacked matrices and their eigendata;
    ``v`` is ``None`` for a certificate, whose elements keep eigenvalues only.
    A witness trial builds its Q here, with the eigenvalues it already took."""
    for a in (stack, w) if v is None else (stack, w, v):
        a.setflags(write=False)
    ranks = np.sum(w > tol.rank * w[:, -1:], axis=1).tolist()
    rank_one = [i for i, rank in enumerate(ranks) if rank == 1]
    supports = {}
    if rank_one and v is not None:
        supports = dict(zip(rank_one, _fix_phases(v[rank_one, :, -1])))
    weights = w[:, -1].tolist()
    vectors = [None] * len(ranks) if v is None else v
    elements = tuple(
        PovmElement(stack[i], w[i], vectors[i], rank, weights[i] if rank == 1 else None, supports.get(i))
        for i, rank in enumerate(ranks)
    )
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(elements):
            raise DimensionMismatch("label count does not match element count")
    return Povm(stack.shape[1], elements, labels, stack, w)


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
    """
    n = len(a)
    total = h.sum(axis=0)  # adds the elements in order, as a running sum does
    total.flat[:: a.shape[1] + 1] -= 1.0  # the diagonal
    norms = _fro_norms(np.concatenate([a - a.conj().swapaxes(1, 2), a, h, total[None], *extra]))
    asym, size, h_size = norms[: 3 * n].reshape(3, -1)
    residual = float(norms[3 * n])
    extra_norms = norms[3 * n + 1 :]
    non_hermitian = asym > HERM_TOL * np.maximum(1.0, size)
    lam_min = w[:, 0]
    not_psd = lam_min < -PSD_TOL * np.maximum(1.0, w[:, -1])
    zero = h_size <= tol.zero
    bad = non_hermitian | not_psd | zero
    if bad.any():
        i = int(bad.argmax())
        if non_hermitian[i]:
            error = NonHermitianInput(f"element {i + 1}: asymmetry {asym[i]:.3e} exceeds tolerance")
        elif not_psd[i]:
            error = NotPsd(
                f"element {i + 1}: minimum eigenvalue {lam_min[i]:.3e}",
                index=i,
                min_eigenvalue=float(lam_min[i]),
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
    h = hermitian_part(a)
    w, v = np.linalg.eigh(h)
    error, _ = _axiom_violation(a, h, w, tol)
    if error is not None:
        raise error
    return _povm(h, w, v, labels, tol)


def povm_unchecked(matrices: Sequence, tol: Tolerances = DEFAULT_TOL, labels=None) -> Povm:
    """A certificate :class:`Povm`: eigenvalues only, and no axiom checks.

    For a witness's Q, built by a construction or read from a file: the
    matrices are kept exactly as given, so that
    :func:`cleanpovm.witness.verify_witness` decides whether they form a
    POVM. Only shapes and labels are checked. One stacked ``eigvalsh`` of the
    Hermitian part gives the eigenvalues, ranks and weights; no eigenvectors
    or supports are built.
    """
    a = _stack(matrices)
    return _povm(a, np.linalg.eigvalsh(hermitian_part(a)), None, labels, tol)


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
    out = []
    for i, e in enumerate(povm.elements):
        if e.rank == 1:
            out.append(RankOneSupport(i, float(e.weight), e.support))
    return out


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _random_kets(dim: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    kets = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        kets.append(v / np.linalg.norm(v))
    return kets


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
        return validate([m * np.eye(d) for m in mu])

    if kind == "rank-one":
        if n < d:
            raise InfeasibleRequest(f"rank-one POVM needs n >= dim, got n={n} < d={d}")
        # Rows of a Haar isometry: columns m_i of the d x n block give
        # P_i = m_i m_i^dagger with sum_i P_i = 1 exactly.
        m = haar_unitary(n, rng)[:d, :]
        cols = [m[:, i] for i in range(n)]
        if any(np.linalg.norm(c) < 1e-6 for c in cols):
            return random_povm(kind, dim, n_elements, rng)  # measure-zero retry
        return validate([np.outer(c, c.conj()) for c in cols])

    if kind == "full-rank":
        if n == 1:
            return validate([np.eye(d)])
        parts = [random_psd(d, rng, ridge=0.05) for _ in range(n - 1)]
        return _close_with_remainder(parts, d, rng)

    if kind == "strict-quasi-qubit":
        if n < 2:
            raise InfeasibleRequest("strict quasi-qubit POVM needs n >= 2")
        if n_rank_one is None:
            n_rank_one = int(rng.integers(1, n))
        if not 1 <= n_rank_one <= n - 1:
            raise InfeasibleRequest(f"n_rank_one must be in [1, {n - 1}]")
        parts = []
        for ket in _random_kets(d, n_rank_one, rng):
            parts.append(rng.uniform(0.2, 1.0) * np.outer(ket, ket.conj()))
        for _ in range(n - 1 - n_rank_one):
            parts.append(random_psd(d, rng, ridge=0.05))
        return _close_with_remainder(parts, d, rng)

    raise InfeasibleRequest(f"unknown POVM kind {kind!r}")


def _close_with_remainder(parts: list[np.ndarray], dim: int, rng) -> Povm:
    """Scale ``parts`` so their sum's top eigenvalue is 0.9 and append the remainder."""
    total = sum(parts)
    lam = float(np.linalg.eigvalsh(total)[-1])
    scale = 0.9 / lam
    parts = [scale * p for p in parts]
    remainder = np.eye(dim) - sum(parts)
    order = list(rng.permutation(len(parts) + 1))
    mats = parts + [remainder]
    return validate([mats[i] for i in order])


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

    def ket_in(basis):
        c = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
        v = basis @ c
        return v / np.linalg.norm(v)

    parts = []
    for _ in range(n_v):
        ket = ket_in(v_basis)
        parts.append(rng.uniform(0.2, 1.0) * np.outer(ket, ket.conj()))
    for _ in range(n_w):
        ket = ket_in(w_basis)
        parts.append(rng.uniform(0.2, 1.0) * np.outer(ket, ket.conj()))
    if not parts:
        raise InfeasibleRequest("need at least one planted support")

    for _ in range(n_extra_full):
        if block_diagonal:
            top = random_psd(k, rng, ridge=0.05)
            bottom = random_psd(d - k, rng, ridge=0.05)
            blk = np.zeros((d, d), dtype=complex)
            blk[:k, :k] = top
            blk[k:, k:] = bottom
            parts.append(u @ blk @ u.conj().T)
        else:
            parts.append(random_psd(d, rng, ridge=0.05))

    return _close_with_remainder(parts, d, rng)

