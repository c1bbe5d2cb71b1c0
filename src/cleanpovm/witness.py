"""Constructive non-cleanness certificates.

Given a not-clean verdict for P, build a POVM Q and a channel E with
``E(Q_i) = P_i`` element-wise and a strictly wider spectrum at one declared
element. Since channels can only narrow spectra, Q is then strictly less
noisy than P and no channel maps P back onto Q, certifying that P is not
clean. Four constructions cover all not-clean quasi-qubit POVMs:

* case ``a`` — every element is a multiple of the identity;
* case ``b`` — an orthogonal split V + V^perp with every element
  block-diagonal: a three-operator channel built from a coisometry
  A : V^perp -> V inflates one rank-one element;
* case ``c`` — an orthogonal split with some element not block-diagonal:
  the channel mixes the two orthogonal projectors with the identity and its
  inverse rescales off-diagonal blocks by 1/(1 - eps^2), with eps read off
  in closed form from the positivity bound of each rescaled element (half
  the bound, or closer to it when the widening margin needs more);
* case ``d`` — an oblique split V + W (supports confined to V and W, some
  W-support not orthogonal to V): a three-operator channel that is block
  upper-triangular in a basis adapted to V, inverted block by block in
  closed form on every element.

Cases b-d share one reading of the separating pair, made once per witness:
V's orthonormal basis from :func:`~cleanpovm.linalg.support_frame`, the rule
that made the partition, every support's side (V or V^perp) under the same
rule, and every element's off-diagonal block. Case d reads W's basis, and
tests V + W for supplementarity, under that rule too; each of its trials
widens the W-support whose eigenvalue gains most at that eps. The cases
also share one search over their deformation parameter, which runs every
trial, and one judge, which builds a trial's candidate once (Q as a
certificate :class:`~cleanpovm.povm.Povm` over its matrices and the one
stacked ``eigvalsh`` the trial took, E as a :class:`KrausChannel` over its
Kraus stack) and accepts it on :func:`verify_witness`'s report, the trial's
one closure check, plus the construction's own positivity headroom. The
search judges a start value; its failure picks a side (a missed widening
margin asks for a larger eps, every other failure for a smaller one), and
the search walks that side until a failure asks to move back. Cases b and d
run down 0.25 * 2^-k, since a smaller eps only widens less, and case d
climbs a few fixed values instead when 0.25 misses the margin; case c only
climbs. The accepted trial's witness is returned as it is: its report was
the verification.

A trial of case b or d takes Q's eigenvalues first. When they already fix
the judge's answer as "rejected, try a smaller eps" (case b: the headroom
fails, which the judge checks first; case d: the widening margin holds and
positivity fails, so every check the judge runs before positivity asks for
a smaller eps too) and the walk goes on downward after this eps, the trial
stops there, before its channel, its Povm and its report. The last trial a
walk judges is always judged in full (the last schedule value, every
climbing rung, every case-c step, case a), so a failed search names the same
problem and carries the same report.

Certificates are verified by :func:`verify_witness` using only POVM/channel
primitives, with frozen contract constants: channel residual 1e-8, closure
residual 1e-10, spectrum widening margin 1e-6. Q's axiom gates, the
channel's closure defect and the map residuals ``E(Q_i) - P_i`` are normed
in one stacked pass.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .channel import KrausChannel, apply
from .cleanness import (
    CleannessVerdict,
    VerdictReason,
    scalar_weights,
    separating_pair,
)
from .errors import (
    CleanPovmError,
    ConstructionFailed,
    DimensionMismatch,
    EpsilonSearchFailed,
    NotScalar,
    PreconditionViolated,
    SingleOutcome,
    VerdictIsClean,
)
from .linalg import (
    DEFAULT_TOL,
    PSD_TOL,
    Tolerances,
    fro_norms,
    hermitian_part,
    in_span,
    orthonormal_complement,
    support_frame,
)
from .povm import (
    Povm,
    RankOneSupport,
    _axiom_violation,
    _povm,
    rank_one_supports,
)

#: Frozen certificate contract: third parties check against these, no negotiation.
MAP_RESIDUAL_TOL = 1e-8
CLOSURE_RESIDUAL_TOL = 1e-10
WIDENING_MARGIN = 1e-6

MAX_EIG_INCREASE = "max-eig-increase"
MIN_EIG_DECREASE = "min-eig-decrease"

_EPS_START = 0.25
_EPS_HALVINGS = 40
#: Cases b and d try eps = 0.25 * 2^-k downward, while a check asks for a smaller eps.
_EPS_SCHEDULE = tuple(_EPS_START * 0.5**k for k in range(_EPS_HALVINGS))
#: Case d climbs these instead when eps = 0.25 already leaves too little margin.
_EPS_RUNGS = (0.4, 0.55, 0.7, 0.85, 0.95)
#: The eps values after which a rejection asking for a smaller eps moves on down
#: the schedule: only a case-b or case-d trial at one of these may stop on Q's
#: eigenvalues. Every other trial may be the last its walk judges.
_EPS_GOES_ON = frozenset(_EPS_SCHEDULE[:-1])

#: Eigenvalue floor of a constructed Q element, relative to max(1, lambda_max).
_PSD_FLOOR = 1e-12


def _psd_within_floor(eigs: np.ndarray) -> bool:
    """Whether ascending eigenvalues (one row per matrix) all clear the PSD floor."""
    return bool((eigs[..., 0] >= -_PSD_FLOOR * np.maximum(1.0, eigs[..., -1])).all())


def _first_best(values: np.ndarray) -> int:
    """Index of the largest value; of values within 1e-12 of it (relative to
    max(1, |largest|)), the lowest index, so that rounding cannot break a tie."""
    top = values.max()
    return int(np.flatnonzero(values >= top - 1e-12 * max(1.0, abs(top)))[0])


@dataclass(frozen=True, eq=False)
class Witness:
    """Certificate that some POVM P is not clean: E(Q) = P with wider spectrum.

    ``widened_index`` is the 0-based element where the spectrum strictly
    widens, in the declared ``direction``. ``epsilon`` is the deformation
    parameter of the construction (0.0 for case ``a``, which has none).
    """

    q: Povm
    channel: KrausChannel
    widened_index: int
    case_tag: str
    epsilon: float
    direction: str


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the four independent certificate checks."""

    q_valid: bool
    channel_unital: bool
    maps_to_target: bool
    widened: bool
    closure_residual: float
    max_map_residual: float
    widening_margin: float

    @property
    def passed(self) -> bool:
        return self.q_valid and self.channel_unital and self.maps_to_target and self.widened


def verify_witness(p: Povm, witness: Witness, tol: Tolerances = DEFAULT_TOL) -> WitnessReport:
    """Re-check a witness using only POVM/channel primitives.

    Checks: (i) Q is a valid POVM, gated on the matrix and eigenvalue stacks
    Q kept when it was built or loaded, (ii) the channel satisfies closure to
    1e-10, (iii) E(Q_i) = P_i to 1e-8 element-wise, (iv) the spectrum widens
    by at least 1e-6 at the declared index in the declared direction. Every
    call computes all four afresh: the channel's closure defect and the
    residuals ``E(Q_i) - P_i`` of one stacked :func:`apply` join Q's axiom
    gates in one Frobenius-norm pass, and a Q that fails a gate is reported,
    not raised.
    """
    if p.dim != witness.q.dim or p.n_outcomes != witness.q.n_outcomes:
        raise DimensionMismatch("witness does not match the target POVM shape")
    if witness.channel.dim != p.dim:
        raise DimensionMismatch("channel dimension does not match the POVM")
    if not 0 <= witness.widened_index < p.n_outcomes:
        raise DimensionMismatch(f"widened index {witness.widened_index} is outside the POVM")
    if witness.direction not in (MAX_EIG_INCREASE, MIN_EIG_DECREASE):
        raise PreconditionViolated(f"unknown widening direction {witness.direction!r}")

    q_mats = witness.q.matrices
    extra = (witness.channel.closure_defect()[None], apply(witness.channel, q_mats) - p.matrices)
    error, norms = _axiom_violation(q_mats, hermitian_part(q_mats), witness.q.eigenvalues, tol, extra)
    q_valid = error is None
    closure_residual = float(norms[0])
    channel_unital = closure_residual <= CLOSURE_RESIDUAL_TOL
    max_map_residual = float(norms[1:].max())
    maps_to_target = max_map_residual <= MAP_RESIDUAL_TOL

    i = witness.widened_index
    q_el, p_el = witness.q.elements[i], p.elements[i]
    if witness.direction == MAX_EIG_INCREASE:
        widening_margin = q_el.max_eigenvalue - p_el.max_eigenvalue
    else:
        widening_margin = p_el.min_eigenvalue - q_el.min_eigenvalue
    widened = widening_margin >= WIDENING_MARGIN

    return WitnessReport(
        q_valid,
        channel_unital,
        maps_to_target,
        widened,
        closure_residual,
        max_map_residual,
        float(widening_margin),
    )


def build_witness(p: Povm, verdict: CleannessVerdict, tol: Tolerances = DEFAULT_TOL) -> Witness:
    """Dispatch a not-clean verdict to the matching construction.

    Every construction returns a witness that :func:`verify_witness` has
    passed, once. Raises :class:`VerdictIsClean` for clean verdicts and wraps
    any construction breakdown in :class:`ConstructionFailed` (a bug or a
    tolerance pathology, never an expected outcome); after a failed eps
    search it carries the case tag and, if the last trial was verified,
    that report's fields as its ``diagnostics``.
    """
    if verdict.clean:
        raise VerdictIsClean(f"verdict {verdict.reason.value} is clean; nothing to witness")

    try:
        if verdict.reason is VerdictReason.SCALAR_ELEMENTS:
            return witness_case_a(p, tol)
        if verdict.partition is None:
            raise PreconditionViolated("not-clean verdict carries no partition evidence")
        basis = verdict.partition.basis_kets
        if basis.shape[0] != p.dim:
            raise DimensionMismatch(
                f"expected {p.dim}-dimensional partition kets, got shape {basis.shape}"
            )
        v_kets, w_kets = separating_pair(verdict.partition)
        split = _split(p, v_kets.T, tol)
        if not split.orthogonal:
            return _case_d(p, split, w_kets.T, tol)
        if split.block_diagonal.all() and split.supports:
            return _case_b(p, split, tol)
        return _case_c(p, split, tol)
    except ConstructionFailed:
        raise
    except CleanPovmError as exc:
        raise ConstructionFailed(
            f"witness construction failed: {exc}",
            case_tag=getattr(exc, "case_tag", None),
            diagnostics=getattr(exc, "diagnostics", None) or {"error": str(exc)},
        ) from exc


class _Split(NamedTuple):
    """A separating pair V + W as the constructions read it, decided once.

    ``in_v`` and ``in_vperp`` hold each support ket's side under
    :func:`~cleanpovm.linalg.in_span`. On an orthogonal split ``pi_v`` projects
    onto V, ``off`` stacks the blocks P_V P_i P_W and ``block_diagonal`` flags those
    within ``tol.zero * max(1, ||P_i||)``; an oblique split leaves all three ``None``.
    """

    ov: np.ndarray
    operp: np.ndarray
    pi_v: np.ndarray | None
    supports: list[RankOneSupport]
    kets: np.ndarray
    in_v: np.ndarray
    in_vperp: np.ndarray
    orthogonal: bool
    off: np.ndarray | None
    block_diagonal: np.ndarray | None


def _split(p: Povm, v_rows: np.ndarray, tol: Tolerances) -> _Split:
    d = p.dim
    ov = support_frame(v_rows, tol).q
    operp = orthonormal_complement(ov)
    supports = rank_one_supports(p)
    kets = np.array([s.ket for s in supports]).reshape(-1, d)
    in_v, in_vperp = in_span(kets, ov, tol), in_span(kets, operp, tol)
    orthogonal = bool((in_v | in_vperp).all())
    pi_v = off = block_diagonal = None
    if orthogonal:
        pi_v = hermitian_part(ov @ ov.conj().T)
        mats = p.matrices
        off = pi_v @ mats @ (np.eye(d) - pi_v)
        off_size, size = fro_norms(np.concatenate([off, mats])).reshape(2, -1)
        block_diagonal = off_size <= tol.zero * np.maximum(1.0, size)
    return _Split(ov, operp, pi_v, supports, kets, in_v, in_vperp, orthogonal, off, block_diagonal)


class _Trial(NamedTuple):
    """One eps trial: the accepted witness, or its first failed check, which way
    that check asks eps to move, and the report (``None`` if B(eps) is undefined
    or the trial stopped on Q's eigenvalues)."""

    witness: Witness | None
    problem: str
    needs_larger: bool
    report: WitnessReport | None = None


_MARGIN_TEXT = "widening margin {margin:.2e} below contract at eps={eps}"
_DROP_TEXT = f"largest minimum-eigenvalue drop {{margin:.3e}} at eps={{eps}} is below {WIDENING_MARGIN}"


def _judge(p, tol, q_mats, eigs, kraus, index, case_tag, eps, direction, headroom="",
           margin_first=False) -> _Trial:
    """Build one trial's candidate, Q over ``q_mats`` and the eigenvalues ``eigs``
    the trial took and E over ``kraus``, and accept it on its
    :func:`verify_witness` report, or name its first failed check.

    ``headroom`` words the construction's own positivity failure (empty when
    Q clears it). The order is headroom, closure, map residual, widening
    margin, Q's POVM axioms; ``margin_first`` moves the headroom after the
    margin. A failed margin asks for a larger eps, any other check for a
    smaller one. Problems are formatted with the report's ``margin`` and ``eps``.
    """
    q = _povm(q_mats, eigs, None, p.labels, tol)
    witness = Witness(q, KrausChannel(p.dim, kraus), index, case_tag, eps, direction)
    report = verify_witness(p, witness, tol)
    checks = [
        (not headroom, headroom, False),
        (report.channel_unital, "closure residual above contract at eps={eps}", False),
        (report.maps_to_target, "map residual above contract at eps={eps}", False),
        (report.widened, _DROP_TEXT if direction == MIN_EIG_DECREASE else _MARGIN_TEXT, True),
        (report.q_valid, "Q fails the POVM axioms at eps={eps}", False),
    ]
    if margin_first:  # closure, map residual, margin, headroom, axioms
        checks.insert(3, checks.pop(0))
    for ok, problem, needs_larger in checks:
        if not ok:
            problem = problem.format(margin=report.widening_margin, eps=eps)
            return _Trial(None, problem, needs_larger, report)
    return _Trial(witness, "", False, report)


def _eps_walk(trial, case_tag: str, start, down=(), up=()) -> Witness:
    """Judge ``trial`` at ``start``, then along one side, until one is accepted.

    ``trial(x)`` returns a :class:`_Trial`. The first failure picks the side:
    ``up`` when it asks for a larger x, ``down`` otherwise. The walk stops at
    the first failure that asks for the other way, since every later value
    only moves further from what that check needs. The accepted witness is
    returned as it is: its trial's report was its one verification. Raises
    :class:`EpsilonSearchFailed` naming the last problem, with the case tag
    and the last report's fields.
    """
    last = trial(start)
    larger = last.needs_larger
    for x in up if larger else down:
        if last.witness is not None or last.needs_larger != larger:
            break
        last = trial(x)
    if last.witness is not None:
        return last.witness
    raise EpsilonSearchFailed(
        f"case-({case_tag}) eps search failed; last problem: {last.problem}",
        case_tag=case_tag,
        diagnostics=None if last.report is None else asdict(last.report),
    )


# ---------------------------------------------------------------------------
# case (a): scalar elements


def witness_case_a(p: Povm, tol: Tolerances = DEFAULT_TOL) -> Witness:
    """Scalar POVM {mu_i 1}: the channel discards everything but <e1|A|e1>.

    Q concentrates the weights on |e1><e1| and parks the rest of Q_1 on the
    remaining basis states, so lambda_max(Q_1) = 1 > mu_1. There is no eps:
    the one candidate is judged as a one-trial search.
    """
    if p.n_outcomes < 2:
        raise SingleOutcome("scalar construction needs at least two outcomes")
    d = p.dim
    weights = scalar_weights(p.matrices, tol)
    if None in weights:
        raise NotScalar(f"element {weights.index(None) + 1} is not a multiple of the identity")

    q_mats = np.zeros((p.n_outcomes, d, d), dtype=complex)
    q_mats[:, 0, 0] = weights
    q_mats[0, range(1, d), range(1, d)] = 1.0
    kraus = np.zeros((d, d, d), dtype=complex)
    kraus[range(d), 0, range(d)] = 1.0  # K_alpha = |e1><e_alpha|

    def attempt(eps):
        eigs = np.linalg.eigvalsh(q_mats)  # Q is exactly Hermitian
        return _judge(p, tol, q_mats, eigs, kraus, 0, "a", eps, MAX_EIG_INCREASE)

    return _eps_walk(attempt, "a", 0.0)  # one trial


# ---------------------------------------------------------------------------
# case (b): orthogonal split, all elements block-diagonal


def case_b_kraus(a: np.ndarray, eps: float) -> np.ndarray:
    """Kraus operators of the case-(b) channel in split coordinates.

    ``a`` is a (dim V) x (dim V^perp) coisometry (a a^dagger = 1_V); the
    first dim V coordinates span V. Returns the stored Kraus operators K, as
    one ``(3, d, d)`` stack, with E(X) = sum K^dagger X K and exact closure.
    """
    k, m = a.shape
    d = k + m
    r_v = np.zeros((d, d), dtype=complex)
    r_v[:k, :k] = np.eye(k)
    r_v[:k, k:] = eps * a
    r_w = np.zeros((d, d), dtype=complex)
    r_w[k:, k:] = np.eye(m)
    c1 = math.sqrt(eps**2 / (1.0 + eps**2))
    c2 = math.sqrt((1.0 - eps**2) / (1.0 + eps**2))
    m1 = c1 * r_v + c2 * r_w
    m2 = c1 * r_w
    m3 = c2 * r_v - c1 * r_w
    return np.stack([m1, m2, m3]).conj().swapaxes(-1, -2)


def case_b_widen_map(matrix: np.ndarray, a: np.ndarray, eps: float) -> np.ndarray:
    """Right inverse of the case-(b) channel on block-diagonal matrices.

    For M = diag(B, D) returns [[(1+eps^2)B + eps^2 A D A^dagger, -eps A D],
    [-eps D A^dagger, D]]; the channel maps this back to M exactly, and PSD
    inputs give PSD outputs. A stack maps each matrix bit for bit as on its own.
    """
    k = a.shape[0]
    b = matrix[..., :k, :k]
    dd = matrix[..., k:, k:]
    out = np.empty_like(matrix)
    out[..., :k, :k] = (1.0 + eps**2) * b + eps**2 * (a @ dd @ a.conj().T)
    out[..., :k, k:] = -eps * (a @ dd)
    out[..., k:, :k] = out[..., :k, k:].conj().swapaxes(-1, -2)
    out[..., k:, k:] = dd
    return out


def _case_b(p: Povm, split: _Split, tol: Tolerances) -> Witness:
    """Block-diagonal POVM over V + V^perp with rank-one and full-rank elements.

    One full-rank element absorbs the closure; every other element is pushed
    through the right inverse, which inflates a designated rank-one element
    by 1 + eps^2 (support in V) or 1 + eps^2 ||A w||^2 (support w in V^perp,
    A chosen so A w != 0). The heaviest support in V is designated when
    weight * 0.25^2 clears the widening margin, else the heaviest support
    overall. eps runs down 0.25 * 2^-k while a positivity,
    closure or map check fails; the first eps that misses the widening
    margin ends the search, since a smaller eps widens less.
    """
    d = p.dim
    ov, operp, in_v = split.ov, split.operp, split.in_v
    if ov.shape[1] > operp.shape[1]:
        # keep dim V <= dim V^perp so a coisometry exists
        ov, operp, in_v = operp, ov, split.in_vperp
    k, m = ov.shape[1], operp.shape[1]
    supports = split.supports
    full = [i for i, e in enumerate(p.elements) if e.rank == d]
    if not full:
        raise PreconditionViolated("no full-rank element absorbs the closure")

    u = np.concatenate([ov, operp], axis=1)
    weights = np.array([s.weight for s in supports])
    j = int(np.argmax(np.where(in_v, weights, -np.inf)))  # the heaviest support in V
    if not in_v[j] or weights[j] * _EPS_START**2 < WIDENING_MARGIN:
        # a V support widens by weight * eps^2, too little even at the first eps
        j = int(np.argmax(weights))
    designated = supports[j]
    if in_v[j]:
        a = np.zeros((k, m), dtype=complex)
        a[:, :k] = np.eye(k)
    else:
        w0 = operp.conj().T @ designated.ket
        w0 = w0 / np.linalg.norm(w0)
        # orthonormal basis of the V^perp coordinates starting at w0; A maps
        # its first dim V vectors onto V and kills the rest, so A w0 != 0.
        basis, _ = np.linalg.qr(np.column_stack([w0.reshape(m, 1), np.eye(m)]))
        a = basis[:, :k].conj().T

    absorber = full[0]
    others = [i for i in range(p.n_outcomes) if i != absorber]
    p_others = u.conj().T @ p.matrices[others] @ u  # in u's coordinates

    def attempt(eps):
        adapted = np.empty((p.n_outcomes, d, d), dtype=complex)
        adapted[others] = widened = case_b_widen_map(p_others, a, eps)
        # the absorber closes the sum, taken in element order from zero
        adapted[absorber] = np.eye(d, dtype=complex) - widened.sum(axis=0, initial=0.0)
        q_mats = hermitian_part(u @ adapted @ u.conj().T)
        eigs = np.linalg.eigvalsh(q_mats)
        w_abs = eigs[absorber]
        if w_abs[0] < PSD_TOL * max(w_abs[-1], 0.0):  # strictly inside the PSD cone
            headroom = "absorbing element loses positivity at eps={eps}"
        elif not _psd_within_floor(eigs[others]):
            headroom = "a widened element loses positivity at eps={eps}"
        else:
            headroom = ""
        if headroom and eps in _EPS_GOES_ON:  # the judge checks the headroom first
            return _Trial(None, headroom.format(eps=eps), False)
        kraus = u @ case_b_kraus(a, eps) @ u.conj().T
        return _judge(p, tol, q_mats, eigs, kraus, designated.index, "b", eps, MAX_EIG_INCREASE,
                      headroom)

    return _eps_walk(attempt, "b", _EPS_START, _EPS_SCHEDULE[1:])


# ---------------------------------------------------------------------------
# case (c): orthogonal split, some element not block-diagonal


def _rescaling_bounds(mats: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """s_max,i = -1/lambda_min(L^-1 O_i L^-dagger) for each P_i = L L^dagger and O_i.

    ``mats`` and ``offs`` are ``(m, d, d)`` stacks; P_i + s O_i is PSD exactly
    for 0 <= s <= s_max,i.
    """
    try:
        chol = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError as exc:
        raise EpsilonSearchFailed(f"a moving element is not positive definite: {exc}") from exc
    # L^-1 O L^-dagger, using O^dagger = O: the adjoint of L^-1 O is O L^-dagger
    rel = np.linalg.solve(chol, np.linalg.solve(chol, offs).conj().swapaxes(-1, -2))
    lam = np.linalg.eigvalsh(hermitian_part(rel))[:, 0]
    # congruent to O_i, whose nonzero off-diagonal block makes it indefinite
    if np.any(lam >= 0):
        raise EpsilonSearchFailed("an off-diagonal part has no negative direction")
    return -1.0 / lam


def _case_c(p: Povm, split: _Split, tol: Tolerances) -> Witness:
    """Projector-mixing channel whose inverse rescales off-diagonal blocks.

    The channel {eps P_V, eps P_W, sqrt(1-eps^2) 1} leaves diagonal blocks
    alone and shrinks off-diagonal blocks by 1 - eps^2, so Q scales them up
    by 1/(1-eps^2) = 1 + s with s = eps^2/(1-eps^2). Block-diagonal elements
    are untouched (Q_i = P_i, bit-equal). A moving full-rank element
    P_i = L L^dagger with Hermitian off-diagonal part O_i stays PSD exactly
    for s <= s_max,i = -1/lambda_min(L^-1 O_i L^-dagger); eps is taken in
    closed form at s = min_i s_max,i / 2, and the mover whose minimum
    eigenvalue drops most is the widened element. If no drop clears the
    widening margin there, s moves toward min_i s_max,i, halving the
    distance left at each trial.
    """
    d = p.dim
    movers = [
        i for i, e in enumerate(p.elements) if e.rank == d and not split.block_diagonal[i]
    ]
    if not movers:
        raise PreconditionViolated("no full-rank element with a nonzero off-diagonal block")

    offs = split.off + split.off.conj().swapaxes(-1, -2)  # Hermitian off-diagonal parts
    kept = split.block_diagonal[:, None, None]
    min_eigs = p.eigenvalues[movers, 0]
    pi_w = np.eye(d) - split.pi_v

    def attempt(s):
        eps = math.sqrt(s / (1.0 + s))
        q_mats = np.where(kept, p.matrices, hermitian_part(p.matrices + s * offs))
        eigs = np.linalg.eigvalsh(q_mats)  # Q is exactly Hermitian
        moved = eigs[movers]
        floor_ok = _psd_within_floor(moved)
        headroom = "" if floor_ok else "a rescaled element loses positivity at eps={eps}"
        kraus = [eps * split.pi_v, eps * pi_w, math.sqrt(1.0 - eps**2) * np.eye(d)]
        best = movers[_first_best(min_eigs - moved[:, 0])]
        return _judge(p, tol, q_mats, eigs, kraus, best, "c", eps, MIN_EIG_DECREASE, headroom)

    s_max = float(np.min(_rescaling_bounds(p.matrices[movers], offs[movers])))
    return _case_c_bisect(attempt, s_max)


def _case_c_bisect(attempt, s_max: float) -> Witness:
    """Bisect [s, s_max) from s = s_max / 2 while only the widening margin fails.

    ``attempt(s)`` returns the trial's :class:`_Trial`. Drops grow
    with s, and concavity keeps lambda_min(P_i + s O_i) >= (1 - s / s_max)
    lambda_min(P_i), so every trial is PSD up to rounding.
    """
    steps = (s_max - s_max * 0.5 ** (k + 1) for k in range(_EPS_HALVINGS))
    return _eps_walk(attempt, "c", next(steps), up=steps)


# ---------------------------------------------------------------------------
# case (d): oblique split


def _case_d(p: Povm, split: _Split, w_rows: np.ndarray, tol: Tolerances) -> Witness:
    """Oblique separating pair: supports in V or W, some W-support not in V^perp.

    V and W are supplementary when :func:`~cleanpovm.linalg.support_frame`
    selects d of their kets together; a support lies in W under the same
    rule, against the orthonormal basis of W's frame. In an orthonormal
    basis adapted to V, a matrix A is read off a basis of W normalized so
    its V^perp components are the identity; the V^perp basis is rotated so
    A's columns are orthogonal, making [[0, A], [0, 1]] an orthogonal-column
    map onto W. The three Kraus operators built from A and the PSD square
    root B(eps) close exactly, and in this basis the channel is block
    upper-triangular, so every element is pulled back in closed form:
    X_22 = Y_22, X_12 = B^-1 Y_12 / (1 - eps^2) and
    X_11 = B^-1 (Y_11 - alpha (A X_21 B + B X_12 A^dagger) - beta A X_22 A^dagger) B^-1
    for scalars alpha(eps), beta(eps); a rank-one element pulls back to a
    rank-one element. Of the W-supports not in V^perp, each trial widens the
    one whose maximum eigenvalue gains most. eps runs down 0.25 * 2^-k while
    closure, the map residual or positivity fails, and the first eps whose
    margin falls short ends the search; if eps = 0.25 already falls short,
    eps climbs 0.4, 0.55, ..., 0.95 until a check asks for a smaller one.
    """
    d = p.dim
    ov, operp = split.ov, split.operp
    k, m = ov.shape[1], operp.shape[1]
    if len(w_rows) != m:
        raise PreconditionViolated(
            f"W has {len(w_rows)} basis vectors, expected {m} for a supplement of V"
        )
    if len(support_frame(np.concatenate([ov.T, w_rows]), tol).selected) < d:
        raise PreconditionViolated("V and W are not supplementary")

    bw = w_rows.T
    cross = operp.conj().T @ bw
    try:
        psi_map = (ov.conj().T @ bw) @ np.linalg.inv(cross)  # V^perp coords -> V coords of W
    except np.linalg.LinAlgError as exc:
        raise PreconditionViolated(f"W projects singularly onto V^perp: {exc}") from exc
    _, rot = np.linalg.eigh(psi_map.conj().T @ psi_map)
    a = psi_map @ rot  # columns mutually orthogonal
    operp = operp @ rot
    u = np.concatenate([ov, operp], axis=1)

    supports = split.supports
    in_w = in_span(split.kets, support_frame(w_rows, tol).q, tol)
    if not (split.in_v | in_w).all():
        raise PreconditionViolated("a rank-one support lies outside V and W")
    widenable = [s_.index for s_, ok in zip(supports, in_w & ~split.in_vperp) if ok]
    if not widenable:
        raise PreconditionViolated("no rank-one support lies in W away from V^perp")

    aa = a @ a.conj().T
    aa_top = float(np.linalg.eigvalsh(hermitian_part(aa))[-1])
    y = u.conj().T @ p.matrices @ u  # P in u's coordinates; every trial solves E(X) = y
    # what no trial changes, among them A X22 A^dagger, since X22 = Y22
    fixed = (u, u.conj().T, a, aa, aa_top, y, a @ y[:, k:, k:] @ a.conj().T)

    def attempt(eps):
        return _case_d_attempt(p, fixed, eps, widenable, tol)

    # down the schedule, or up the rungs when eps = 0.25 already misses the margin
    return _eps_walk(attempt, "d", _EPS_START, _EPS_SCHEDULE[1:], _EPS_RUNGS)


def _case_d_attempt(p, fixed, eps, widenable, tol):
    """One eps trial for case (d), judged as a :class:`_Trial`.

    Pulls every element back through the trial channel's block inverse and
    widens the support in ``widenable`` whose maximum eigenvalue gains most.
    Its checks run in this order: closure, the map residual, the widening
    margin, positivity; so when both the margin and positivity fail, the
    trial asks for a larger eps. When Q's eigenvalues meet the margin but
    fail positivity, every check asks for a smaller eps, so a trial at an
    eps in :data:`_EPS_GOES_ON` stops there, before building its channel.
    """
    u, uh, a, aa, aa_top, y, a_y22_ah = fixed
    d = p.dim
    k, m = a.shape
    t = eps**2
    coeff = 1.0 / (1.0 - t) ** 2 - 1.0  # closure forces B^2 = 1 - coeff A A^dagger
    if coeff * aa_top >= 1.0 - 1e-9:
        return _Trial(None, f"B(eps) undefined at eps={eps}", False)
    # B^2 is Hermitian by construction and the guard keeps its eigenvalues above 1e-9,
    # so its square root needs no hermiticity or PSD gate
    w, v = np.linalg.eigh(hermitian_part(np.eye(k) - coeff * aa))
    b_mat = hermitian_part((v * np.sqrt(w)) @ v.conj().T)

    # in u, E(X) = sum m X m^dagger is block upper-triangular: solve it block by block
    b_inv = np.linalg.inv(b_mat)
    alpha = -t / (1.0 - t) - t
    beta = t / (1.0 - t) ** 2 + t + t**2 / (1.0 - t)
    x = np.empty_like(y)
    x[:, k:, k:] = y[:, k:, k:]
    x[:, :k, k:] = b_inv @ y[:, :k, k:] / (1.0 - t)
    x[:, k:, :k] = x[:, :k, k:].conj().swapaxes(-1, -2)
    cross = a @ x[:, k:, :k] @ b_mat  # A X21 B; its adjoint is B X12 A^dagger
    rhs = y[:, :k, :k] - alpha * (cross + cross.conj().swapaxes(-1, -2))
    x[:, :k, :k] = b_inv @ (rhs - beta * a_y22_ah) @ b_inv
    q_mats = hermitian_part(u @ x @ uh)
    eigs = np.linalg.eigvalsh(q_mats)
    gains = eigs[widenable, -1] - p.eigenvalues[widenable, -1]
    j = _first_best(gains)
    headroom = "" if _psd_within_floor(eigs) else "an element loses positivity at eps={eps}"
    if headroom and eps in _EPS_GOES_ON and gains[j] >= WIDENING_MARGIN:
        return _Trial(None, headroom.format(eps=eps), False)

    r = np.zeros((3, d, d), dtype=complex)  # R_V, R_W, then sqrt(1 - eps^2) (R_V + R_W)
    r[0, :k, :k] = b_mat
    r[0, :k, k:] = -a / (1.0 - t)
    r[1, :k, k:] = a
    r[1, k:, k:] = np.eye(m)
    r[2] = math.sqrt(1.0 - t) * (r[0] + r[1])
    r[:2] *= eps
    kraus = u @ r.conj().swapaxes(-1, -2) @ uh
    return _judge(p, tol, q_mats, eigs, kraus, widenable[j], "d", eps, MAX_EIG_INCREASE, headroom,
                  margin_first=True)
