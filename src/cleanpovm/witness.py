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
  inverse rescales off-diagonal blocks by 1/(1 - eps^2);
* case ``d`` — an oblique split V + W (supports confined to V and W, some
  W-support not orthogonal to V): a three-operator channel whose inverse is
  taken by a d^2 x d^2 linear solve for full-rank elements and in closed
  form for rank-one elements.

Certificates are verified by :func:`verify_witness` using only POVM/channel
primitives, with frozen contract constants: channel residual 1e-8, closure
residual 1e-10, spectrum widening margin 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import KrausChannel, apply, hs_norm
from .cleanness import (
    CleannessVerdict,
    VerdictReason,
    scalar_weight,
    separating_pair,
)
from .errors import (
    CleanPovmError,
    ClosureViolation,
    ConstructionFailed,
    DimensionMismatch,
    EpsilonSearchFailed,
    NotScalar,
    PreconditionViolated,
    SingleOutcome,
    SingularSuperop,
    VerdictIsClean,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    hermitian_part,
    orthonormal_columns,
    orthonormal_complement,
    psd_sqrt,
    superop_matrix,
    superop_solve,
)
from .povm import Povm, rank_one_supports, validate

#: Frozen certificate contract: third parties check against these, no negotiation.
MAP_RESIDUAL_TOL = 1e-8
CLOSURE_RESIDUAL_TOL = 1e-10
WIDENING_MARGIN = 1e-6

MAX_EIG_INCREASE = "max-eig-increase"
MIN_EIG_DECREASE = "min-eig-decrease"

_EPS_START = 0.25
_EPS_HALVINGS = 40


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
    """Re-check a witness from scratch using only POVM/channel primitives.

    Checks: (i) Q is a valid POVM, (ii) the channel satisfies closure to
    1e-10, (iii) E(Q_i) = P_i to 1e-8 element-wise, (iv) the spectrum widens
    by at least 1e-6 at the declared index in the declared direction.
    """
    if p.dim != witness.q.dim or p.n_outcomes != witness.q.n_outcomes:
        raise DimensionMismatch("witness does not match the target POVM shape")
    if witness.channel.dim != p.dim:
        raise DimensionMismatch("channel dimension does not match the POVM")

    try:
        validate([e.matrix for e in witness.q.elements], tol, witness.q.labels)
        q_valid = True
    except CleanPovmError:
        q_valid = False

    closure_residual = witness.channel.closure_residual()
    channel_unital = closure_residual <= CLOSURE_RESIDUAL_TOL

    max_map_residual = max(
        hs_norm(apply(witness.channel, qe.matrix) - pe.matrix)
        for qe, pe in zip(witness.q.elements, p.elements)
    )
    maps_to_target = max_map_residual <= MAP_RESIDUAL_TOL

    i = witness.widened_index
    q_el, p_el = witness.q.elements[i], p.elements[i]
    if witness.direction == MAX_EIG_INCREASE:
        widening_margin = q_el.max_eigenvalue - p_el.max_eigenvalue
    elif witness.direction == MIN_EIG_DECREASE:
        widening_margin = p_el.min_eigenvalue - q_el.min_eigenvalue
    else:
        raise ValueError(f"unknown widening direction {witness.direction!r}")
    widened = widening_margin >= WIDENING_MARGIN

    return WitnessReport(
        q_valid,
        channel_unital,
        maps_to_target,
        widened,
        float(closure_residual),
        float(max_map_residual),
        float(widening_margin),
    )


def build_witness(p: Povm, verdict: CleannessVerdict, tol: Tolerances = DEFAULT_TOL) -> Witness:
    """Dispatch a not-clean verdict to the matching construction and verify it.

    Raises :class:`VerdictIsClean` for clean verdicts and wraps any
    construction breakdown in :class:`ConstructionFailed` (a bug or a
    tolerance pathology, never an expected outcome).
    """
    if verdict.clean:
        raise VerdictIsClean(f"verdict {verdict.reason.value} is clean; nothing to witness")

    supports = rank_one_supports(p)
    kets = [s.ket for s in supports]
    try:
        if verdict.reason is VerdictReason.SCALAR_ELEMENTS:
            witness = witness_case_a(p, tol)
        else:
            if verdict.partition is None:
                raise PreconditionViolated("not-clean verdict carries no partition evidence")
            v_kets, w_kets = separating_pair(verdict.partition, kets, tol)
            ov = orthonormal_columns(v_kets, tol)
            in_v_or_vperp = all(
                _in_span(ket, ov, tol) or _orthogonal_to(ket, ov, tol) for ket in kets
            )
            if in_v_or_vperp:
                if _all_block_diagonal(p, ov, tol) and supports:
                    witness = witness_case_b(p, v_kets, tol)
                else:
                    witness = witness_case_c(p, v_kets, tol)
            else:
                witness = witness_case_d(p, v_kets, w_kets, tol)
    except ConstructionFailed:
        raise
    except CleanPovmError as exc:
        raise ConstructionFailed(
            f"witness construction failed: {exc}", diagnostics={"error": str(exc)}
        ) from exc

    report = verify_witness(p, witness, tol)
    if not report.passed:
        raise ConstructionFailed(
            f"constructed case-{witness.case_tag} witness failed verification",
            case_tag=witness.case_tag,
            diagnostics={
                "q_valid": report.q_valid,
                "channel_unital": report.channel_unital,
                "maps_to_target": report.maps_to_target,
                "widened": report.widened,
                "closure_residual": report.closure_residual,
                "max_map_residual": report.max_map_residual,
                "widening_margin": report.widening_margin,
            },
        )
    return witness


def _in_span(ket, ortho_basis, tol) -> bool:
    residual = np.linalg.norm(ket - ortho_basis @ (ortho_basis.conj().T @ ket))
    return residual <= tol.zero * np.linalg.norm(ket)


def _orthogonal_to(ket, ortho_basis, tol) -> bool:
    return np.linalg.norm(ortho_basis.conj().T @ ket) <= tol.zero * np.linalg.norm(ket)


def _all_block_diagonal(p: Povm, ov, tol) -> bool:
    d = p.dim
    pi_v = ov @ ov.conj().T
    pi_w = np.eye(d) - pi_v
    for e in p.elements:
        off = pi_v @ e.matrix @ pi_w
        if np.linalg.norm(off) > tol.zero * max(1.0, np.linalg.norm(e.matrix)):
            return False
    return True


# ---------------------------------------------------------------------------
# case (a): scalar elements


def witness_case_a(p: Povm, tol: Tolerances = DEFAULT_TOL) -> Witness:
    """Scalar POVM {mu_i 1}: the channel discards everything but <e1|A|e1>.

    Q concentrates the weights on |e1><e1| and parks the rest of Q_1 on the
    remaining basis states, so lambda_max(Q_1) = 1 > mu_1.
    """
    if p.n_outcomes < 2:
        raise SingleOutcome("scalar construction needs at least two outcomes")
    d = p.dim
    weights = []
    for i, e in enumerate(p.elements):
        mu = scalar_weight(e.matrix, tol)
        if mu is None:
            raise NotScalar(f"element {i + 1} is not a multiple of the identity")
        weights.append(mu)

    q_mats = []
    first = np.zeros((d, d), dtype=complex)
    first[0, 0] = weights[0]
    for j in range(1, d):
        first[j, j] = 1.0
    q_mats.append(first)
    for mu in weights[1:]:
        m = np.zeros((d, d), dtype=complex)
        m[0, 0] = mu
        q_mats.append(m)

    kraus = []
    for alpha in range(d):
        k = np.zeros((d, d), dtype=complex)
        k[0, alpha] = 1.0  # |e1><e_alpha|
        kraus.append(k)
    channel = KrausChannel.build(kraus, tol)

    margin = 1.0 - weights[0]
    if margin < WIDENING_MARGIN:
        raise ConstructionFailed(
            f"first scalar weight {weights[0]} leaves widening margin {margin:.3e}",
            case_tag="a",
        )
    return Witness(validate(q_mats, tol, p.labels), channel, 0, "a", 0.0, MAX_EIG_INCREASE)


# ---------------------------------------------------------------------------
# case (b): orthogonal split, all elements block-diagonal


def case_b_kraus(a: np.ndarray, eps: float) -> list[np.ndarray]:
    """Kraus operators of the case-(b) channel in split coordinates.

    ``a`` is a (dim V) x (dim V^perp) coisometry (a a^dagger = 1_V); the
    first dim V coordinates span V. Returns the stored Kraus list K with
    E(X) = sum K^dagger X K and exact closure.
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
    return [m1.conj().T, m2.conj().T, m3.conj().T]


def case_b_widen_map(matrix: np.ndarray, a: np.ndarray, eps: float) -> np.ndarray:
    """Right inverse of the case-(b) channel on block-diagonal matrices.

    For M = diag(B, D) returns [[(1+eps^2)B + eps^2 A D A^dagger, -eps A D],
    [-eps D A^dagger, D]]; the channel maps this back to M exactly, and PSD
    inputs give PSD outputs.
    """
    k, m = a.shape
    b = matrix[:k, :k]
    dd = matrix[k:, k:]
    out = np.zeros_like(matrix)
    out[:k, :k] = (1.0 + eps**2) * b + eps**2 * (a @ dd @ a.conj().T)
    out[:k, k:] = -eps * (a @ dd)
    out[k:, :k] = out[:k, k:].conj().T
    out[k:, k:] = dd
    return out


def witness_case_b(p: Povm, v_kets, tol: Tolerances = DEFAULT_TOL) -> Witness:
    """Block-diagonal POVM over V + V^perp with rank-one and full-rank elements.

    One full-rank element absorbs the closure; every other element is pushed
    through the right inverse, which inflates a designated rank-one element
    by 1 + eps^2 (support in V) or 1 + eps^2 ||A w||^2 (support w in V^perp,
    A chosen so A w != 0). eps is halved from 0.25 until the absorbing
    element stays positive and the widening clears its margin.
    """
    d = p.dim
    ov = orthonormal_columns(v_kets, tol)
    operp = orthonormal_complement(ov)
    if ov.shape[1] > operp.shape[1]:
        ov, operp = operp, ov  # keep dim V <= dim V^perp so a coisometry exists
    k, m = ov.shape[1], operp.shape[1]
    if not _all_block_diagonal(p, ov, tol):
        raise PreconditionViolated("some element is not block-diagonal for this split")

    supports = rank_one_supports(p)
    full = [i for i, e in enumerate(p.elements) if e.rank == d]
    if not supports or not full:
        raise PreconditionViolated("need at least one rank-one and one full-rank element")

    in_v = [s for s in supports if _in_span(s.ket, ov, tol)]
    in_w = [s for s in supports if _orthogonal_to(s.ket, ov, tol)]
    if len(in_v) + len(in_w) != len(supports):
        raise PreconditionViolated("a rank-one support lies outside V and V^perp")

    u = np.column_stack([ov, operp])
    if in_v:
        designated = max(in_v, key=lambda s: s.weight)
        a = np.zeros((k, m), dtype=complex)
        a[:, :k] = np.eye(k)
    else:
        designated = max(in_w, key=lambda s: s.weight)
        w0 = operp.conj().T @ designated.ket
        w0 = w0 / np.linalg.norm(w0)
        # orthonormal basis of the V^perp coordinates starting at w0; A maps
        # its first dim V vectors onto V and kills the rest, so A w0 != 0.
        basis, _ = np.linalg.qr(np.column_stack([w0.reshape(m, 1), np.eye(m)]))
        a = basis[:, :k].conj().T

    absorber = full[0]
    p_adapted = [u.conj().T @ e.matrix @ u for e in p.elements]

    eps = _EPS_START
    for _ in range(_EPS_HALVINGS):
        q_adapted = {}
        for i, mat in enumerate(p_adapted):
            if i != absorber:
                q_adapted[i] = case_b_widen_map(mat, a, eps)
        q_adapted[absorber] = np.eye(d, dtype=complex) - sum(
            q_adapted[i] for i in range(p.n_outcomes) if i != absorber
        )

        ok = True
        w_abs = np.linalg.eigvalsh(hermitian_part(q_adapted[absorber]))
        if w_abs[0] < tol.psd * max(w_abs[-1], 0.0):
            ok = False
        if ok:
            for i in range(p.n_outcomes):
                if i == absorber:
                    continue
                w_i = np.linalg.eigvalsh(hermitian_part(q_adapted[i]))
                if w_i[0] < -1e-12 * max(1.0, w_i[-1]):
                    ok = False
                    break
        if ok:
            kraus = [u @ mk @ u.conj().T for mk in case_b_kraus(a, eps)]
            channel = KrausChannel.build(kraus, tol)
            if channel.closure_residual() > CLOSURE_RESIDUAL_TOL:
                ok = False
        if ok:
            q_mats = [hermitian_part(u @ q_adapted[i] @ u.conj().T) for i in range(p.n_outcomes)]
            residual = max(
                hs_norm(apply(channel, qm) - e.matrix) for qm, e in zip(q_mats, p.elements)
            )
            if residual > MAP_RESIDUAL_TOL:
                ok = False
        if ok:
            i_w = designated.index
            margin = float(np.linalg.eigvalsh(q_mats[i_w])[-1]) - p.elements[i_w].max_eigenvalue
            if margin < WIDENING_MARGIN:
                ok = False
        if ok:
            q = validate(q_mats, tol, p.labels)
            return Witness(q, channel, designated.index, "b", eps, MAX_EIG_INCREASE)
        eps *= 0.5
    raise EpsilonSearchFailed(
        f"no eps in {_EPS_START} * 2^-k (k <= {_EPS_HALVINGS}) satisfied the case-(b) checks"
    )


# ---------------------------------------------------------------------------
# case (c): orthogonal split, some element not block-diagonal


def witness_case_c(p: Povm, v_kets, tol: Tolerances = DEFAULT_TOL) -> Witness:
    """Projector-mixing channel whose inverse rescales off-diagonal blocks.

    The channel {eps P_V, eps P_W, sqrt(1-eps^2) 1} leaves diagonal blocks
    alone and shrinks off-diagonal blocks by 1 - eps^2, so Q scales them up
    by 1/(1-eps^2). Block-diagonal elements are untouched (Q_i = P_i,
    bit-equal); eps is found by bisection so every full-rank Q stays PSD
    while some minimum eigenvalue strictly drops.
    """
    d = p.dim
    ov = orthonormal_columns(v_kets, tol)
    pi_v = hermitian_part(ov @ ov.conj().T)
    pi_w = np.eye(d) - pi_v

    off_parts = []
    off_norms = []
    for e in p.elements:
        off = pi_v @ e.matrix @ pi_w
        off_parts.append(hermitian_part(off + off.conj().T))
        off_norms.append(np.linalg.norm(off))
    is_diag = [
        off_norms[i] <= tol.zero * max(1.0, np.linalg.norm(p.elements[i].matrix))
        for i in range(p.n_outcomes)
    ]
    full = [i for i, e in enumerate(p.elements) if e.rank == d]
    movers = [i for i in full if not is_diag[i]]
    if not movers:
        raise PreconditionViolated("no full-rank element with a nonzero off-diagonal block")
    for i, e in enumerate(p.elements):
        if e.rank == 1 and not is_diag[i]:
            raise PreconditionViolated("a rank-one support lies outside V and V^perp")

    def q_matrices(eps: float) -> list[np.ndarray]:
        scale = eps**2 / (1.0 - eps**2)  # off-diagonal factor 1/(1-eps^2) = 1 + scale
        out = []
        for i, e in enumerate(p.elements):
            if is_diag[i]:
                out.append(e.matrix.copy())
            else:
                out.append(hermitian_part(e.matrix + scale * off_parts[i]))
        return out

    def min_eigs(eps: float) -> dict[int, float]:
        mats = q_matrices(eps)
        return {i: float(np.linalg.eigvalsh(mats[i])[0]) for i in movers}

    def psd_ok(eigs) -> bool:
        return all(v >= -1e-12 for v in eigs.values())

    def drop_index(eigs, margin: float) -> Optional[int]:
        drops = {
            i: p.elements[i].min_eigenvalue - eigs[i]
            for i in movers
            if p.elements[i].min_eigenvalue - eigs[i] >= margin
        }
        if not drops:
            return None
        return max(drops, key=drops.get)

    eps_plus = _case_c_epsilon_plus(p, ov, movers)
    eps = _case_c_bisect(min_eigs, psd_ok, drop_index, eps_plus, WIDENING_MARGIN)
    if eps is None:
        raise EpsilonSearchFailed("bisection found no eps with PSD images and a strict drop")

    widened = drop_index(min_eigs(eps), WIDENING_MARGIN)
    q_mats = q_matrices(eps)
    kraus = [eps * pi_v, eps * pi_w, math.sqrt(1.0 - eps**2) * np.eye(d)]
    channel = KrausChannel.build(kraus, tol)
    q = validate(q_mats, tol, p.labels)
    return Witness(q, channel, widened, "c", eps, MIN_EIG_DECREASE)


def _case_c_epsilon_plus(p: Povm, ov, movers) -> float:
    """An eps in (0,1) where some rescaled element must lose positivity.

    From the 2x2 principal minor at the largest off-diagonal entry (adapted
    coordinates): positivity needs B_jj D_kk >= |C_jk|^2 / (1-eps^2)^2, which
    fails once 1 - eps^2 < |C_jk| / sqrt(B_jj D_kk).
    """
    d = p.dim
    operp = orthonormal_complement(ov)
    best = None
    for i in movers:
        mat = p.elements[i].matrix
        b = ov.conj().T @ mat @ ov
        dd = operp.conj().T @ mat @ operp
        c = ov.conj().T @ mat @ operp
        j, kk = np.unravel_index(int(np.argmax(np.abs(c))), c.shape)
        denom = math.sqrt(max(b[j, j].real * dd[kk, kk].real, 1e-300))
        ratio = min(abs(c[j, kk]) / denom, 1.0)
        if best is None or ratio > best:
            best = ratio
    one_minus = best * 0.99
    eps_plus = math.sqrt(max(1.0 - one_minus**2, 0.0))
    return min(max(eps_plus, 1e-8), 1.0 - 1e-12)


def _case_c_bisect(min_eigs, psd_ok, drop_index, eps_plus, margin):
    hi = eps_plus
    for _ in range(60):  # ensure the bracket endpoint really fails PSD
        if not psd_ok(min_eigs(hi)):
            break
        if hi >= 1.0 - 1e-12:
            return None
        hi = math.sqrt(1.0 - (1.0 - hi**2) / 4.0)
    else:
        return None
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        eigs = min_eigs(mid)
        if not psd_ok(eigs):
            hi = mid
            continue
        if drop_index(eigs, margin) is not None:
            return mid
        lo = mid
        if hi - lo < 1e-15:
            return None
    return None


# ---------------------------------------------------------------------------
# case (d): oblique split


def witness_case_d(p: Povm, v_kets, w_kets, tol: Tolerances = DEFAULT_TOL) -> Witness:
    """Oblique separating pair: supports in V or W, some W-support not in V^perp.

    In an orthonormal basis adapted to V, a matrix A is read off a basis of
    W normalized so its V^perp components are the identity; the V^perp basis
    is rotated so A's columns are orthogonal, making [[0, A], [0, 1]] an
    orthogonal-column map onto W. The three Kraus operators built from A and
    the PSD square root B(eps) close exactly; full-rank elements are pulled
    back through a d^2 x d^2 linear solve and rank-one elements in closed
    form, the two cross-checked against each other. The designated W-support
    shrinks by a factor C < 1, widening its eigenvalue to weight / C.
    """
    d = p.dim
    ov = orthonormal_columns(v_kets, tol)
    k = ov.shape[1]
    operp = orthonormal_complement(ov)
    m = operp.shape[1]
    bw = np.asarray(w_kets, dtype=complex)
    if bw.ndim == 1:
        bw = bw.reshape(d, 1)
    if bw.shape[1] != m:
        raise PreconditionViolated(
            f"W has {bw.shape[1]} basis vectors, expected {m} for a supplement of V"
        )
    stacked = np.column_stack([ov, bw])
    s = np.linalg.svd(stacked, compute_uv=False)
    if s[-1] <= tol.rank * s[0]:
        raise PreconditionViolated("V and W are not supplementary")

    cross = operp.conj().T @ bw
    try:
        psi_map = (ov.conj().T @ bw) @ np.linalg.inv(cross)  # V^perp coords -> V coords of W
    except np.linalg.LinAlgError as exc:
        raise PreconditionViolated(f"W projects singularly onto V^perp: {exc}") from exc
    _, rot = np.linalg.eigh(psi_map.conj().T @ psi_map)
    a = psi_map @ rot  # columns mutually orthogonal
    operp = operp @ rot
    u = np.column_stack([ov, operp])

    supports = rank_one_supports(p)
    ow = orthonormal_columns(bw, tol)
    designated = None
    best_overlap = 0.0
    for s_ in supports:
        ket = s_.ket
        in_v = _in_span(ket, ov, tol)
        in_w = _in_span(ket, ow, tol)
        if not (in_v or in_w):
            raise PreconditionViolated("a rank-one support lies outside V and W")
        if in_w:
            overlap = float(np.linalg.norm(ov.conj().T @ ket))
            if overlap > best_overlap:
                best_overlap = overlap
                designated = s_
    if designated is None or best_overlap <= tol.zero:
        raise PreconditionViolated("no rank-one support lies in W away from V^perp")

    full = [i for i, e in enumerate(p.elements) if e.rank == d]
    rank_one_idx = {s_.index: s_ for s_ in supports}
    aa = a @ a.conj().T
    aa_top = float(np.linalg.eigvalsh(hermitian_part(aa))[-1])

    def attempt(eps):
        return _case_d_attempt(p, u, a, aa_top, eps, full, rank_one_idx, designated, tol)

    # The checks pull in opposite directions: positivity, closure and the
    # solve want eps small, while the widening margin grows with eps. Halve
    # from the start value; once an eps fails only for being too small,
    # bisect against the nearest too-large eps so a narrow feasible window
    # between the two boundaries is not stepped over. If even the start
    # value is too small, walk upward first to bracket the window from above.
    last_problem = "schedule exhausted"

    def bisect(lo, hi):
        nonlocal last_problem
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            result = attempt(mid)
            if isinstance(result, Witness):
                return result
            problem, needs_larger = result
            last_problem = problem
            if needs_larger:
                lo = mid
            else:
                hi = mid
        return None

    eps = _EPS_START
    too_large = None
    for _ in range(_EPS_HALVINGS):
        result = attempt(eps)
        if isinstance(result, Witness):
            return result
        problem, needs_larger = result
        last_problem = problem
        if not needs_larger:
            too_large = eps
            eps *= 0.5
            continue
        if too_large is None:
            lo = eps
            for up in (0.4, 0.55, 0.7, 0.85, 0.95):
                result = attempt(up)
                if isinstance(result, Witness):
                    return result
                problem, needs_larger = result
                last_problem = problem
                if needs_larger:
                    lo = up
                else:
                    too_large = up
                    break
            if too_large is None:
                break  # margin infeasible even close to eps = 1
            found = bisect(lo, too_large)
        else:
            found = bisect(eps, too_large)
        if found is not None:
            return found
        break
    raise EpsilonSearchFailed(f"case-(d) eps search failed; last problem: {last_problem}")


def _case_d_attempt(p, u, a, aa_top, eps, full, rank_one_idx, designated, tol):
    """One eps trial for case (d).

    Returns a Witness, or ``(problem, needs_larger)`` where ``needs_larger``
    says which way to move eps: the widening margin and the contraction
    want eps larger, everything else wants it smaller.
    """
    d = p.dim
    k, m = a.shape
    coeff = 1.0 / (1.0 - eps**2) ** 2 - 1.0  # closure forces B^2 = 1 - coeff A A^dagger
    if coeff * aa_top >= 1.0 - 1e-9:
        return f"B(eps) undefined at eps={eps}", False
    b_mat = psd_sqrt(np.eye(k) - coeff * (a @ a.conj().T), tol)

    r_v = np.zeros((d, d), dtype=complex)
    r_v[:k, :k] = b_mat
    r_v[:k, k:] = -a / (1.0 - eps**2)
    r_w = np.zeros((d, d), dtype=complex)
    r_w[:k, k:] = a
    r_w[k:, k:] = np.eye(m)
    m1 = eps * r_v
    m2 = eps * r_w
    m3 = math.sqrt(1.0 - eps**2) * (r_v + r_w)

    kraus = [u @ mk.conj().T @ u.conj().T for mk in (m1, m2, m3)]
    try:
        channel = KrausChannel.build(kraus, tol)
    except ClosureViolation as exc:
        return f"closure failed at eps={eps}: {exc}", False
    if channel.closure_residual() > CLOSURE_RESIDUAL_TOL:
        return f"closure residual above contract at eps={eps}", False

    targets = np.stack([np.eye(d)] + [e.matrix for e in p.elements])
    try:
        solved = superop_solve(superop_matrix(channel.kraus), targets, MAP_RESIDUAL_TOL)
    except SingularSuperop as exc:
        return f"{exc} at eps={eps}", False
    if np.linalg.norm(solved[0] - np.eye(d)) > MAP_RESIDUAL_TOL:
        return f"identity probe failed at eps={eps}", False

    q_solve = solved[1:]
    q_mats = list(q_solve)
    c_designated = None
    for i, s_ in rank_one_idx.items():
        psi_ad = u.conj().T @ s_.ket
        phi_ad = np.linalg.solve(m3, psi_ad)
        phi = u @ phi_ad
        phi = phi / np.linalg.norm(phi)
        image = apply(channel, np.outer(phi, phi.conj()))
        c_i = float(np.trace(image).real)
        target = c_i * np.outer(s_.ket, s_.ket.conj())
        if np.linalg.norm(image - target) > MAP_RESIDUAL_TOL * max(1.0, c_i):
            return f"rank-one image not colinear at eps={eps}", False
        q_direct = (s_.weight / c_i) * np.outer(phi, phi.conj())
        if np.linalg.norm(q_direct - q_solve[i]) > MAP_RESIDUAL_TOL * max(
            1.0, np.linalg.norm(q_direct)
        ):
            return f"closed form and linear solve disagree at eps={eps}", False
        q_mats[i] = hermitian_part(q_direct)
        if i == designated.index:
            c_designated = c_i

    if c_designated is None or c_designated >= 1.0 - 1e-9:
        return f"designated contraction C={c_designated} not below 1 at eps={eps}", True
    margin = designated.weight / c_designated - designated.weight
    if margin < WIDENING_MARGIN:
        return f"widening margin {margin:.2e} below contract at eps={eps}", True

    for i in full:
        w_i = np.linalg.eigvalsh(q_mats[i])
        if w_i[0] < -1e-12 * max(1.0, w_i[-1]):
            return f"full-rank image loses positivity at eps={eps}", False

    q = validate(q_mats, tol, p.labels)
    return Witness(q, channel, designated.index, "d", eps, MAX_EIG_INCREASE)
