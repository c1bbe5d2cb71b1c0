"""JSON file formats for POVMs and witness bundles.

Complex entries are stored as two-element arrays ``[re, im]`` of decimal
floats (locale-proof, and round-tripped bit-exactly by the shortest-repr
float encoding). Element indices in files are 1-based. In-memory trees
(``povm_to_json``, ``witness_bundle_to_json``) hold matrices as numpy
arrays; :func:`dumps_canonical` is the one place a matrix becomes text, and
its output equals ``json.dumps(tree, indent=2, sort_keys=True)`` plus a
newline, with each array written as its rows of ``[re, im]`` pairs.
Serialization is canonical (sorted keys, two-space indent, trailing
newline), so ``serialize(parse(serialize(x))) == serialize(x)`` byte for
byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channel import KrausChannel
from .errors import CleanPovmError, InvalidMatrix
from .linalg import DEFAULT_TOL, Tolerances
from .povm import Povm, povm_unchecked, validate
from .witness import MAX_EIG_INCREASE, MIN_EIG_DECREASE, Witness


class FileFormatError(CleanPovmError):
    """Input file does not conform to the documented schema."""


def matrix_from_json(rows, context: str = "matrix") -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{context}: expected a nonempty list of rows")
    if len({len(row) for row in rows if isinstance(row, list)}) > 1:
        raise FileFormatError(f"{context}: rows have inconsistent lengths")
    try:
        # unpacking admits exactly two items; complex() rejects non-numbers
        a = np.array([[complex(x, y) for x, y in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{context}: entries must be [re, im] pairs: {exc}") from exc
    if not np.all(np.isfinite(a)):
        raise FileFormatError(f"{context}: non-finite entries")
    return a


def povm_to_json(povm: Povm) -> dict:
    out = {
        "dim": povm.dim,
        "elements": [e.matrix for e in povm.elements],
    }
    if povm.labels is not None:
        out["labels"] = list(povm.labels)
    return out


def povm_from_json(obj, tol: Tolerances = DEFAULT_TOL, checked: bool = True) -> Povm:
    """Parse a POVM object; ``checked=False`` skips the POVM axiom checks."""
    if not isinstance(obj, dict):
        raise FileFormatError("POVM file must contain a JSON object")
    try:
        dim = int(obj["dim"])
        elements = obj["elements"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"POVM file missing dim/elements: {exc}") from exc
    if not isinstance(elements, list) or not elements:
        raise FileFormatError("POVM file needs a nonempty elements list")
    mats = [matrix_from_json(rows, f"element {i + 1}") for i, rows in enumerate(elements)]
    if any(m.shape != (dim, dim) for m in mats):
        raise FileFormatError(f"element shapes do not match dim = {dim}")
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or len(labels) != len(mats)
    ):
        raise FileFormatError("labels must be a list matching the element count")
    try:
        return (validate if checked else povm_unchecked)(mats, tol, labels)
    except InvalidMatrix as exc:
        raise FileFormatError(str(exc)) from exc


def witness_bundle_to_json(target: Povm, witness: Witness) -> dict:
    return {
        "povm_p": povm_to_json(target),
        "povm_q": povm_to_json(witness.q),
        "channel": {
            "dim": witness.channel.dim,
            "kraus": list(witness.channel.kraus),
        },
        "case": witness.case_tag,
        "epsilon": float(witness.epsilon),
        "widened_index": witness.widened_index + 1,
        "direction": witness.direction,
    }


def witness_bundle_from_json(obj, tol: Tolerances = DEFAULT_TOL) -> tuple[Povm, Witness]:
    if not isinstance(obj, dict):
        raise FileFormatError("witness bundle must be a JSON object")
    for key in ("povm_p", "povm_q", "channel", "case", "epsilon", "widened_index", "direction"):
        if key not in obj:
            raise FileFormatError(f"witness bundle missing key {key!r}")
    target = povm_from_json(obj["povm_p"], tol)
    # no axiom gates on Q either: an invalid Q is a verification outcome
    # (verify_witness check (i)), not a parse error
    q = povm_from_json(obj["povm_q"], tol, checked=False)
    ch = obj["channel"]
    try:
        dim = int(ch["dim"])
        kraus_rows = ch["kraus"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"channel block malformed: {exc}") from exc
    if not isinstance(kraus_rows, list):
        raise FileFormatError("channel kraus must be a list of matrices")
    kraus = [matrix_from_json(rows, f"kraus {i + 1}") for i, rows in enumerate(kraus_rows)]
    if not kraus or any(k.shape != (dim, dim) for k in kraus):
        raise FileFormatError("kraus operator shapes do not match channel dim")
    # no closure gate here: a broken closure is a verification outcome
    # (verify_witness check (ii)), not a parse error
    channel = KrausChannel(dim, tuple(kraus))
    case = obj["case"]
    if case not in ("a", "b", "c", "d"):
        raise FileFormatError(f"unknown case tag {case!r}")
    direction = obj["direction"]
    if direction not in (MAX_EIG_INCREASE, MIN_EIG_DECREASE):
        raise FileFormatError(f"unknown direction {direction!r}")
    widened = obj["widened_index"]
    if not isinstance(widened, int) or isinstance(widened, bool):
        raise FileFormatError(f"widened_index must be an integer, got {widened!r}")
    if not 1 <= widened <= q.n_outcomes:
        raise FileFormatError("widened_index out of range")
    try:
        epsilon = float(obj["epsilon"])
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"epsilon must be a number: {exc}") from exc
    witness = Witness(q, channel, widened - 1, case, epsilon, direction)
    return target, witness


def _block(items: list[str], level: int, brackets: str = "[]") -> str:
    """A non-empty JSON container at nesting ``level`` holding rendered ``items``."""
    inner = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * level}{brackets[1]}"


def _render_matrix(matrix: np.ndarray, level: int) -> str:
    a = np.ascontiguousarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise TypeError(f"only 2-D arrays are serializable, got shape {a.shape}")
    if a.size == 0:
        return _render([[]] * a.shape[0], level)
    rows, cols = a.shape
    # one format string for the whole matrix, filled in row-major order
    # with re, im interleaved: the float64 view of the complex array
    values = a.view(float).ravel()
    if np.isfinite(values).all():
        slot, args = "%r", values.tolist()
    else:
        slot, args = "%s", [json.dumps(v) for v in values.tolist()]
    pair = _block([slot, slot], level + 2)
    row = _block([pair] * cols, level + 1)
    return _block([row] * rows, level) % tuple(args)


def _key(k) -> str:
    # json writes a non-str key (number, bool, None) as its JSON text, quoted
    return json.dumps(k if isinstance(k, str) else json.dumps(k))


def _render(obj, level: int) -> str:
    if isinstance(obj, np.ndarray):
        return _render_matrix(obj, level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_key(k)}: {_render(v, level + 1)}" for k, v in sorted(obj.items())]
        return _block(items, level, "{}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _block([_render(v, level + 1) for v in obj], level)
    return json.dumps(obj)


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, 2-D arrays as pair rows.

    Scalars and keys go through ``json.dumps`` (its C encoder); each matrix
    is written by one ``%`` format of all its floats.
    """
    return _render(obj, 0) + "\n"


def save_json(path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj), encoding="utf-8")


def load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def save_povm(path, povm: Povm) -> None:
    save_json(path, povm_to_json(povm))


def load_povm(path, tol: Tolerances = DEFAULT_TOL) -> Povm:
    return povm_from_json(load_json(path), tol)


def save_witness_bundle(path, target: Povm, witness: Witness) -> None:
    save_json(path, witness_bundle_to_json(target, witness))


def load_witness_bundle(path, tol: Tolerances = DEFAULT_TOL) -> tuple[Povm, Witness]:
    return witness_bundle_from_json(load_json(path), tol)
