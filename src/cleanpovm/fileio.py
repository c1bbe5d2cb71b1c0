"""JSON file formats for POVMs and witness bundles.

Complex entries are stored as two-element arrays ``[re, im]`` of decimal
floats (locale-proof, and round-tripped bit-exactly by the shortest-repr
float encoding); on reading, an entry must be a number other than
``true``/``false``, every ``dim`` an integer, and a bundle's ``epsilon`` a
finite number. Element indices in files are 1-based. In-memory trees
(``povm_to_json``, ``witness_bundle_to_json``) hold matrices as numpy
arrays; :func:`dumps_canonical` is the one place a matrix becomes text, and
its output equals ``json.dumps(tree, indent=2, sort_keys=True)`` plus a
newline, with each array written as its rows of ``[re, im]`` pairs. It
formats each distinct float magnitude of a document once. Serialization is
canonical (sorted keys, two-space indent, trailing newline), so
``serialize(parse(serialize(x))) == serialize(x)`` byte for byte. Files are
read as UTF-8; an unreadable, undecodable or unwritable file is a
:class:`FileFormatError`, and so is text that ``json.loads`` cannot decode
(nesting too deep, an integer too long to convert).
:func:`load_verify_inputs` decodes the target POVM once: a bundle whose
``povm_p`` is the target file's text, nested as the writer nests it, is not
decoded a second time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .channel import KrausChannel
from .errors import CleanPovmError, InvalidMatrix
from .linalg import DEFAULT_TOL, Tolerances
from .povm import Povm, povm_unchecked, validate
from .witness import MAX_EIG_INCREASE, MIN_EIG_DECREASE, Witness


class FileFormatError(CleanPovmError):
    """Input file does not conform to the documented schema."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _boolean_entry(rows, a: np.ndarray) -> bool:
    """Whether a JSON ``true``/``false`` stands among ``rows``, which parsed to ``a``.

    A boolean parses as 0 or 1, so only the entries with those values are looked up.
    """
    values = a.view(float)
    r, c = np.nonzero((values == 0) | (values == 1))
    return any(type(rows[i][j // 2][j % 2]) is bool for i, j in zip(r.tolist(), c.tolist()))


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
    if _boolean_entry(rows, a):
        raise FileFormatError(f"{context}: entries must be numbers, not true/false")
    return a


def povm_to_json(povm: Povm) -> dict:
    out = {
        "dim": povm.dim,
        "elements": [e.matrix for e in povm.elements],
    }
    if povm.labels is not None:
        out["labels"] = list(povm.labels)
    return out


def _povm_parts(obj) -> tuple[list[np.ndarray], list | None]:
    """The element matrices and the labels of a POVM object, after the schema checks."""
    if not isinstance(obj, dict):
        raise FileFormatError("POVM file must contain a JSON object")
    try:
        dim, elements = obj["dim"], obj["elements"]
    except KeyError as exc:
        raise FileFormatError(f"POVM file missing dim/elements: {exc}") from exc
    if not _is_int(dim):
        raise FileFormatError(f"dim must be an integer, got {dim!r}")
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
    return mats, labels


def _povm(mats: list[np.ndarray], labels, tol: Tolerances, checked: bool = True) -> Povm:
    try:
        return (validate if checked else povm_unchecked)(mats, tol, labels)
    except InvalidMatrix as exc:
        raise FileFormatError(str(exc)) from exc


def povm_from_json(obj, tol: Tolerances = DEFAULT_TOL, checked: bool = True) -> Povm:
    """Parse a POVM object; ``checked=False`` skips the POVM axiom checks."""
    return _povm(*_povm_parts(obj), tol, checked)


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


def _check_bundle_keys(obj) -> None:
    if not isinstance(obj, dict):
        raise FileFormatError("witness bundle must be a JSON object")
    for key in ("povm_p", "povm_q", "channel", "case", "epsilon", "widened_index", "direction"):
        if key not in obj:
            raise FileFormatError(f"witness bundle missing key {key!r}")


def _witness_from_json(obj: dict, tol: Tolerances) -> Witness:
    """The witness of a bundle whose keys are checked, ``povm_p`` aside."""
    # no axiom gates on Q either: an invalid Q is a verification outcome
    # (verify_witness check (i)), not a parse error
    q = povm_from_json(obj["povm_q"], tol, checked=False)
    ch = obj["channel"]
    try:
        dim, kraus_rows = ch["dim"], ch["kraus"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"channel block malformed: {exc}") from exc
    if not _is_int(dim):
        raise FileFormatError(f"channel dim must be an integer, got {dim!r}")
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
    if not _is_int(widened):
        raise FileFormatError(f"widened_index must be an integer, got {widened!r}")
    if not 1 <= widened <= q.n_outcomes:
        raise FileFormatError("widened_index out of range")
    epsilon = obj["epsilon"]
    if type(epsilon) not in (int, float) or not abs(epsilon) <= sys.float_info.max:
        raise FileFormatError(f"epsilon must be a finite number, got {epsilon!r}")
    return Witness(q, channel, widened - 1, case, float(epsilon), direction)


def witness_bundle_from_json(obj, tol: Tolerances = DEFAULT_TOL) -> tuple[Povm, Witness]:
    _check_bundle_keys(obj)
    target = povm_from_json(obj["povm_p"], tol)
    return target, _witness_from_json(obj, tol)


def _block(items: list[str], level: int, brackets: str = "[]") -> str:
    """A non-empty JSON container at nesting ``level`` holding rendered ``items``."""
    inner = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * level}{brackets[1]}"


def _render_matrix(matrix: np.ndarray, level: int, floats: list[np.ndarray]) -> str:
    a = np.ascontiguousarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise TypeError(f"only 2-D arrays are serializable, got shape {a.shape}")
    if a.size == 0:
        return _render([[]] * a.shape[0], level, floats)
    rows, cols = a.shape
    # one slot per float, in row-major order with re, im interleaved: the
    # float64 view of the complex array
    floats.append(a.view(float).ravel())
    pair = _block(["%s", "%s"], level + 2)
    row = _block([pair] * cols, level + 1)
    return _block([row] * rows, level)


def _float_texts(floats: list[np.ndarray]) -> list[str]:
    """The JSON text of every float, formatting each distinct magnitude once.

    ``float.__repr__`` writes the sign apart from the digits, so
    ``repr(x) == "-" * signbit(x) + repr(abs(x))`` for every finite ``x``
    (``-0.0`` included); non-finite values get ``json.dumps``'s spelling.
    """
    values = np.concatenate(floats)
    magnitudes, which = np.unique(np.abs(values), return_inverse=True)
    n = len(magnitudes)
    texts = list(map(repr, magnitudes.tolist()))
    texts += ["-" + t for t in texts]
    for j in np.flatnonzero(~np.isfinite(magnitudes)).tolist():
        texts[j] = json.dumps(magnitudes[j].item())
        texts[n + j] = json.dumps(-magnitudes[j].item())
    return np.array(texts, dtype=object)[which + n * np.signbit(values)].tolist()


def _key(k) -> str:
    # json writes a non-str key (number, bool, None) as its JSON text, quoted
    return json.dumps(k if isinstance(k, str) else json.dumps(k)).replace("%", "%%")


def _render(obj, level: int, floats: list[np.ndarray]) -> str:
    """``obj`` as a ``%`` template: one ``%s`` slot per matrix float, other text escaped."""
    if isinstance(obj, np.ndarray):
        return _render_matrix(obj, level, floats)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_key(k)}: {_render(v, level + 1, floats)}" for k, v in sorted(obj.items())]
        return _block(items, level, "{}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _block([_render(v, level + 1, floats) for v in obj], level)
    return json.dumps(obj).replace("%", "%%")


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, 2-D arrays as pair rows.

    Scalars and keys go through ``json.dumps`` (its C encoder). The matrix
    floats of the whole document are written by one ``%`` format, and each
    distinct magnitude among them is formatted once.
    """
    floats: list[np.ndarray] = []
    template = _render(obj, 0, floats) + "\n"
    return template % tuple(_float_texts(floats) if floats else ())


def save_json(path, obj) -> None:
    try:
        Path(path).write_text(dumps_canonical(obj), encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def output_dir(path) -> Path:
    """The directory ``path``, made with its parents when missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc
    return Path(path)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def _loads(text: str, path):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def load_json(path):
    return _loads(_read_text(path), path)


def save_povm(path, povm: Povm) -> None:
    save_json(path, povm_to_json(povm))


def load_povm(path, tol: Tolerances = DEFAULT_TOL) -> Povm:
    return povm_from_json(load_json(path), tol)


def save_witness_bundle(path, target: Povm, witness: Witness) -> None:
    save_json(path, witness_bundle_to_json(target, witness))


def load_witness_bundle(path, tol: Tolerances = DEFAULT_TOL) -> tuple[Povm, Witness]:
    return witness_bundle_from_json(load_json(path), tol)


_DECODER = json.JSONDecoder()
_TARGET = object()  # stands in for a povm_p that is the --povm file's text


def _bundle_tree(text: str, target_text: str) -> dict | None:
    """``json.loads(text)``, with :data:`_TARGET` for a top-level ``povm_p`` copied verbatim.

    The top-level object is read one member at a time. A ``povm_p`` value
    that starts with the JSON value of ``target_text``, a valid POVM file,
    re-indented as :func:`dumps_canonical` nests it is skipped: strict JSON
    strings hold no raw newline, so re-indenting changes only whitespace
    between tokens and the skipped text decodes to the target's tree. Any
    other top level (not an object, a bad member, trailing data, a decode
    error) gives ``None``: the caller then runs ``json.loads`` on the whole
    text, so the file fails or decodes exactly as it would there.
    """
    nested = target_text.strip(" \t\n\r").replace("\n", "\n  ")
    ws = json.decoder.WHITESPACE.match  # what json skips between tokens
    obj = {}
    try:
        i = ws(text).end()
        if text[i : i + 1] != "{":
            return None
        i = ws(text, i + 1).end()
        while text[i : i + 1] == '"':
            key, i = _DECODER.raw_decode(text, i)
            i = ws(text, i).end()
            if text[i : i + 1] != ":":
                return None
            i = ws(text, i + 1).end()
            if key == "povm_p" and text.startswith(nested, i):
                obj[key], i = _TARGET, i + len(nested)
            else:
                obj[key], i = _DECODER.raw_decode(text, i)
            i = ws(text, i).end()
            if text[i : i + 1] == "}":
                return obj if ws(text, i + 1).end() == len(text) else None
            if text[i : i + 1] != ",":
                return None
            i = ws(text, i + 1).end()
    except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
        pass
    return None


def load_verify_inputs(povm_path, witness_path, tol: Tolerances = DEFAULT_TOL) -> tuple[Povm, Witness]:
    """The target POVM file and the witness of a bundle, as ``cleanpovm verify`` reads them.

    The bundle's ``povm_p`` passes or fails as :func:`load_witness_bundle`
    would decide, but when it is the ``--povm`` file's text, re-indented as
    the bundle writer nests it, it is neither decoded nor validated again
    (:func:`_bundle_tree`); any other ``povm_p`` is decoded and validated.
    """
    target_text = _read_text(povm_path)
    target = _povm(*_povm_parts(_loads(target_text, povm_path)), tol)
    bundle_text = _read_text(witness_path)
    bundle = _bundle_tree(bundle_text, target_text)
    if bundle is None:
        bundle = _loads(bundle_text, witness_path)
    _check_bundle_keys(bundle)
    if bundle["povm_p"] is not _TARGET:
        povm_from_json(bundle["povm_p"], tol)
    return target, _witness_from_json(bundle, tol)
