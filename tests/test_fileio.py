"""Round-trip and schema tests for the JSON file formats."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cleanpovm.cleanness import decide_clean
from cleanpovm.errors import NotPsd
from cleanpovm.fileio import (
    FileFormatError,
    dumps_canonical,
    load_povm,
    load_witness_bundle,
    povm_from_json,
    povm_to_json,
    save_povm,
    save_witness_bundle,
    witness_bundle_from_json,
    witness_bundle_to_json,
)
from cleanpovm.povm import random_povm, validate
from cleanpovm.witness import build_witness, verify_witness


def qb_not_clean():
    e1 = np.zeros((2, 2), dtype=complex)
    e1[0, 0] = 0.25
    e2 = np.zeros((2, 2), dtype=complex)
    e2[1, 1] = 0.25
    return validate([e1, e2, np.diag([0.75, 0.75]).astype(complex)])


class TestPovmFormat:
    def test_entries_round_trip_bit_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_povm("strict-quasi-qubit", 3, 4, rng)
            back = povm_from_json(json.loads(dumps_canonical(povm_to_json(p))))
            for a, b in zip(p.elements, back.elements):
                assert np.array_equal(a.matrix, b.matrix)

    def test_serialization_is_canonical(self, tmp_path):
        p = random_povm("rank-one", 2, 3, 9)
        path = tmp_path / "p.json"
        save_povm(path, p)
        text = path.read_text()
        again = dumps_canonical(povm_to_json(load_povm(path)))
        assert text == again

    def test_labels_survive(self):
        p = validate([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)], labels=["H", "V"])
        assert povm_from_json(json.loads(dumps_canonical(povm_to_json(p)))).labels == ("H", "V")

    def test_rejects_bad_schema(self):
        with pytest.raises(FileFormatError):
            povm_from_json({"dim": 2})
        with pytest.raises(FileFormatError):
            povm_from_json({"dim": 2, "elements": []})
        with pytest.raises(FileFormatError):
            povm_from_json({"dim": 2, "elements": [[[1.0, 0.0]]]})
        element = json.loads(dumps_canonical(povm_to_json(qb_not_clean())))["elements"][0]
        with pytest.raises(FileFormatError):
            povm_from_json({"dim": 3, "elements": [element]})

    def test_rejects_ragged_rows(self):
        with pytest.raises(FileFormatError, match="element 1: rows have inconsistent lengths"):
            povm_from_json({"dim": 2, "elements": [[[[1, 0], [0, 0]], [[0, 0]]]]})

    def test_rejects_non_finite(self):
        obj = json.loads(dumps_canonical(povm_to_json(qb_not_clean())))
        obj["elements"][0][0][0][0] = float("nan")
        with pytest.raises(FileFormatError):
            povm_from_json(obj)


class TestWitnessBundleFormat:
    def test_round_trip_and_verification(self, tmp_path):
        p = qb_not_clean()
        w = build_witness(p, decide_clean(p))
        path = tmp_path / "w.json"
        save_witness_bundle(path, p, w)
        target, loaded = load_witness_bundle(path)
        report = verify_witness(target, loaded)
        assert report.passed
        assert loaded.case_tag == w.case_tag
        assert loaded.widened_index == w.widened_index
        assert loaded.epsilon == w.epsilon

    def test_canonical_bytes(self, tmp_path):
        p = qb_not_clean()
        w = build_witness(p, decide_clean(p))
        blob = dumps_canonical(witness_bundle_to_json(p, w))
        reparsed = witness_bundle_from_json(__import__("json").loads(blob))
        assert dumps_canonical(witness_bundle_to_json(*reparsed)) == blob

    def test_widened_index_is_one_based_in_file(self):
        p = qb_not_clean()
        w = build_witness(p, decide_clean(p))
        obj = witness_bundle_to_json(p, w)
        assert obj["widened_index"] == w.widened_index + 1

    def test_rejects_missing_keys_and_bad_tags(self):
        p = qb_not_clean()
        w = build_witness(p, decide_clean(p))
        obj = json.loads(dumps_canonical(witness_bundle_to_json(p, w)))
        incomplete = {k: v for k, v in obj.items() if k != "channel"}
        with pytest.raises(FileFormatError):
            witness_bundle_from_json(incomplete)
        bad = dict(obj)
        bad["case"] = "z"
        with pytest.raises(FileFormatError):
            witness_bundle_from_json(bad)
        bad = dict(obj)
        bad["widened_index"] = 99
        with pytest.raises(FileFormatError):
            witness_bundle_from_json(bad)

    def test_invalid_q_parses_and_fails_check_i(self):
        p = qb_not_clean()
        w = build_witness(p, decide_clean(p))
        obj = json.loads(dumps_canonical(witness_bundle_to_json(p, w)))
        obj["povm_q"]["elements"][0] = [[[-2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        target, loaded = witness_bundle_from_json(obj)
        assert np.array_equal(loaded.q.elements[0].matrix, np.diag([-2.0, 0.0]))
        assert loaded.q.elements[0].min_eigenvalue == -2.0
        report = verify_witness(target, loaded)
        assert not report.q_valid and not report.passed
        with pytest.raises(NotPsd):
            povm_from_json(obj["povm_q"])  # a POVM file still gets the axiom checks

    @pytest.mark.parametrize(
        "key, value",
        [
            ("widened_index", "x"),
            ("widened_index", None),
            ("widened_index", 1.7),
            ("widened_index", True),
            ("epsilon", "abc"),
            ("epsilon", None),
            ("channel", {"dim": 2, "kraus": 5}),
        ],
    )
    def test_rejects_malformed_field(self, key, value):
        p = qb_not_clean()
        obj = json.loads(dumps_canonical(witness_bundle_to_json(p, build_witness(p, decide_clean(p)))))
        obj[key] = value
        with pytest.raises(FileFormatError):
            witness_bundle_from_json(obj)


_SPECIAL_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, float("nan"), float("inf"), float("-inf")]
_floats = st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
_complex_arrays = st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
    lambda shape: hnp.arrays(float, shape + (2,), elements=_floats)
).map(lambda pairs: pairs.view(complex)[..., 0])
_scalars = st.text() | st.integers() | _floats | st.booleans() | st.none()
_trees = st.recursive(
    _scalars | _complex_arrays,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=8,
)


def _arrays_as_pair_lists(tree):
    if isinstance(tree, np.ndarray):
        return [[[z.real, z.imag] for z in row] for row in tree.tolist()]
    if isinstance(tree, dict):
        return {k: _arrays_as_pair_lists(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_arrays_as_pair_lists(v) for v in tree]
    return tree


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_dumps_canonical_equals_json_dumps(tree):
    reference = json.dumps(_arrays_as_pair_lists(tree), indent=2, sort_keys=True) + "\n"
    assert dumps_canonical(tree) == reference


class TestSchemaTypes:
    """``dim`` is an integer and matrix entries are numbers, as the README documents."""

    @pytest.mark.parametrize("dim", ["2", 2.9, 2.0, True, None, [2]])
    def test_povm_dim_must_be_an_integer(self, dim):
        obj = json.loads(dumps_canonical(povm_to_json(qb_not_clean())))
        obj["dim"] = dim
        with pytest.raises(FileFormatError, match=re.escape(f"dim must be an integer, got {dim!r}")):
            povm_from_json(obj)

    @pytest.mark.parametrize("dim", ["2", 2.9, True])
    def test_channel_dim_must_be_an_integer(self, dim):
        p = qb_not_clean()
        obj = json.loads(dumps_canonical(witness_bundle_to_json(p, build_witness(p, decide_clean(p)))))
        obj["channel"]["dim"] = dim
        with pytest.raises(FileFormatError, match=re.escape(f"channel dim must be an integer, got {dim!r}")):
            witness_bundle_from_json(obj)

    @pytest.mark.parametrize("where", ["element", "kraus"])
    def test_boolean_entries_are_rejected(self, where):
        observable = {
            "dim": 2,
            "elements": [
                [[[True, False], [False, False]], [[False, False], [False, False]]],
                [[[False, False], [False, False]], [[False, False], [True, False]]],
            ],
        }
        if where == "element":
            obj, load, context = observable, povm_from_json, "element 1"
        else:
            p = qb_not_clean()
            obj = json.loads(dumps_canonical(witness_bundle_to_json(p, build_witness(p, decide_clean(p)))))
            obj["channel"]["kraus"][0][0][1] = [0, False]
            load, context = witness_bundle_from_json, "kraus 1"
        with pytest.raises(FileFormatError, match=f"{context}: entries must be numbers, not true/false"):
            load(obj)

    def test_integer_entries_are_numbers(self):
        obj = {"dim": 2, "elements": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}
        assert [e.rank for e in povm_from_json(obj).elements] == [1, 1]


def _hermitian(a: np.ndarray) -> np.ndarray:
    """The exactly Hermitian matrix with ``a``'s strict upper triangle and real diagonal.

    Mirrored entries are conjugate copies, so every magnitude appears twice,
    and the zero imaginary parts of the diagonal carry either sign.
    """
    upper = np.triu(np.ones(a.shape, dtype=bool), 1)
    h = np.where(upper, a, a.conj().T)
    h[np.diag_indices(len(h))] = a.diagonal().real
    return h


_square_arrays = st.integers(1, 5).flatmap(
    lambda d: hnp.arrays(float, (d, d, 2), elements=_floats)
).map(lambda pairs: pairs.view(complex)[..., 0])


@st.composite
def _shared_magnitude_trees(draw):
    """Documents whose matrices share magnitudes and signs, as witness bundles do.

    Exactly Hermitian matrices, bitwise and negated copies of them across
    the document (case c's Q copies elements of P), and matrices that hold
    only ``±0.0``, ``5e-324``, ``1e16``, ``1e-5``, NaN and ``±inf``.
    """
    bases = draw(st.lists(_square_arrays.map(_hermitian), min_size=1, max_size=3))
    variants = [
        (lambda m: m),
        (lambda m: m.copy()),
        (lambda m: -m),
        (lambda m: m.conj()),
    ]
    mats = [draw(st.sampled_from(variants))(draw(st.sampled_from(bases))) for _ in range(draw(st.integers(1, 6)))]
    keys = st.text(max_size=4) | st.sampled_from(["%", "%s", "100%", "%%r"])
    return draw(
        st.recursive(
            st.sampled_from(mats) | _scalars | keys,
            lambda children: (
                st.lists(children, max_size=4) | st.dictionaries(keys, children, max_size=4)
            ),
            max_leaves=10,
        )
    )


_reports = st.recursive(
    _scalars | st.sampled_from(["%", "%s", "50% of %d", "%%"]),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=4) | st.sampled_from(["%", "%(x)s"]), children, max_size=4)
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(_shared_magnitude_trees() | _reports)
def test_dumps_canonical_with_shared_magnitudes_equals_json_dumps(tree):
    reference = json.dumps(_arrays_as_pair_lists(tree), indent=2, sort_keys=True) + "\n"
    assert dumps_canonical(tree) == reference
