"""Round-trip and schema tests for the JSON file formats."""

import numpy as np
import pytest

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
            back = povm_from_json(povm_to_json(p))
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
        assert povm_from_json(povm_to_json(p)).labels == ("H", "V")

    def test_rejects_bad_schema(self):
        with pytest.raises(FileFormatError):
            povm_from_json({"dim": 2})
        with pytest.raises(FileFormatError):
            povm_from_json({"dim": 2, "elements": []})
        with pytest.raises(FileFormatError):
            povm_from_json({"dim": 2, "elements": [[[1.0, 0.0]]]})
        with pytest.raises(FileFormatError):
            povm_from_json({"dim": 3, "elements": [povm_to_json(qb_not_clean())["elements"][0]]})

    def test_rejects_non_finite(self):
        obj = povm_to_json(qb_not_clean())
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
        obj = witness_bundle_to_json(p, w)
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
        obj = witness_bundle_to_json(p, w)
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
        obj = witness_bundle_to_json(p, build_witness(p, decide_clean(p)))
        obj[key] = value
        with pytest.raises(FileFormatError):
            witness_bundle_from_json(obj)
