"""End-to-end CLI tests: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cleanpovm
from cleanpovm import cli, fileio, witness
from cleanpovm.cli import main
from cleanpovm.errors import ZeroElement
from cleanpovm.fileio import load_json, save_json, save_povm
from cleanpovm.fuzz import FuzzSummary, FuzzViolation
from cleanpovm.povm import random_split_povm, validate


@pytest.fixture
def qb_file(tmp_path):
    e1 = np.zeros((2, 2), dtype=complex)
    e1[0, 0] = 0.25
    e2 = np.zeros((2, 2), dtype=complex)
    e2[1, 1] = 0.25
    p = validate([e1, e2, np.diag([0.75, 0.75]).astype(complex)])
    path = tmp_path / "qb.json"
    save_povm(path, p)
    return path


@pytest.fixture
def trine_file(tmp_path):
    kets = [
        np.array([np.cos(t / 2), np.sin(t / 2)], dtype=complex)
        for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)
    ]
    p = validate([(2 / 3) * np.outer(k, k.conj()) for k in kets])
    path = tmp_path / "trine.json"
    save_povm(path, p)
    return path


@pytest.fixture
def oblique_file(tmp_path):
    path = tmp_path / "oblique.json"
    save_povm(path, random_split_povm(2, 1, 1, 1, seed=0, oblique=True))
    return path


class TestCheck:
    def test_not_clean_exit_code_and_bundle(self, qb_file, tmp_path, capsys):
        out = tmp_path / "w.json"
        rc = main(["check", "--input", str(qb_file), "--witness-out", str(out), "--oracle"])
        captured = capsys.readouterr().out
        assert rc == 3
        assert "not clean" in captured
        assert "PartitionSplit" in captured
        assert "agreement=True" in captured
        assert out.exists()

    def test_clean_exit_code(self, trine_file, capsys):
        rc = main(["check", "--input", str(trine_file)])
        assert rc == 0
        assert "RankOne" in capsys.readouterr().out

    def test_not_quasi_qubit_rejected(self, tmp_path, capsys):
        p = validate(
            [np.diag([0.5, 0.5, 0.0]).astype(complex), np.diag([0.5, 0.5, 1.0]).astype(complex)]
        )
        path = tmp_path / "bad.json"
        save_povm(path, p)
        rc = main(["check", "--input", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "input error: elements [1] have rank outside {1, 3}"
        )

    def test_not_psd_message_numbers_elements_from_one(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        elements = [np.diag([-0.5, 0.5]), np.diag([1.5, 0.5])]
        save_json(path, {"dim": 2, "elements": elements})
        assert main(["check", "--input", str(path)]) == 1
        assert capsys.readouterr().err == "input error: element 1: minimum eigenvalue -5.000e-01\n"

    def test_construction_breakdown_is_an_internal_failure(
        self, qb_file, tmp_path, capsys, monkeypatch
    ):
        def breaks(*args, **kwargs):
            raise ZeroElement("element 3 is numerically zero", index=2)

        monkeypatch.setattr(witness, "_case_b", breaks)
        out = tmp_path / "w.json"
        assert main(["check", "--input", str(qb_file), "--witness-out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "internal failure: witness construction failed: element 3 is numerically zero\n"
        )
        assert not out.exists()

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["check", "--input", str(path)]) == 1

    def test_json_out(self, qb_file, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["check", "--input", str(qb_file), "--json-out", str(report_path)])
        assert rc == 3
        report = load_json(report_path)
        assert report["clean"] is False
        assert report["reason"] == "PartitionSplit"
        assert report["blocks"] == [[1], [2]]

    def test_single_outcome_oracle_skipped(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_povm(path, validate([np.eye(2)]))
        rc = main(["check", "--input", str(path), "--oracle"])
        assert rc == 0
        assert "skipped" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("check", "--tol", "-1"),
        ("check", "--tol", "nan"),
        ("check", "--tol", "inf"),
        ("verify", "--tol", "-0.5"),
        ("fuzz", "--dim", "1"),
        ("fuzz", "--seed", "-1"),
        ("fuzz", "--count", "-1"),
        ("random", "--seed", "-1"),
        ("random", "--count", "-1"),
    ],
)
def test_out_of_range_argument_is_an_input_error(qb_file, tmp_path, capsys, command, flag, value):
    args = {
        "check": {"--input": str(qb_file)},
        "verify": {"--povm": str(qb_file), "--witness": str(qb_file)},
        "fuzz": {"--dim": "2", "--count": "1", "--seed": "1", "--repro-dir": str(tmp_path)},
        "random": {"--kind": "scalar", "--dim": "2", "--count": "1", "--seed": "1",
                   "--out": str(tmp_path / "r")},
    }[command] | {flag: value}
    assert main([command] + [x for pair in args.items() for x in pair]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {flag} must be")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "entry",
    ['{"re": 1, "im": 0}', "[1" + "0" * 400 + ", 0]", "[1, 0, 7]"],
    ids=["object", "beyond-float-range", "three-numbers"],
)
def test_malformed_matrix_entry_is_an_input_error(tmp_path, capsys, entry):
    # {diag(1, 0), diag(0, 1)} with the (1, 1) entry of element 1 replaced
    first = f"[[{entry}, [0, 0]], [[0, 0], [0, 0]]]"
    path = tmp_path / "p.json"
    path.write_text(f'{{"dim": 2, "elements": [{first}, [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}}')
    assert main(["check", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: element 1: entries must be [re, im] pairs")
    assert "Traceback" not in captured.err


def test_boolean_matrix_entries_are_an_input_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(
        '{"dim": 2, "elements": [[[[true, false], [false, false]], [[false, false], [false, false]]],'
        ' [[[false, false], [false, false]], [[false, false], [true, false]]]]}'
    )
    assert main(["check", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "input error: element 1: entries must be numbers, not true/false\n"
    )


def test_golden_bytes(tmp_path, monkeypatch, capsys):
    """check and verify write the committed bundle and reports byte for byte."""
    data = Path(__file__).parent / "data"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "povm.json").write_bytes((data / "golden-d3-povm.json").read_bytes())
    assert main(["check", "--input", "povm.json", "--oracle", "--witness-out", "bundle.json",
                 "--json-out", "check-report.json"]) == 3
    assert main(["verify", "--povm", "povm.json", "--witness", "bundle.json",
                 "--json-out", "verify-report.json"]) == 0
    for name in ("bundle", "check-report", "verify-report"):
        assert (tmp_path / f"{name}.json").read_bytes() == (
            data / f"golden-d3-{name}.json"
        ).read_bytes(), name


class TestVerify:
    def test_bundle_verifies(self, qb_file, tmp_path, capsys):
        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(qb_file), "--witness-out", str(bundle)]) == 3
        rc = main(["verify", "--povm", str(qb_file), "--witness", str(bundle)])
        assert rc == 0
        assert "accepted" in capsys.readouterr().out

    def test_truncated_kraus_fails_closure(self, qb_file, tmp_path, capsys):
        bundle = tmp_path / "w.json"
        main(["check", "--input", str(qb_file), "--witness-out", str(bundle)])
        obj = load_json(bundle)
        obj["channel"]["kraus"] = obj["channel"]["kraus"][:-1]
        bundle.write_text(json.dumps(obj))
        rc = main(["verify", "--povm", str(qb_file), "--witness", str(bundle)])
        assert rc == 3
        assert "channel_unital: False" in capsys.readouterr().out

    def test_tampered_q_rejected(self, qb_file, tmp_path, capsys):
        bundle = tmp_path / "w.json"
        main(["check", "--input", str(qb_file), "--witness-out", str(bundle)])
        obj = load_json(bundle)
        obj["povm_q"] = obj["povm_p"]  # Q := P kills the widening
        bundle.write_text(json.dumps(obj))
        rc = main(["verify", "--povm", str(qb_file), "--witness", str(bundle)])
        assert rc == 3
        assert "rejected" in capsys.readouterr().out

    @pytest.mark.parametrize("tamper", ["not-psd", "non-hermitian"])
    def test_invalid_q_is_a_rejection(self, oblique_file, tmp_path, capsys, tamper):
        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(oblique_file), "--witness-out", str(bundle)]) == 3
        assert "witness: case d" in capsys.readouterr().out
        obj = load_json(bundle)
        q1 = obj["povm_q"]["elements"][0]
        if tamper == "not-psd":
            for k in range(len(q1)):
                q1[k][k][0] -= 2.0  # Q_1 - 2 * identity
        else:
            q1[0][1][1] += 0.5
        bundle.write_text(json.dumps(obj))
        rc = main(["verify", "--povm", str(oblique_file), "--witness", str(bundle)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "q_valid: False" in captured.out
        assert "witness rejected" in captured.out
        assert captured.err == ""

    def test_dim_mismatch(self, qb_file, tmp_path):
        bundle = tmp_path / "w.json"
        main(["check", "--input", str(qb_file), "--witness-out", str(bundle)])
        other = tmp_path / "p3.json"
        save_povm(other, validate([np.eye(3) / 3 * 3]))
        assert main(["verify", "--povm", str(other), "--witness", str(bundle)]) == 1

    @pytest.mark.parametrize(
        "epsilon",
        ["0.5", True, float("nan"), "inf", float("inf"), 10**400],
        ids=["string", "boolean", "nan", "inf-string", "infinity", "overflowing-integer"],
    )
    def test_epsilon_must_be_a_finite_number(self, qb_file, tmp_path, capsys, epsilon):
        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(qb_file), "--witness-out", str(bundle)]) == 3
        obj = load_json(bundle)
        obj["epsilon"] = epsilon
        bundle.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", "--povm", str(qb_file), "--witness", str(bundle)]) == 1
        assert capsys.readouterr() == (
            "", f"input error: epsilon must be a finite number, got {epsilon!r}\n"
        )

    def test_integer_epsilon_is_a_number(self, qb_file, tmp_path, capsys):
        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(qb_file), "--witness-out", str(bundle)]) == 3
        obj = load_json(bundle)
        obj["epsilon"] = 0
        bundle.write_text(json.dumps(obj))
        assert main(["verify", "--povm", str(qb_file), "--witness", str(bundle)]) == 0


_QB_ACCEPTED = (
    "q_valid: True\n"
    "channel_unital: True (closure residual 0.000e+00)\n"
    "maps_to_target: True (max residual 0.000e+00)\n"
    "widened: True (margin 1.562e-02)\n"
    "witness accepted\n"
)


class TestVerifyReadsTheTargetOnce:
    """The bundle's povm_p is parsed and validated only when it differs from --povm."""

    def _verify(self, qb_file, tmp_path, capsys, edit=None):
        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(qb_file), "--witness-out", str(bundle)]) == 3
        if edit is not None:
            obj = load_json(bundle)
            edit(obj["povm_p"])
            bundle.write_text(json.dumps(obj))
        capsys.readouterr()
        code = main(["verify", "--povm", str(qb_file), "--witness", str(bundle)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_povm_p_that_is_not_a_povm_is_an_input_error(self, qb_file, tmp_path, capsys):
        def double_element_1(p):
            for row in p["elements"][0]:
                for pair in row:
                    pair[:] = [2 * x for x in pair]

        assert self._verify(qb_file, tmp_path, capsys, double_element_1) == (
            1, "", "input error: sum of elements deviates from identity by 2.500e-01\n"
        )

    def test_povm_p_with_other_labels_gives_the_same_report(self, qb_file, tmp_path, capsys):
        def relabel(p):
            p["labels"] = ["a", "b", "c"]

        assert self._verify(qb_file, tmp_path, capsys, relabel) == (0, _QB_ACCEPTED, "")
        assert self._verify(qb_file, tmp_path, capsys) == (0, _QB_ACCEPTED, "")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(dim=2.0), "dim must be an integer, got 2.0"),
            (
                lambda p: p["elements"][0][0].__setitem__(1, [False, False]),
                "element 1: entries must be numbers, not true/false",
            ),
        ],
        ids=["float-dim", "boolean-entry"],
    )
    def test_povm_p_equal_to_the_target_only_by_value_is_checked(
        self, qb_file, tmp_path, capsys, edit, message
    ):
        # 2.0 == 2 and False == 0.0, so povm_p still compares equal to the --povm tree
        assert self._verify(qb_file, tmp_path, capsys, edit) == (1, "", f"input error: {message}\n")

    @pytest.mark.parametrize("relabel, calls", [(False, 2), (True, 3)])
    def test_identical_povm_p_is_not_decomposed_again(
        self, qb_file, tmp_path, capsys, monkeypatch, relabel, calls
    ):
        count = []

        def counted(original):
            def spy(*args, **kwargs):
                count.append(1)
                return original(*args, **kwargs)

            return spy

        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(qb_file), "--witness-out", str(bundle)]) == 3
        if relabel:
            obj = load_json(bundle)
            obj["povm_p"]["labels"] = ["a", "b", "c"]
            bundle.write_text(json.dumps(obj))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        assert main(["verify", "--povm", str(qb_file), "--witness", str(bundle)]) == 0
        # the --povm file (eigh) and Q (eigvalsh); a povm_p that differs from
        # --povm is validated as well (eigh)
        assert len(count) == calls


def _reference_load_verify_inputs(povm_path, witness_path, tol=fileio.DEFAULT_TOL):
    """``load_verify_inputs`` as it read both files before the text shortcut: two
    ``json.loads`` and a tree comparison, with no ``povm_p`` validation when equal."""

    def boolean_entry(rows, a):
        values = a.view(float)
        r, c = np.nonzero((values == 0) | (values == 1))
        return any(type(rows[i][j // 2][j % 2]) is bool for i, j in zip(r.tolist(), c.tolist()))

    tree = fileio.load_json(povm_path)
    mats, labels = fileio._povm_parts(tree)
    target = fileio._povm(mats, labels, tol)
    bundle = fileio.load_json(witness_path)
    fileio._check_bundle_keys(bundle)
    p = bundle["povm_p"]
    same = (
        p == tree
        and fileio._is_int(p["dim"])
        and not any(boolean_entry(rows, m) for rows, m in zip(p["elements"], mats))
    )
    if not same:
        fileio.povm_from_json(p, tol)
    return target, fileio._witness_from_json(bundle, tol)


def _povm_p_value(text):
    """The canonical ``povm_p`` value text of a POVM file's ``text``."""
    return text.rstrip("\n").replace("\n", "\n  ")


_BAD_P = '{"dim": 2.0, "elements": [[[[1, 0]]]]}'


def _with_povm_p(value):
    return lambda text, target: text.replace(
        '"povm_p": ' + _povm_p_value(target), '"povm_p": ' + value(target), 1
    )


def _nan_in_q(text, target):
    obj = json.loads(text)
    obj["povm_q"]["elements"][0][0][0][0] = float("nan")
    return fileio.dumps_canonical(obj)


def _target_as_q(text, target):
    obj = json.loads(text)
    obj["povm_q"] = json.loads(target)
    return fileio.dumps_canonical(obj)


_BUNDLE_EDITS = {
    "verbatim": lambda text, target: text,
    "compact": _with_povm_p(lambda t: json.dumps(json.loads(t), separators=(",", ":"))),
    "tabs": _with_povm_p(lambda t: _povm_p_value(t).replace("  ", "\t")),
    # text-mode reads turn CRLF into LF, so this povm_p reads as verbatim
    "crlf": _with_povm_p(lambda t: _povm_p_value(t).replace("\n", "\r\n")),
    "duplicate-verbatim-first": _with_povm_p(
        lambda t: _povm_p_value(t) + ',\n  "povm_p": ' + _BAD_P
    ),
    "duplicate-verbatim-last": _with_povm_p(
        lambda t: _BAD_P + ',\n  "povm_p": ' + _povm_p_value(t)
    ),
    "target-under-channel": lambda text, target: _with_povm_p(lambda t: _BAD_P)(
        text, target
    ).replace('"channel": {', '"channel": {"povm_p": ' + _povm_p_value(target) + ",", 1),
    "target-in-a-label": lambda text, target: _with_povm_p(lambda t: _BAD_P)(
        text.replace("{", '{\n  "label": ' + json.dumps(_povm_p_value(target)) + ",", 1),
        target,
    ),
    "trailing-data": lambda text, target: text + "x",
    "truncated": lambda text, target: text[: len(text) // 2],
    "top-level-array": lambda text, target: "[" + text + "]",
    "bom": lambda text, target: "\ufeff" + text,
    "nan-in-povm-q": _nan_in_q,
    "target-as-povm-q": _target_as_q,  # Q = P cannot widen: rejected, exit 3
    "semicolon-for-colon": lambda text, target: text.replace('"case": ', '"case"; ', 1),
    "semicolon-for-comma": lambda text, target: text.replace(',\n  "channel"', ';\n  "channel"', 1),
    "non-string-key": lambda text, target: text.replace("{", "{1: 2,", 1),
    "empty-object": lambda text, target: "{ }",
}

_TARGET_EDITS = {
    "leading-whitespace": lambda text: " \n\t" + text,
    "trailing-blank-lines": lambda text: text + "\n\n",
}


class TestVerifyInputsMatchTheReference:
    """verify's two-file read gives the bytes and exit code of the tree comparison it replaced."""

    def _both(self, povm, bundle, capsys, monkeypatch):
        argv = ["verify", "--povm", str(povm), "--witness", str(bundle)]
        results = []
        for load in (fileio.load_verify_inputs, _reference_load_verify_inputs):
            monkeypatch.setattr(fileio, "load_verify_inputs", load)
            capsys.readouterr()
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def _bundle(self, povm_file, tmp_path):
        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(povm_file), "--witness-out", str(bundle)]) == 3
        return bundle

    @pytest.mark.parametrize("fixture", ["qb_file", "oblique_file"])
    @pytest.mark.parametrize("edit", list(_BUNDLE_EDITS))
    def test_edited_bundle(self, request, tmp_path, capsys, monkeypatch, fixture, edit):
        povm = request.getfixturevalue(fixture)
        bundle = self._bundle(povm, tmp_path)
        text = _BUNDLE_EDITS[edit](bundle.read_text(), povm.read_text())
        if edit != "verbatim":
            assert text != bundle.read_text()
        bundle.write_text(text, encoding="utf-8", newline="")
        new, reference = self._both(povm, bundle, capsys, monkeypatch)
        assert new == reference
        expected = {"verbatim": 0, "compact": 0, "tabs": 0, "crlf": 0,
                    "duplicate-verbatim-last": 0, "target-as-povm-q": 3}
        assert new[0] == expected.get(edit, 1)

    @pytest.mark.parametrize("edit", list(_TARGET_EDITS))
    def test_edited_target(self, oblique_file, tmp_path, capsys, monkeypatch, edit):
        bundle = self._bundle(oblique_file, tmp_path)
        oblique_file.write_text(_TARGET_EDITS[edit](oblique_file.read_text()))
        new, reference = self._both(oblique_file, bundle, capsys, monkeypatch)
        assert new == reference
        assert new[0] == 0

    @pytest.mark.parametrize("relabel", [False, True])
    def test_verbatim_povm_p_is_never_decoded(self, qb_file, tmp_path, monkeypatch, relabel):
        bundle = self._bundle(qb_file, tmp_path)
        if relabel:
            text = bundle.read_text()
            bundle.write_text(text.replace('"povm_p": {', '"povm_p": {"labels": ["a", "b", "c"],', 1))
        contexts, floats = [], []
        original = fileio.matrix_from_json

        def spy(rows, context="matrix"):
            contexts.append(context)
            return original(rows, context)

        def parse_float(text):
            floats.append(text)
            return float(text)

        monkeypatch.setattr(fileio, "matrix_from_json", spy)
        monkeypatch.setattr(fileio, "_DECODER", json.JSONDecoder(parse_float=parse_float))
        assert main(["verify", "--povm", str(qb_file), "--witness", str(bundle)]) == 0
        elements = ["element 1", "element 2", "element 3"]
        kraus = [c for c in contexts if c.startswith("kraus")]
        # the --povm file's elements, then Q's and the Kraus operators; povm_p's only if relabelled
        assert contexts == elements * (3 if relabel else 2) + kraus
        assert kraus
        # of the bundle's floats, povm_p's are decoded only if relabelled
        in_bundle, in_povm_p = [], []
        json.loads(bundle.read_text(), parse_float=in_bundle.append)
        json.loads(json.dumps(load_json(bundle)["povm_p"]), parse_float=in_povm_p.append)
        assert len(floats) == len(in_bundle) - (0 if relabel else len(in_povm_p)) > 0


class TestFilesThatAreNotUtf8:
    """A file that does not decode as UTF-8 is an input error, not a traceback."""

    def test_check_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"dim": 2}')
        assert main(["check", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"input error: cannot read {bad}: 'utf-8' codec")

    def test_verify_povm(self, qb_file, tmp_path, capsys):
        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(qb_file), "--witness-out", str(bundle)]) == 3
        qb_file.write_bytes(b"\xff" + qb_file.read_bytes())
        capsys.readouterr()
        assert main(["verify", "--povm", str(qb_file), "--witness", str(bundle)]) == 1
        assert capsys.readouterr().err.startswith(f"input error: cannot read {qb_file}: 'utf-8' codec")

    def test_verify_witness(self, qb_file, tmp_path, capsys):
        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(qb_file), "--witness-out", str(bundle)]) == 3
        bundle.write_bytes(bundle.read_bytes() + b"\xff")
        capsys.readouterr()
        assert main(["verify", "--povm", str(qb_file), "--witness", str(bundle)]) == 1
        assert capsys.readouterr().err.startswith(f"input error: cannot read {bundle}: 'utf-8' codec")


#: Text that json.loads cannot decode: nesting too deep, an integer too long.
UNDECODABLE_JSON = {
    "deep": ("[" * 100_000, "maximum recursion depth exceeded"),
    "long-int": ('{"dim": ' + "7" * 5_000 + "}", "Exceeds the limit (4300 digits)"),
}


@pytest.mark.parametrize("kind", sorted(UNDECODABLE_JSON))
class TestJsonThatCannotBeDecoded:
    """Text that json.loads gives up on is an input error, not a traceback."""

    def test_check_input(self, kind, tmp_path, capsys):
        text, reason = UNDECODABLE_JSON[kind]
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["check", "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot read {bad}: ") and reason in err

    def test_verify_povm(self, kind, qb_file, tmp_path, capsys):
        text, reason = UNDECODABLE_JSON[kind]
        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(qb_file), "--witness-out", str(bundle)]) == 3
        qb_file.write_text(text)
        capsys.readouterr()
        assert main(["verify", "--povm", str(qb_file), "--witness", str(bundle)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot read {qb_file}: ") and reason in err

    def test_verify_witness(self, kind, qb_file, tmp_path, capsys):
        # the bundle reader's member-by-member pass gives up too, and its
        # json.loads fallback words the error
        text, reason = UNDECODABLE_JSON[kind]
        bundle = tmp_path / "w.json"
        assert main(["check", "--input", str(qb_file), "--witness-out", str(bundle)]) == 3
        bundle.write_text(text)
        capsys.readouterr()
        assert main(["verify", "--povm", str(qb_file), "--witness", str(bundle)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot read {bundle}: ") and reason in err


class TestUnwritableOutput:
    """An output path that cannot be written is an input error, not a traceback."""

    def _fails(self, argv, path, capsys):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"input error: cannot write {path}: ")

    def test_check_json_out_in_a_missing_directory(self, qb_file, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        self._fails(["check", "--input", str(qb_file), "--json-out", str(path)], path, capsys)

    def test_check_witness_out_in_a_missing_directory(self, qb_file, tmp_path, capsys):
        path = tmp_path / "missing" / "w.json"
        self._fails(["check", "--input", str(qb_file), "--witness-out", str(path)], path, capsys)

    def test_random_out_names_a_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        self._fails(["random", "--kind", "scalar", "--dim", "2", "--count", "1", "--seed", "0",
                     "--out", str(path)], path, capsys)

    def test_fuzz_repro_dir_names_a_file(self, tmp_path, capsys, monkeypatch):
        # one planted violation, so the run writes a reproduction file
        violation = FuzzViolation(0, "scalar", "planted", {})
        monkeypatch.setattr(cli, "run_fuzz", lambda *args: FuzzSummary(2, 1, 0, 0.0, violations=[violation]))
        path = tmp_path / "taken"
        path.write_text("")
        self._fails(["fuzz", "--dim", "2", "--count", "1", "--seed", "0", "--repro-dir", str(path)],
                    path, capsys)


class TestRandom:
    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["random", "--kind", "strict-quasi-qubit", "--dim", "3",
                     "--count", "10", "--seed", "42", "--out", str(out1)]) == 0
        assert main(["random", "--kind", "strict-quasi-qubit", "--dim", "3",
                     "--count", "10", "--seed", "42", "--out", str(out2)]) == 0
        files1 = sorted(out1.iterdir())
        files2 = sorted(out2.iterdir())
        assert len(files1) == 10
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_rank_one_output_checks_clean(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["random", "--kind", "rank-one", "--dim", "2",
                     "--count", "1", "--seed", "0", "--out", str(out)]) == 0
        (path,) = sorted(out.iterdir())
        rc = main(["check", "--input", str(path)])
        assert rc == 0
        assert "RankOne" in capsys.readouterr().out

    def test_scalar_output_checks_not_clean(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["random", "--kind", "scalar", "--dim", "2",
                     "--count", "1", "--seed", "0", "--out", str(out)]) == 0
        (path,) = sorted(out.iterdir())
        rc = main(["check", "--input", str(path)])
        assert rc == 3
        assert "ScalarElements" in capsys.readouterr().out

    def test_every_file_checkable(self, tmp_path):
        out = tmp_path / "mix"
        for kind in ("rank-one", "full-rank", "strict-quasi-qubit", "scalar"):
            assert main(["random", "--kind", kind, "--dim", "3",
                         "--count", "2", "--seed", "1", "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            assert main(["check", "--input", str(path)]) in (0, 3)


class TestFuzz:
    def test_small_run_passes(self, tmp_path, capsys):
        report = tmp_path / "fuzz.json"
        rc = main(["fuzz", "--dim", "2", "--count", "40", "--seed", "1",
                   "--repro-dir", str(tmp_path), "--json-out", str(report)])
        assert rc == 0
        payload = load_json(report)
        assert payload["violations"] == []
        assert sum(payload["verdicts"].values()) == 40

    def test_summary_lists_cases(self, tmp_path, capsys):
        rc = main(["fuzz", "--dim", "3", "--count", "30", "--seed", "5",
                   "--repro-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "witness cases" in out
        assert "violations: 0" in out


def test_parser_reuse_matches_fresh_processes(qb_file, tmp_path, capsys):
    """Calls in one process give what each gives alone; no flag leaks between calls."""
    bundle, report = tmp_path / "w.json", tmp_path / "r.json"
    calls = [
        ["check", "--input", str(qb_file), "--tol", "1e-2", "--oracle", "--witness-out", str(bundle),
         "--json-out", str(report)],
        ["check", "--input", str(qb_file)],
        ["verify", "--povm", str(qb_file), "--witness", str(bundle)],
        ["random", "--kind", "scalar", "--dim", "2", "--count", "2", "--seed", "4",
         "--out", str(tmp_path / "rand")],
        ["check", "--tol", "1e-2"],  # no --input: argparse exits
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [c for c, _, _ in in_process] == [3, 3, 0, 0, 2]

    env = dict(os.environ, PYTHONPATH=str(Path(cleanpovm.__file__).parents[1]))
    for argv, got in zip(calls, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "cleanpovm", *argv], capture_output=True, text=True, env=env
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == got, argv
