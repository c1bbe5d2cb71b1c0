"""The package namespace: the README's entry points plus the types a caller names."""

import re
from pathlib import Path

import cleanpovm

TYPES = {
    "Povm",
    "Witness",
    "WitnessReport",
    "CleannessVerdict",
    "VerdictReason",
    "KrausChannel",
    "Tolerances",
    "DEFAULT_TOL",
    "CleanPovmError",
}


def readme_entry_points() -> set[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listing = text.split("Main entry points:", 1)[1].split("`.", 1)[0] + "`"
    names = set()
    for name in re.findall(r"`([A-Za-z_.]+)`", listing):
        if name.endswith("_a..d"):
            names.update(name[:-4] + tag for tag in "abcd")
        else:
            names.add(name)
    return names


def test_all_is_the_readme_entry_points_and_the_types():
    """Every listed entry point is exported and importable, and nothing else is."""
    entry_points = readme_entry_points()
    assert {"validate", "decide_clean", "witness_case_d", "random_split_povm"} <= entry_points
    assert entry_points.isdisjoint(TYPES)
    assert set(cleanpovm.__all__) == entry_points | TYPES
    assert len(cleanpovm.__all__) == len(set(cleanpovm.__all__))
    namespace = {}
    exec("from cleanpovm import *", namespace)
    assert set(cleanpovm.__all__) <= set(namespace)
