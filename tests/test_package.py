"""The package namespace: the README's entry points plus the types a caller names."""

import ast
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


def test_every_top_level_name_is_exported_or_used():
    """Each top-level function, class or constant of the package is in
    ``__all__`` or named somewhere in the package outside its own definition
    (a docstring cross-reference counts)."""
    package = Path(cleanpovm.__file__).resolve().parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    unused = []
    for module, text in sorted(sources.items()):
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            elsewhere = [
                "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :]),
                *(other for m, other in sources.items() if m != module),
            ]
            for name in names:
                if name.startswith("__") and name.endswith("__") or name in cleanpovm.__all__:
                    continue
                if not any(re.search(rf"\b{name}\b", other) for other in elsewhere):
                    unused.append(f"{module}:{node.lineno} {name}")
    assert not unused
