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
    return set(re.findall(r"`([A-Za-z_.]+)`", listing))


def test_all_is_the_readme_entry_points_and_the_types():
    """Every listed entry point is exported and importable, and nothing else is."""
    entry_points = readme_entry_points()
    assert {"validate", "decide_clean", "build_witness", "random_split_povm"} <= entry_points
    assert entry_points.isdisjoint(TYPES)
    assert set(cleanpovm.__all__) == entry_points | TYPES
    assert len(cleanpovm.__all__) == len(set(cleanpovm.__all__))
    namespace = {}
    exec("from cleanpovm import *", namespace)
    assert set(cleanpovm.__all__) <= set(namespace)


#: Top-level names that no code in the package reaches, kept on purpose, each with its reason.
KEPT_UNREACHED = {
    # bench/spans.py spans it through getattr with no default, so deleting it
    # breaks every traced benchmark run (--trace 1); the tests read whole
    # bundles through it
    "load_witness_bundle",
}


def _code_references(tree: ast.Module):
    """``(name, line)`` of every name, attribute and import in ``tree``'s code
    (docstrings and comments name nothing)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.name.rsplit(".", 1)[-1], node.lineno) for alias in node.names)


def test_every_top_level_name_is_exported_or_used():
    """Each top-level function, class or constant of the package is in
    ``__all__``, referenced by code somewhere in the package outside its own
    definition, or one of :data:`KEPT_UNREACHED`, which must stay unreached."""
    package = Path(cleanpovm.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    references = {module: list(_code_references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("__") and name.endswith("__") or name in cleanpovm.__all__:
                    continue
                used = any(
                    ref == name and (other != module or not node.lineno <= line <= node.end_lineno)
                    for other, refs in references.items()
                    for ref, line in refs
                )
                if not used:
                    unused.append(name if name in KEPT_UNREACHED else f"{module}:{node.lineno} {name}")
    assert sorted(unused) == sorted(KEPT_UNREACHED)
