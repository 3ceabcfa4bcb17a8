"""Import layering of the package, read from the source with ``ast``.

The data generators sit below the estimators: ``datagen`` may not import
the posterior, the forecasters, the batch estimators, the bounds engine or
the CLI.  The CLI is the top layer: only the ``python -m seqsew`` entry
point, ``__main__``, imports it.  No module imports scipy at module level:
only the quadrature oracles need it, and they import it when called.  A
``FrozenCloud`` is built only by ``PosteriorCloud.snapshot`` and
``FrozenCloud.from_json``, so a live cloud has one way to be frozen.  A
``RoundRecord`` is built only inside ``ProtocolResult``, from its columns,
so per-round rows are never a second store of a run."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqsew"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _imported_modules(name: str) -> set[str]:
    """Sibling modules of the package that ``name`` imports."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "seqsew" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "seqsew":
                continue
            inside = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inside:
                found.add(inside[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
    return found & set(MODULES)


def test_scan_sees_the_package():
    assert {"datagen", "cli", "posterior", "batch"} <= set(MODULES)
    assert "posterior" in _imported_modules("forecasters")
    assert {"batch", "bounds", "_svg"} <= _imported_modules("cli")


def test_datagen_imports_no_estimator_layer():
    assert _imported_modules("datagen") & {"posterior", "forecasters", "batch", "bounds", "cli"} == set()


@pytest.mark.parametrize("name", [m for m in MODULES if m not in ("cli", "__main__")])
def test_no_module_imports_cli(name):
    assert "cli" not in _imported_modules(name)



def _module_level_imports(source: str) -> set[str]:
    """Top-level names of the packages ``source`` imports when it is
    imported itself: everywhere but inside function bodies."""
    found: set[str] = set()
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add((node.module or "").split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending.extend(ast.iter_child_nodes(node))
    return found


def test_module_level_scan_skips_function_bodies_only():
    source = (
        "import numpy.linalg as la\n"
        "try:\n    from scipy import stats\nexcept ImportError:\n    pass\n"
        "class C:\n    import math\n    def f(self):\n        import json\n"
        "def g():\n    from scipy import integrate\n"
    )
    assert _module_level_imports(source) == {"numpy", "scipy", "math"}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_scipy_at_module_level(name):
    assert "scipy" not in _module_level_imports((PACKAGE / f"{name}.py").read_text())


def _constructions(source: str, cls_name: str) -> list[tuple[str | None, str | None]]:
    """The (class, function) around each call in ``source`` that builds a
    ``cls_name``: a call of the class under any name it is imported as,
    or of ``cls`` in the class's own methods (None at module level)."""
    tree = ast.parse(source)
    names = {cls_name} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == cls_name and alias.asname
    }
    found: list[tuple[str | None, str | None]] = []

    def visit(node: ast.AST, owner: str | None, function: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name in names or (name == "cls" and owner == cls_name):
                found.append((owner, function))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, function)

    visit(tree, None, None)
    return found


def test_construction_scan_sees_aliases_and_cls():
    source = (
        "from .posterior import FrozenCloud as Frozen\n"
        "import seqsew.posterior as p\n"
        "class FrozenCloud:\n    @classmethod\n    def load(cls):\n        return cls()\n"
        "def a():\n    return Frozen()\n"
        "def b():\n    return [p.FrozenCloud() for _ in range(2)]\n"
        "def c(cls):\n    return cls()\n"
        "top = FrozenCloud()\n"
    )
    assert _constructions(source, "FrozenCloud") == [("FrozenCloud", "load"), (None, "a"), (None, "b"), (None, None)]


@pytest.mark.parametrize("name", MODULES)
def test_only_snapshot_and_from_json_build_frozen_clouds(name):
    found = _constructions((PACKAGE / f"{name}.py").read_text(), "FrozenCloud")
    assert sorted(function for _, function in found) == (["from_json", "snapshot"] if name == "posterior" else [])


@pytest.mark.parametrize("name", MODULES)
def test_only_protocol_result_builds_round_records(name):
    found = _constructions((PACKAGE / f"{name}.py").read_text(), "RoundRecord")
    assert [owner for owner, _ in found] == (["ProtocolResult"] if name == "forecasters" else [])

