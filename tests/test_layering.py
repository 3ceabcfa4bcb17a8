"""Import layering of the package, read from the source with ``ast``.

The data generators sit below the estimators: ``datagen`` may not import
the posterior, the forecasters, the batch estimators, the bounds engine or
the CLI.  The CLI is the top layer: only the ``python -m seqsew`` entry
point, ``__main__``, imports it."""

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
