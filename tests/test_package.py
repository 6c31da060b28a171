import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cvcat

LIBRARY = [m.name for m in pkgutil.iter_modules(cvcat.__path__) if m.name != "cli"]
SOURCES = sorted(Path(cvcat.__file__).parent.glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in cvcat.__all__ if not hasattr(cvcat, name)]
    assert missing == []


@pytest.mark.parametrize("name", LIBRARY)
def test_module_exports_are_package_exports(name):
    module = importlib.import_module(f"cvcat.{name}")
    assert set(getattr(module, "__all__", ())) <= set(cvcat.__all__)


def _imported_modules(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_cli_imports_json():
    """The library returns values; cvcat.cli writes every document."""
    assert [p.stem for p in SOURCES if "json" in _imported_modules(p)] == ["cli"]


def _package_imports(path: Path) -> set:
    """The cvcat modules that a source file imports, relatively or not."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("cvcat."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("cvcat."):
                names.add(module.split(".")[1])
            elif (node.level == 1 and not module) or module == "cvcat":
                names.update(alias.name for alias in node.names)
            elif node.level == 1:
                names.add(module.split(".")[0])
    return names


def test_oracle_shares_no_code_with_the_airy_kernel():
    """The quadrature oracle checks the closed form only while it is built
    without the Airy evaluation, and the Airy kernel stands alone."""
    source = Path(cvcat.__file__).parent
    assert "special_numerics" not in _package_imports(source / "oracle.py")
    assert "states" not in _package_imports(source / "special_numerics.py")


def test_library_has_no_assert():
    """python -O strips assert statements, so no library check may be one."""
    found = [f"{p.name}:{node.lineno}" for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_the_gate_takes_its_regime_runs_from_the_airy_kernel():
    """special_numerics._runs alone chooses between a binary search and
    masks: gate.py calls no searchsorted, and _factor builds no regime mask
    of its own, by comparison or by isfinite, but calls _runs."""
    tree = ast.parse((Path(cvcat.__file__).parent / "gate.py")
                     .read_text(encoding="utf-8"))

    def names(node):
        return {n.attr if isinstance(n, ast.Attribute) else n.id
                for n in ast.walk(node)
                if isinstance(n, (ast.Attribute, ast.Name))}

    factor = next(n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == "_factor")
    assert "searchsorted" not in names(tree)
    assert [n.lineno for n in ast.walk(factor)
            if isinstance(n, ast.Compare)] == []
    assert "isfinite" not in names(factor) and "_runs" in names(factor)
