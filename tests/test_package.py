"""The package surface: every exported name resolves, no module keeps an
import it never reads (``__init__``'s re-exports aside), so a deletion
cannot leave its imports behind, and no module but ``cxva.intervals``
compares a value with an infinity, so a range has no second copy."""

import ast
from pathlib import Path

import pytest

import cxva

SRC = Path(cxva.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_every_export_resolves():
    assert len(set(cxva.__all__)) == len(cxva.__all__)
    for name in cxva.__all__:
        assert getattr(cxva, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from cxva import *", namespace)
    assert set(cxva.__all__) <= set(namespace)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds in ``tree`` that no other node reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    tree = ast.parse("import math\nfrom x import a, b as c\nfrom __future__ import annotations\n"
                     "print(a)\n")
    assert unused_imports(tree) == ["math (line 1)", "c (line 2)"]


def inf_comparisons(tree: ast.Module) -> list[int]:
    """Lines of ``tree`` where a comparison reads ``math.inf`` or ``np.inf``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(n, ast.Attribute) and n.attr == "inf"
                    and isinstance(n.value, ast.Name) and n.value.id in ("math", "np")
                    for n in ast.walk(node))]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "intervals"],
                         ids=lambda p: p.stem)
def test_no_second_copy_of_an_interval(path):
    # a range is an interval constant checked by cxva.intervals.bounded, the
    # one place that compares with an infinity
    assert inf_comparisons(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_inf_comparison_is_found():
    tree = ast.parse("ok = 0 < x < math.inf\nbig = np.inf\nif y >= -np.inf:\n    pass\n")
    assert inf_comparisons(tree) == [1, 3]
