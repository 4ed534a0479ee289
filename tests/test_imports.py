"""Every module of the package, and every test file, uses each name it imports (no
linter needed)."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mzv_lab"

# names a module imports only for its users to import from it
RE_EXPORTS = {"cli.py": {"format_word"}, "products.py": {"clear_caches"}, "qseries.py": {"clear_caches"}}


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return imported - _names(tree) - {"annotations"}  # from __future__


def _names(tree: ast.AST) -> set[str]:
    # every name read, also inside a quoted annotation ("Callable[[Word], Poly]") or an
    # entry of __all__: each string that parses as an expression counts as that expression
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_uses_every_name_it_imports(module):
    unused = _unused_imports((SRC / module).read_text(encoding="utf-8"))
    assert unused <= RE_EXPORTS.get(module, set()), sorted(unused)


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_file_uses_every_name_it_imports(module):
    assert _unused_imports((TESTS / module).read_text(encoding="utf-8")) == set()


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == {"os", "b"}
    assert _unused_imports("from a import Q\n__all__ = ['Q']\n") == set()
    assert _unused_imports("from a import C, W\nx: 'C[[W], int]'\n") == set()
