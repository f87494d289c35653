"""Module boundaries: a rule that several modules share is public.

A `_`-prefixed name is private to its module, so no module of the package
imports one from a sibling; a shared rule lives under a public name (as
`errors.check_trits` does) where every caller can see it.
"""

import ast
from pathlib import Path

import oxcim

SOURCES = sorted(Path(oxcim.__file__).parent.glob("*.py"))


def private_imports(source):
    """(line, module, name) of each relative import of a `_`-prefixed name."""
    return [(node.lineno, "." * node.level + (node.module or ""), alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    assert "errors.py" in {p.name for p in SOURCES}
    assert private_imports("from .quant import _as_trits, act_binary\n"
                           "from . import _cache\nfrom numpy import _x\n"
                           ) == [(1, ".quant", "_as_trits"), (2, ".", "_cache")]
    found = {p.name: private_imports(p.read_text(encoding="utf-8"))
             for p in SOURCES}
    assert {name: hits for name, hits in found.items() if hits} == {}
