"""Module boundaries: a rule that several modules share is public, and
every import is used.

A `_`-prefixed name is private to its module, so no module of the package
imports one from a sibling; a shared rule lives under a public name (as
`errors.check_trits` does) where every caller can see it.  The only imports
a module does not use are the bindings that benchmarks/tracing.py wraps.
"""

import ast
import importlib.util
import inspect
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


def load_tracing():
    """benchmarks/tracing.py, loaded from its file as a module of its own."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("oxcim_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def imports(source):
    """(line, imported name, marked `# noqa: F401`?) of each top-level
    import statement's names."""
    lines = source.splitlines()
    return [(node.lineno, (alias.asname or alias.name).split(".")[0],
             any("# noqa: F401" in line
                 for line in lines[node.lineno - 1:node.end_lineno]))
            for node in ast.parse(source).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names]


def test_unused_imports_are_tracer_bindings():
    """An import a module does not use is marked `# noqa: F401` and names a
    binding that benchmarks/tracing.py wraps; the package's __init__ only
    re-exports."""
    assert imports("import numpy as np\nfrom . import a  # noqa: F401\n"
                   ) == [(1, "np", False), (2, "a", True)]
    bindings = {(owner.__name__, name)
                for owner, name, *_ in load_tracing().PATCH_POINTS
                if inspect.ismodule(owner)}
    assert ("oxcim.hardware", "sense_to_activation") in bindings
    unused, untraced = [], []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        used = {node.id for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Name)}
        module = f"oxcim.{path.stem}"
        for line, name, marked in imports(source):
            if marked and (module, name) not in bindings:
                untraced.append((path.name, line, name))
            elif not marked and name not in used:
                unused.append((path.name, line, name))
    assert (unused, untraced) == ([], [])
