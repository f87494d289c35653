"""Module boundaries: a rule that several modules share is public, every
import is used, every option has a caller in the package, and refusals
share one type rule and one way of showing a value.

A `_`-prefixed name is private to its module, so no module of the package
imports one from a sibling; a shared rule lives under a public name (as
`errors.check_trits` does) where every caller can see it.  The only imports
a module does not use are the bindings that benchmarks/tracing.py wraps.
An option that only the tests set would be a public API that exists only
for its tests; a test-side reference replaces it (as the surrogate forward
of the gradient check does in test_train.py).  Only errors.check_type
refuses an object of the wrong kind ("not a ..."), and a raised message
shows a value through errors.shown, never by its repr, which for a net
runs to thousands of characters.
"""

import ast
import importlib.util
import inspect
import re
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


def refusal_faults(source):
    """(line, fault) of each raise whose message formats a value with !r
    ("repr") or starts a refusal with "not a" or "not an" ("not a")."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        for part in ast.walk(node.exc):
            if isinstance(part, ast.FormattedValue) \
                    and part.conversion == ord("r"):
                found.append((node.lineno, "repr"))
            elif isinstance(part, ast.Constant) and isinstance(
                    part.value, str) and re.match("not an? ", part.value):
                found.append((node.lineno, "not a"))
    return found


def test_refusals_share_one_type_rule_and_show_no_repr():
    assert refusal_faults(
        'raise ValueError(f"bad {x!r}")\n'
        'raise E(f"not a Net: {x}")\nraise E("not an Activation")\n'
        'msg = f"{x!r}"\nraise E(f"not {a} {x}: {shown(v)}")\n'
        'raise E(f"is not a number: {x!s}")\n'
    ) == [(1, "repr"), (2, "not a"), (3, "not a")]
    found = {p.name: refusal_faults(p.read_text(encoding="utf-8"))
             for p in SOURCES}
    assert "errors.py" in found
    found["errors.py"] = [hit for hit in found["errors.py"]
                          if hit[1] == "repr"]
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


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
# (callee, parameter) of each option that only callers outside the package
# set: an entry point's argv is how an outside caller runs it (cli.main, and
# benchmarks/run.py's main, which has the same callee name).
OUTSIDE_OPTIONS = {("main", "argv")}


def defaulted_parameters(tree):
    """(callee, parameter, position) of each defaulted parameter of a
    public function or method: the callee is the function's name, or the
    class name for __init__, and the position the parameter's index among
    a call's positional arguments (None if it is keyword-only)."""
    found = []
    scopes = [(None, tree.body)] + [
        (node.name, node.body) for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    for cls, body in scopes:
        for fn in body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_") \
                    and not (cls and fn.name == "__init__"):
                continue
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            bound = 1 if cls and not static else 0  # self or cls
            callee = cls if fn.name == "__init__" else fn.name
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            found += [(callee, a.arg, i - bound)
                      for i, a in enumerate(args) if i >= first]
            found += [(callee, a.arg, None)
                      for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None]
    return found


def passed_arguments(trees):
    """callee name -> (keywords passed, most positional arguments passed)
    over every call in trees; a * or ** argument passes them all."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords, most = calls.get(name, (set(), 0))
            keywords |= {k.arg or "**" for k in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls[name] = keywords, max(most, float("inf") if starred
                                        else len(node.args))
    return calls


def unset_options(sources):
    """(callee, parameter) of each defaulted parameter in sources, a list
    of source texts, that no call among them passes, by keyword or by
    position."""
    trees = [ast.parse(text) for text in sources]
    calls = passed_arguments(trees)
    unset = []
    for tree in trees:
        for callee, name, position in defaulted_parameters(tree):
            keywords, most = calls.get(callee, (set(), 0))
            if not ({name, "**"} & keywords
                    or position is not None and most > position):
                unset.append((callee, name))
    return unset


def test_every_option_is_set_by_a_caller_in_the_package():
    """No public API exists only for the tests: every defaulted parameter
    of a public function or method in src/ or benchmarks/ is passed by some
    call there."""
    assert unset_options([
        "def f(a, b=1, *, c=2): pass\n"
        "def g(d=1): pass\n"
        "class K:\n"
        "    def __init__(self, e=1): pass\n"
        "    def h(self, x, y=2): pass\n"
        "    def _p(self, z=3): pass\n",
        "f(0, 1)\nK().h(1)\ng(**{})\n"]) == [("f", "c"), ("K", "e"), ("h", "y")]
    paths = SOURCES + sorted(BENCHMARKS.glob("*.py"))
    assert set(unset_options([path.read_text(encoding="utf-8")
                              for path in paths])) == OUTSIDE_OPTIONS
