"""Static hygiene of the library source: every imported name is used, every
top-level definition is referenced (a public one by the library or by the
package's exports), the package exports exactly what its `__init__`
imports, no process-global cache is added, no function takes the
complexity cap as a parameter, no module reaches into another's private
names, every library name the benchmark tracer hooks still exists,
every `check_*` name in `harness` is one of its own checks, no library
module imports or calls a family-building wrapper, no module but
`relpairs` reads the packed pair layout, and no cached function charges
the complexity cap."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finclone"
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that nothing else in the module
    reads.  `__future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detector_flags_unused_and_keeps_used():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\nprint(sys, c)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _referenced_names(node: ast.AST) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))]


def unreferenced(sources: dict[str, str], private: bool) -> list[str]:
    """Private, or public, top-level functions and classes that no module
    references outside their own definition; an import, such as the
    package's `__init__` exporting a name, is a reference."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    return [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private
            and everywhere[node.name] == _referenced_names(node).count(node.name)]


def test_private_detector_flags_unreferenced_and_keeps_referenced():
    sources = {
        "a.py": "def _dead(n):\n    return _dead(n - 1)\n\ndef _called():\n    pass\n\n"
                "class _Base:\n    pass\n\ndef _imported():\n    pass\n\n_called()\n",
        "b.py": "from .a import _imported\n\nclass C(a._Base):\n    pass\n",
    }
    assert unreferenced(sources, private=True) == ["a.py: _dead"]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced(sources, private=True) == []


def test_public_detector_flags_unused_and_keeps_exported_or_referenced():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": "def exported():\n    return helper()\n\ndef helper():\n    pass\n\n"
                "def dead(n):\n    return dead(n - 1)\n\nclass Spec:\n    pass\n\n"
                "class Unused:\n    pass\n\ndef _private():\n    pass\n",
        "b.py": "from .a import Spec\n\ndef _use(s: Spec):\n    pass\n",
    }
    assert unreferenced(sources, private=False) == ["a.py: dead", "a.py: Unused"]


def test_no_unreferenced_public_definitions():
    # every public function or class is exported or used by the library
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced(sources, private=False) == []


def test_all_matches_init_imports():
    import finclone

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(finclone.__all__) == sorted(imported)
    assert len(set(finclone.__all__)) == len(finclone.__all__)
    assert [n for n in finclone.__all__ if not hasattr(finclone, n)] == []


# the process-global caches the library has; one may be removed, none added
KNOWN_CACHES = {"preserve.py: op_image_mask", "preserve.py: _scopes"}


def _is_cache(decorator: ast.expr) -> bool:
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def cached_functions(sources: dict[str, str]) -> set[str]:
    """Functions, methods included, decorated with `functools.lru_cache` or
    `functools.cache`, bare or called, by module or by imported name."""
    return {f"{module}: {node.name}" for module, source in sources.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(_is_cache, node.decorator_list))}


def test_cache_detector_flags_each_form(tmp_path):
    source = ("import functools\nfrom functools import cache, lru_cache\n\n"
              "@functools.lru_cache(maxsize=None)\ndef a():\n    pass\n\n"
              "@functools.cache\ndef b():\n    pass\n\n"
              "@lru_cache\ndef c():\n    pass\n\n"
              "class D:\n    @cache\n    def d(self):\n        pass\n\n"
              "    @functools.cached_property\n    def e(self):\n        pass\n")
    assert cached_functions({"m.py": source}) == {"m.py: a", "m.py: b", "m.py: c", "m.py: d"}
    # a copy of the library with one more cache is caught
    copy = tmp_path / "core.py"
    copy.write_text((SRC / "core.py").read_text()
                    + "\n\n@functools.lru_cache(maxsize=8)\ndef _memo(x):\n    return x\n")
    assert cached_functions({"core.py": copy.read_text()}) == {"core.py: _memo"}


def test_no_new_process_global_cache():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert cached_functions(sources) - KNOWN_CACHES == set()


def _called_names(node: ast.AST) -> set[str]:
    return {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def charges_behind_caches(sources: dict[str, str]) -> list[str]:
    """Each cached function (`cached_functions`) that calls `check_cap`,
    directly or through functions that do, the call graph taken by name
    over every function and method of `sources`: a charge behind a cache is
    taken only on a miss, so a refusal would depend on what ran before."""
    calls: dict[str, set[str]] = {}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls.setdefault(node.name, set()).update(_called_names(node))
    charging, grown = {"check_cap"}, True
    while grown:
        grown = False
        for name, called in calls.items():
            if name not in charging and called & charging:
                charging.add(name)
                grown = True
    return sorted(name for name in cached_functions(sources)
                  if name.split(": ")[1] in charging)


def test_charge_detector_follows_calls_by_name():
    source = ("from functools import lru_cache\nfrom . import core\n\n"
              "def _charged(n):\n    core.check_cap('x', n)\n\n"
              "def _through(n):\n    return _charged(n)\n\n"
              "@lru_cache\ndef direct(n):\n    check_cap('y', n)\n\n"
              "@lru_cache(maxsize=8)\ndef deep(n):\n    return [_through(m) for m in range(n)]\n\n"
              "@lru_cache\ndef free(n):\n    return lane_bytes(n)\n\n"
              "def caller(n):\n    check_cap('z', n)\n    return free(n)\n")
    lib = "def lane_bytes(size):\n    raise CapExceeded('w', size, 1)\n"
    assert charges_behind_caches({"m.py": source, "core.py": lib}) == ["m.py: deep",
                                                                        "m.py: direct"]
    # a copy of the library with a cache over a charging row function is caught
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    sources["preserve.py"] += ("\n\n@lru_cache(maxsize=8)\ndef _memo(rows, n, k):\n"
                               "    return polp_rows(rows, n, k)\n")
    assert charges_behind_caches(sources) == ["preserve.py: _memo"]


def test_no_charge_behind_a_cache():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert charges_behind_caches(sources) == []


# the complexity cap is scoped (`core.capped`), never passed down a call chain
FORBIDDEN_PARAMETERS = {"cap", "max_pairs"}


def cap_parameters(sources: dict[str, str]) -> list[str]:
    """Functions, methods and lambdas with a parameter named in
    FORBIDDEN_PARAMETERS."""
    return [f"{module}:{node.lineno}: {getattr(node, 'name', 'lambda')}({arg.arg})"
            for module, source in sources.items() for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for arg in (*node.args.posonlyargs, *node.args.args, node.args.vararg,
                        *node.args.kwonlyargs, node.args.kwarg)
            if arg is not None and arg.arg in FORBIDDEN_PARAMETERS]


def test_cap_parameter_detector_flags_each_form():
    source = ("def a(x, cap=1):\n    pass\n\n"
              "def b(*, max_pairs):\n    pass\n\n"
              "class C:\n    def c(self, cap, /):\n        pass\n\n"
              "d = lambda a, p, k, cap: a\n\n"
              "def e(x, capped=1, limit=2, **kw):\n    return check_cap('e', x)\n\n"
              "def f(*cap, g=lambda max_pairs: 0):\n    pass\n")
    assert cap_parameters({"m.py": source}) == [
        "m.py:1: a(cap)", "m.py:4: b(max_pairs)", "m.py:16: f(cap)", "m.py:8: c(cap)",
        "m.py:11: lambda(cap)", "m.py:16: lambda(max_pairs)"]


def test_no_cap_parameter():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert cap_parameters(sources) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(sources: dict[str, str]) -> list[str]:
    """Private names a module takes from another: `from m import _x`,
    `import m._x`, and `m._x` on a module bound by `import m` or
    `from . import m`.  Dunder names are not private."""
    out = []
    for module, source in sources.items():
        tree = ast.parse(source)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
                out += [f"{module}:{node.lineno}: import {alias.name}" for alias in node.names
                        if any(map(_private, alias.name.split(".")))]
            elif isinstance(node, ast.ImportFrom):
                if node.module is None:
                    modules.update(alias.asname or alias.name for alias in node.names)
                source_module = "." * node.level + (node.module or "")
                out += [f"{module}:{node.lineno}: from {source_module} import {alias.name}"
                        for alias in node.names if _private(alias.name)]
        out += [f"{module}:{node.lineno}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)]
    return out


def test_private_import_detector_flags_each_form():
    source = ("from __future__ import annotations\nimport sys, os.path\n"
              "from .core import _LANE_ORDER, pack\nfrom . import core\n"
              "from .lanes import _helper as helper\nimport pkg._impl\n\n"
              "order = core._LANE_ORDER\nframe = sys._getframe\n"
              "name = core.__name__ + pack.__doc__\n\n"
              "class C:\n    def f(self):\n        return self._x, C._y\n")
    assert private_imports({"m.py": source}) == [
        "m.py:3: from .core import _LANE_ORDER", "m.py:5: from .lanes import _helper",
        "m.py:6: import pkg._impl",
        "m.py:8: core._LANE_ORDER", "m.py:9: sys._getframe"]


def test_no_private_imports():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert private_imports(sources) == []


def tracer_hooks(source: str) -> tuple[list[tuple[str, str, str]], set[tuple[str, str]]]:
    """The (layer, module, attribute) entries of SPAN_HOOKS and LEAF_HOOKS in
    the tracer's source, and the (layer, parameter) pairs that the handler
    `_after` maps each layer to reads through `_bound`."""
    tree = ast.parse(source)
    hooks = [hook for node in tree.body if isinstance(node, ast.Assign)
             and getattr(node.targets[0], "id", None) in ("SPAN_HOOKS", "LEAF_HOOKS")
             for hook in ast.literal_eval(node.value)]
    bound = {node.name: {call.args[-1].value for call in ast.walk(node)
                         if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_bound"}
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    after = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "attr", None) == "_after")
    return hooks, {(layer.value, name) for layer, handler in zip(after.keys, after.values)
                   for name in bound[handler.attr]}


def test_tracer_hook_reader_reads_each_form():
    source = ("HOOKS = ((\"x\", \"m\", \"x\"),)\nSPAN_HOOKS = (  # note\n    (\"a.f\", \"m\", \"f\"),\n)\n"
              "LEAF_HOOKS = ((\"a.g\", \"m\", \"g\"),)\n\nclass T:\n    def __init__(self):\n"
              "        self._after = {\"a.f\": self._after_f}\n\n"
              "    def _after_f(self, fn, args, kwargs):\n"
              "        return _bound(fn, args, kwargs, \"k\"), _bound(fn, args, kwargs, \"n\")\n")
    assert tracer_hooks(source) == ([("a.f", "m", "f"), ("a.g", "m", "g")],
                                    {("a.f", "k"), ("a.f", "n")})


def test_tracer_hooks_name_live_library_functions():
    # the tracer reports a metric "absent" when its hook is gone, so a
    # rename here would silently empty a traced row; read, never import, it
    hooks, bound = tracer_hooks(TRACING.read_text())
    functions = {layer: getattr(importlib.import_module(module), attr, None)
                 for layer, module, attr in hooks}
    assert [layer for layer, fn in functions.items() if fn is None] == []
    assert hasattr(functions["preserve.op_image_mask"], "cache_info")
    assert bound >= {("preserve.polp", "k"), ("preserve.polp", "n"),
                     ("relpairs.rpclone_generate_stable", "target_cap")}
    for layer, name in bound:
        assert name in inspect.signature(functions[layer]).parameters, (layer, name)


def test_harness_check_names_are_checks():
    # the tracer times every `check_*` attribute of harness as a harness
    # check, so a function imported under such a name would be timed as one
    harness = importlib.import_module("finclone.harness")
    assert [name for name, value in vars(harness).items() if name.startswith("check_")
            and getattr(value, "__module__", None) != harness.__name__] == []


# the wrappers that build an `OpFamily` or `PairFamily` from a row function:
# the public API and the tests' oracles, which the library itself neither
# imports nor calls, so that every check runs on value tables and masks
WRAPPERS = {"polp", "pol", "invp", "inv", "sloc_ops", "loc_ops",
            "semiclone_nary_part", "clone_nary_part", "semigroup_generate"}


def wrapper_uses(source: str) -> list[str]:
    """Each `from ... import` of a WRAPPERS name and each call of one, by
    its name or as a module attribute, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name in WRAPPERS]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in WRAPPERS:
                found.append((node.lineno, f"call {name}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_wrapper_detector_flags_imports_and_calls():
    source = ("from .preserve import polp, polp_tables\nfrom . import generation\n"
              "from .preserve import sloc_ops as closure\n\n"
              "def pol(Q):\n    return polp_tables(Q, 1, 2)\n\n"
              "x = generation.clone_nary_part(F, 1, 2)\ny = closure(F, 1, 1, 2)\n"
              "z = invp\nw = [inv(F, m, 2) for m in range(3)]\n")
    assert wrapper_uses(source) == ["line 1: import polp", "line 3: import sloc_ops",
                                    "line 8: call clone_nary_part", "line 11: call inv"]


def test_checks_import_no_wrapper():
    assert wrapper_uses((SRC / "harness.py").read_text()) == []


def test_library_calls_no_wrapper():
    # the package's `__init__` exports the wrappers; no module uses them
    uses = {path.name: wrapper_uses(path.read_text()) for path in MODULES}
    assert {name: found for name, found in uses.items() if found} == {}


# the pair-clone closure keeps pairs packed as rho | rho' << k^m; every other
# module reads its pairs as (rho, rho') masks, through `RpCloneResult.masks`
PACKED_ATTRIBUTES = {"closure", "packed", "from_packed"}


def packed_reads(sources: dict[str, str]) -> list[str]:
    """Each attribute named in PACKED_ATTRIBUTES that a module other than
    relpairs.py reads, in line order."""
    out = []
    for module, source in sources.items():
        if module != "relpairs.py":
            reads = sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                           if isinstance(node, ast.Attribute) and node.attr in PACKED_ATTRIBUTES)
            out += [f"{module}:{line}: .{attr}" for line, attr in reads]
    return out


def test_packed_detector_flags_reads_outside_relpairs():
    source = ("x = sloc(gen.closure[m], s)\ny = {p.packed() for p in Q}\n"
              "z = [RelationPair.from_packed(k, m, x) for x in y]\nw = gen.masks(m)\n"
              "closure = packed = from_packed = 0\n")
    assert packed_reads({"harness.py": source, "relpairs.py": source}) == [
        "harness.py:1: .closure", "harness.py:2: .packed", "harness.py:3: .from_packed"]


def test_packed_layout_stays_in_relpairs():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert packed_reads(sources) == []
