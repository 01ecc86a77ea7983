"""The library's public API is what the program uses, not what tests use.

Every name a test imports from ``dtg`` must be referenced by the package,
the scripts or the benchmark harness somewhere other than inside its own
definition, or inside the definition of another name that only tests reach.
A wrapper kept alive for tests alone fails here; test the function the
program calls instead.  And every module-level function or class of the
package must be referenced by some code at all, tests included: a
definition nothing names is dead.  So is a config field that the program
never reads as an attribute outside its class: a knob whose code is gone,
and a method or property of a package class that the program never calls
or reads outside its own definition.
No module of the package imports an underscore name from another: a name
two modules share is public.
"""

import ast
import dataclasses
from pathlib import Path

from dtg.config import EvalConfig, ExperimentConfig, TeacherSpec
from dtg.corpus import CorpusSpec
from dtg.evaluation import ProbeConfig
from dtg.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = [p for d in ("src/dtg", "scripts", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py")) if not p.name.startswith("test_")]
# the finite-difference checker is the reference every gradient test rests on
TEST_ONLY = {"finite_diff_check"}
CONFIG_CLASSES = (CorpusSpec, TrainConfig, TeacherSpec, EvalConfig, ProbeConfig,
                  ExperimentConfig)


def _test_imports() -> dict[str, str]:
    """Name -> the first test file that imports it with ``from dtg... import``."""
    submodules = {p.stem for p in (ROOT / "src/dtg").glob("*.py")}
    found = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dtg":
                for alias in node.names:
                    if not (node.module == "dtg" and alias.name in submodules):
                        found.setdefault(alias.name, path.name)
    return found


def _nodes(trees):
    """(node, names of the definitions it is in) of every node of the module
    ``trees``; a definition is in itself."""
    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing + (node.name,)
        yield node, enclosing
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing)

    for tree in trees:
        yield from visit(tree, ())


def _references(trees) -> list[tuple[str, tuple[str, ...]]]:
    """(name, names of the enclosing definitions) of every identifier read in
    the module ``trees``, as a bare name or as an attribute."""
    return [(node.id if isinstance(node, ast.Name) else node.attr, enclosing)
            for node, enclosing in _nodes(trees) if isinstance(node, (ast.Name, ast.Attribute))]


def _unused(names, refs) -> set[str]:
    """Names with no reference outside their own definition and outside the
    definitions of other unused names, found by iterating to a fixed point."""
    unused = set()
    while True:
        used = {name for name, enclosing in refs
                if name in names and name not in enclosing
                and not unused.intersection(enclosing)}
        now = set(names) - used
        if now == unused:
            return unused
        unused = now


def test_every_name_tests_import_is_used_by_the_program():
    imports = _test_imports()
    program = [ast.parse(path.read_text(), str(path)) for path in PROGRAM]
    unused = _unused(set(imports) - TEST_ONLY, _references(program))
    assert not unused, "imported by tests but unused by src/dtg, scripts and perfbench: " + \
        ", ".join(f"{name} ({imports[name]})" for name in sorted(unused))


def test_every_module_level_definition_of_the_package_is_referenced():
    defined = {}
    for path in sorted((ROOT / "src/dtg").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, path.name)
    code = PROGRAM + sorted((ROOT / "tests").glob("*.py")) + \
        sorted((ROOT / "perfbench").glob("test_*.py"))
    dead = _unused(set(defined), _references(ast.parse(p.read_text(), str(p)) for p in code))
    assert not dead, "defined in src/dtg but referenced nowhere: " + \
        ", ".join(f"{name} ({defined[name]})" for name in sorted(dead))


def test_every_config_field_is_read_by_the_program():
    program = [ast.parse(path.read_text(), str(path)) for path in PROGRAM]
    reads = [(node.attr, enclosing) for node, enclosing in _nodes(program)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = [f"{cls.__name__}.{field.name}" for cls in CONFIG_CLASSES
              for field in dataclasses.fields(cls)
              if not any(attr == field.name and cls.__name__ not in enclosing
                         for attr, enclosing in reads)]
    assert not unread, "config fields that src/dtg, scripts and perfbench never read: " + \
        ", ".join(unread)


def _members() -> dict[str, str]:
    """Name -> ``Class.name (file)`` of every method and property defined in
    a class of the package, dunder methods (which Python calls) aside; a use
    is found by name, as for module-level definitions."""
    found = {}
    for path in sorted((ROOT / "src/dtg").glob("*.py")):
        for cls in ast.parse(path.read_text(), str(path)).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (node.name.startswith("__") and node.name.endswith("__"))):
                        found.setdefault(node.name, f"{cls.name}.{node.name} ({path.name})")
    return found


def test_every_class_member_is_used_by_the_program():
    members = _members()
    program = [ast.parse(path.read_text(), str(path)) for path in PROGRAM]
    unused = _unused(set(members), _references(program))
    assert not unused, "methods and properties src/dtg, scripts and perfbench never use: " + \
        ", ".join(members[name] for name in sorted(unused))


def _private_imports(tree) -> list[str]:
    """``module.name`` of every underscore name the module ``tree`` imports
    from a sibling module of the package."""
    return [f"{node.module}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "dtg")
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_another_modules_private_names():
    found = {path.name: _private_imports(ast.parse(path.read_text(), str(path)))
             for path in sorted((ROOT / "src/dtg").glob("*.py"))}
    found = {name: names for name, names in found.items() if names}
    assert not found, "private names imported from a sibling module: " + \
        "; ".join(f"{name}: {', '.join(names)}" for name, names in found.items())


def test_a_private_import_is_found():
    source = ast.parse("from .losses import _kernel, public\nfrom dtg.model import _x\n"
                       "from . import losses\nimport numpy as _np\n")
    assert _private_imports(source) == ["losses._kernel", "dtg.model._x"]


def test_a_wrapper_reached_only_from_unused_code_is_unused():
    # a calls b calls c, and c refers only to itself; e is read at module level
    source = ast.parse("def a():\n    return b()\n\ndef b():\n    return c()\n\n"
                       "def c():\n    return c\n\nd = e()\n")
    assert _unused({"a", "b", "c", "e"}, _references([source])) == {"a", "b", "c"}
