"""The package's modules import only modules below them, so the shared input
check in designs can never close an import cycle, and every top-level
definition in them is used in the package or exported by it."""

import ast
from pathlib import Path

import stclab

#: Bottom to top.  The package's __init__ re-exports and sits above them all.
ORDER = ["designs", "expansion", "constellation", "channel", "detectors", "simulate",
         "cli"]
SRC = Path(__file__).resolve().parents[1] / "src" / "stclab"


def _imported_modules(tree):
    """Names of the stclab modules that a module's import statements load,
    function-local imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:       # from . import x
                yield from (a.name for a in node.names if a.name in ORDER)
            elif node.level == 1 or (node.module or "").startswith("stclab."):
                yield node.module if node.level else node.module[7:]
        elif isinstance(node, ast.Import):
            yield from (a.name[7:] for a in node.names if a.name.startswith("stclab."))


def test_every_module_has_a_layer():
    modules = [p.stem for p in SRC.glob("*.py") if p.stem != "__init__"]
    assert sorted(modules) == sorted(ORDER)


def test_modules_import_only_lower_layers():
    for rank, name in enumerate(ORDER):
        tree = ast.parse((SRC / (name + ".py")).read_text())
        for dep in _imported_modules(tree):
            assert dep in ORDER[:rank], "%s imports %s" % (name, dep)


def _defined_and_named(tree):
    """(top-level function and class names, every name the module reads)
    of a module, reading Name and Attribute nodes and import aliases."""
    defined = {n.name for n in tree.body
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.rpartition(".")[2])
    return defined, named


def test_every_definition_is_reached_from_src_or_exported():
    defined, named = {}, set()
    for path in SRC.glob("*.py"):
        mod_defined, mod_named = _defined_and_named(ast.parse(path.read_text()))
        defined.update(dict.fromkeys(mod_defined, path.stem))
        named |= mod_named
    unreached = sorted("%s.%s" % (defined[name], name)
                       for name in defined.keys() - named - set(stclab.__all__))
    assert not unreached, "defined in src/ but never named there nor exported: %s" % unreached
