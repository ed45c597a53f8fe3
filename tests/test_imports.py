"""Every name a package module imports is used there, it takes from its
siblings only the names they export, and importing a module loads no more
than it needs.

A name counts as used when the module reads it or lists it in __all__. An
import statement carrying "# noqa: F401" is exempt: it binds a name on
purpose for other code to find.
"""

import ast
import os
from pathlib import Path
import subprocess
import sys

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "uinf").glob("*.py"))


def _imported(tree, lines):
    """(name, line) of every name bound by an import not marked noqa F401."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], node.lineno


def _listed(tree):
    """The names in the module's __all__, or None when it has none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return None


def _used(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | (_listed(tree) or set())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = _used(tree)
    unused = [(name, line) for name, line in _imported(tree, text.splitlines()) if name not in used]
    assert unused == [], "%s imports names it never uses: %s" % (path.name, unused)


def _loaded_after(statement):
    """Names in sys.modules after running statement in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys\n%s\nprint('\\n'.join(sorted(sys.modules)))" % statement
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def _scipy(loaded):
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_package_root_and_algebra_core_load_only_what_they_use():
    """The package root loads no submodule; the algebra core (reduction and
    the three modules it pulls in) loads numpy but no scipy, which only the
    monopole response's sparse solve needs."""
    assert [m for m in _loaded_after("import uinf") if m.startswith("uinf.")] == []
    loaded = _loaded_after("import uinf.reduction")
    assert {"uinf.sphere_algebra", "uinf.tensor_kernels", "uinf.gauge_fields"} <= set(loaded)
    assert _scipy(loaded) == []


@pytest.mark.parametrize("module", ["uinf.monopole", "uinf.cli"])
def test_monopole_and_cli_load_no_scipy(module):
    """The monopole quadrature is numpy and its sparse solve imports scipy
    when called, so neither the module nor the command line that imports
    it pays for loading scipy."""
    loaded = _loaded_after("import " + module)
    assert module in loaded
    assert _scipy(loaded) == []


def _exported(sibling, name):
    """Whether a sibling offers name: it is in the sibling's __all__, or the
    sibling has none and the name is not private (a dunder such as
    __version__ is not private)."""
    listed = _listed(ast.parse((SRC / "uinf" / (sibling + ".py")).read_text()))
    if listed is not None:
        return name in listed
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _taken(tree):
    """(sibling, name, line) of every name the module takes from a sibling,
    by `from .m import x` or as `m.x` after `from . import m`. The package
    modules import each other relatively."""
    siblings = {p.stem for p in SOURCES}
    modules = {}  # local name -> sibling module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            origin = node.module or "__init__"
            for alias in node.names:
                if origin == "__init__" and alias.name in siblings:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    yield origin, alias.name, node.lineno
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr, node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_takes_only_exported_names_from_siblings(path):
    """A sibling's private helpers and unlisted names stay its own: every
    name taken from a sibling is in that sibling's __all__ (or, without
    one, does not start with an underscore)."""
    bad = ["%s.%s (line %d)" % (sibling, name, line)
           for sibling, name, line in _taken(ast.parse(path.read_text()))
           if not _exported(sibling, name)]
    assert bad == [], "%s takes names its siblings do not export: %s" % (path.name, bad)


BENCH = SRC.parent / "bench"


def _defaulted(tree):
    """(function, parameter, position) of every defaulted parameter of a
    public function or method. The position counts the positional arguments
    a call passes before reaching it, self and cls not included; it is None
    for a keyword-only parameter."""
    def visit(body, method):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from visit(node.body, True)
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield node.name, arg.arg, i - int(method)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield node.name, arg.arg, None
    yield from visit(tree.body, False)


def _passed(trees):
    """Called name -> (most positional arguments at one call, keywords
    passed at any call); a starred argument counts as every position, a
    ** argument as every keyword (None)."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            count, keywords = passed.setdefault(name, (0, set()))
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords.update(k.arg for k in node.keywords)
            passed[name] = (max(count, float("inf") if starred else len(node.args)), keywords)
    return passed


def test_every_library_default_is_set_by_a_caller():
    """A defaulted parameter that no call in the package or the benchmark
    sets has one value in use, which belongs in the body as a constant. A
    public function that nothing there calls is a test harness (for example
    variational_check) and is exempt."""
    callers = [path for path in SOURCES + sorted(BENCH.glob("*.py"))
               if not path.name.startswith("test_")]
    passed = _passed(ast.parse(path.read_text()) for path in callers)
    unset = []
    for path in SOURCES:
        for func, name, position in _defaulted(ast.parse(path.read_text())):
            # cli.main is the console entry point: the installed script calls
            # it with no argument, so argv=None (read sys.argv) is the value
            # in use and a list is passed only by tests
            if func not in passed or (path.stem, func) == ("cli", "main"):
                continue
            count, keywords = passed[func]
            if not ({name, None} & keywords or (position is not None and count > position)):
                unset.append("%s.%s(%s)" % (path.stem, func, name))
    assert unset == [], "defaults that only tests set: %s" % unset
