"""Every name a package module imports is used there, it takes from its
siblings only the names they export, importing a module loads no more than
it needs, every name it exports has a caller in the package or the
benchmark, and each library default is both set and left unset by those
callers.

A name counts as used when the module reads it or lists it in __all__. An
import statement carrying "# noqa: F401" is exempt: it binds a name on
purpose for other code to find.
"""

import ast
from functools import lru_cache
import os
from pathlib import Path
import subprocess
import sys

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "uinf").glob("*.py"))


@lru_cache(maxsize=None)
def _tree(path):
    """The module at path, parsed once for all the tests that read it."""
    return ast.parse(path.read_text())


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
    tree = _tree(path)
    used = _used(tree)
    unused = [(name, line) for name, line in _imported(tree, path.read_text().splitlines())
              if name not in used]
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
    the three modules it pulls in) loads numpy but no scipy."""
    assert [m for m in _loaded_after("import uinf") if m.startswith("uinf.")] == []
    loaded = _loaded_after("import uinf.reduction")
    assert {"uinf.sphere_algebra", "uinf.tensor_kernels", "uinf.gauge_fields"} <= set(loaded)
    assert _scipy(loaded) == []


@pytest.mark.parametrize("module", ["uinf.monopole", "uinf.cli"])
def test_monopole_and_cli_load_no_scipy(module):
    """The monopole quadrature and response solve are numpy, so neither the
    module nor the command line that imports it loads scipy."""
    loaded = _loaded_after("import " + module)
    assert module in loaded
    assert _scipy(loaded) == []


def test_monopole_perturb_loads_no_random_generator():
    """The singularity diagnostic starts its iteration from a fixed block, so
    `monopole perturb` run through the command line in a fresh interpreter
    leaves numpy.random unloaded."""
    loaded = _loaded_after("import contextlib, io\nfrom uinf import cli\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    assert cli.main(['monopole', 'perturb', '--n', '64']) == 0")
    assert "uinf.monopole" in loaded
    assert "numpy.random" not in loaded


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    """scipy is a test dependency only: no package module imports it, at
    module level or inside a function."""
    imported = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append((node.module, node.lineno))
    assert [(name, line) for name, line in imported if name.split(".")[0] == "scipy"] == []


def _exported(sibling, name):
    """Whether a sibling offers name: it is in the sibling's __all__, or the
    sibling has none and the name is not private (a dunder such as
    __version__ is not private)."""
    listed = _listed(_tree(SRC / "uinf" / (sibling + ".py")))
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
           for sibling, name, line in _taken(_tree(path))
           if not _exported(sibling, name)]
    assert bad == [], "%s takes names its siblings do not export: %s" % (path.name, bad)


BENCH = SRC.parent / "bench"
# the package and benchmark modules whose calls count; test files do not
CALLERS = [path for path in SOURCES + sorted(BENCH.glob("*.py")) if not path.name.startswith("test_")]

# public names that nothing in CALLERS reads, each with why it stays public
UNCALLED = {
    "cutoff_growth": "the per-term tail report of monopole perturb planned in ROADMAP.md calls it",
}


def _statements(path):
    """(names defined, names read) of each top-level statement of path; an
    attribute read, as in monopole.bps_profile, reads its attribute name."""
    for node in _tree(path).body:
        defined = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else {
            t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)}
        read = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
        yield defined, read


def test_every_public_name_has_a_caller():
    """A name in a module's __all__ is read somewhere in the package or the
    benchmark outside its own definition. A public function that only tests
    call is test scaffolding and lives with the tests (as the variational
    harness lives in tests/monopole_checks.py); UNCALLED lists the names
    that stay public without a caller, and each of them must still lack
    one."""
    statements = [(path, defined, read) for path in CALLERS for defined, read in _statements(path)]
    uncalled = set()
    for path in SOURCES:
        for name in _listed(_tree(path)) or ():
            if not any(name in read and not (caller == path and name in defined)
                       for caller, defined, read in statements):
                uncalled.add(name)
    missing, stale = sorted(uncalled - set(UNCALLED)), sorted(set(UNCALLED) - uncalled)
    assert missing == [], "public names without a caller: %s" % missing
    assert stale == [], "exempt names that have a caller: %s" % stale


def test_every_private_definition_has_a_caller():
    """A private top-level function or class of the package is read somewhere in src/
    outside its own definition. A helper that only tests reach is test scaffolding, and a
    helper that nothing reaches is dead code."""
    statements = [(path, defined, read) for path in SOURCES for defined, read in _statements(path)]
    private = [(path, node.name) for path in SOURCES for node in _tree(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]
    assert private, "no private definitions found"
    uncalled = [(path.name, name) for path, name in private
                if not any(name in read and not (caller == path and name in defined)
                           for caller, defined, read in statements)]
    assert uncalled == [], "private definitions without a caller in src/: %s" % uncalled


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


def _calls(paths):
    """Called name -> (positional arguments, keywords) of each call in paths;
    a starred argument counts as every position, a ** argument as every
    keyword (None)."""
    calls = {}
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                calls.setdefault(name, []).append(
                    (float("inf") if starred else len(node.args), {k.arg for k in node.keywords}))
    return calls


def _sets(call, name, position):
    """Whether the call passes the parameter, by keyword or by position."""
    count, keywords = call
    return bool({name, None} & keywords) or (position is not None and count > position)


def _library_defaults():
    """(module, function, parameter, position) of every defaulted parameter
    of the package's public functions and methods."""
    for path in SOURCES:
        for func, name, position in _defaulted(_tree(path)):
            yield path.stem, func, name, position


def test_every_library_default_is_set_by_a_caller():
    """A defaulted parameter that no call in the package or the benchmark
    sets has one value in use, which belongs in the body as a constant."""
    calls = _calls(CALLERS)
    unset = []
    for module, func, name, position in _library_defaults():
        # cli.main is the console entry point: the installed script calls
        # it with no argument, so argv=None (read sys.argv) is the value
        # in use and a list is passed only by tests
        if (module, func) == ("cli", "main"):
            continue
        if not any(_sets(call, name, position) for call in calls.get(func, ())):
            unset.append("%s.%s(%s)" % (module, func, name))
    assert unset == [], "defaults that only tests set: %s" % unset


# defaults that every call in CALLERS sets, each with the caller that relies
# on it from outside CALLERS
UNRELIED = {
    "gauge_fields.yang_mills_integral(metric)":
        "bench/test_bench_helpers.py's tracer test calls it without a metric",
    "gauge_fields.random_gauge_config(amplitude)":
        "bench/test_bench_helpers.py's tracer test calls it without an amplitude",
}


def test_every_library_default_is_relied_on():
    """A defaulted parameter that some call in the package or the benchmark
    sets and none leaves unset is a second copy of a value its callers own,
    and should be required. UNRELIED lists the defaults kept for a caller
    outside CALLERS, and each of them must still be set by every call."""
    calls = _calls(CALLERS)
    unrelied = set()
    for module, func, name, position in _library_defaults():
        sets = [_sets(call, name, position) for call in calls.get(func, ())]
        if sets and all(sets):
            unrelied.add("%s.%s(%s)" % (module, func, name))
    missing, stale = sorted(unrelied - set(UNRELIED)), sorted(set(UNRELIED) - unrelied)
    assert missing == [], "defaults that every caller sets: %s" % missing
    assert stale == [], "exempt defaults that a caller relies on: %s" % stale
