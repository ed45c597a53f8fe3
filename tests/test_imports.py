"""Every name a package module imports is used there.

A name counts as used when the module reads it or lists it in __all__. An
import statement carrying "# noqa: F401" is exempt: it binds a name on
purpose for other code to find.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "uinf").glob("*.py"))


def _imported(tree, lines):
    """(name, line) of every name bound by an import not marked noqa F401."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], node.lineno


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = _used(tree)
    unused = [(name, line) for name, line in _imported(tree, text.splitlines()) if name not in used]
    assert unused == [], "%s imports names it never uses: %s" % (path.name, unused)
