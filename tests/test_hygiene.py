"""Source hygiene: no module imports a name it never uses, and no public
function or class of the package goes unread.

Stdlib ``ast`` scans. Imports are checked over ``src/sipcert`` and
``tests``: a name bound by an import counts as used when the module reads it
anywhere or lists it in ``__all__``. Public top-level definitions are
checked over ``src/sipcert``: each must be read somewhere in the package or
be listed in ``__all__``, unless it is allowlisted below with its reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sipcert").glob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])

# public definitions that the package itself never reads, and why they stay
UNREAD_ALLOWED = {
    "simplex_solve": "acceptance criterion 8 solves its LPs with it",
    "caratheodory_reduce": "the acceptance tests reduce certificate supports with it",
    "empirical_normal_cone_probe": "the acceptance tests' independent membership oracle",
    "membership_residual_trace": "the README names it as the way to see the refusal residual",
}


def _all_names(node) -> list[str]:
    """The names an ``__all__ = [...]`` assignment lists, else none."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return ast.literal_eval(node.value)
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        used.update(_all_names(node))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import os\nimport math as m\nfrom a.b import c, d\n__all__ = ['d']\nprint(m.pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Public top-level functions and classes of the given modules that no
    module reads (as a name or an attribute) and no ``__all__`` lists."""
    defined: dict[str, str] = {}
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            read.update(_all_names(node))
    return [f"{where}: {name}" for name, where in defined.items() if name not in read]


def test_every_public_definition_is_read():
    unread = unread_definitions({p.name: p.read_text() for p in SOURCES})
    assert sorted(entry.rsplit(" ", 1)[1] for entry in unread) == sorted(UNREAD_ALLOWED), unread


def test_scan_flags_an_unread_definition():
    sources = {
        "a.py": "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
                "class Listed: pass\nclass ByAttribute: pass\n__all__ = ['Listed']\n",
        "b.py": "from a import used\nimport a\nused()\nprint(a.ByAttribute)\n",
    }
    assert unread_definitions(sources) == ["a.py:2: unused"]
