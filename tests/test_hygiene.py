"""Source hygiene: no module imports a name it never uses, and no public
function, class or class field of the package goes unread.

Stdlib ``ast`` scans. Imports are checked over ``src/sipcert`` and
``tests``: a name bound by an import counts as used when the module reads it
anywhere or lists it in ``__all__``. Public top-level definitions are
checked over ``src/sipcert``: each must be read somewhere in the package or
be listed in ``__all__``, and what only the tests read lives in
``tests/oracles.py``. Annotated class fields are checked by name over
``src/sipcert``: each must be read as an attribute somewhere in the package,
unless allowlisted. An expression error is caught only at the allowlisted
places of ``src/sipcert``, so that a rejected constraint row has one rule,
``np.linalg`` is read only at the allowlisted places, so that a norm is
summed coordinate by coordinate and LAPACK rounds a report nowhere else, and
``eval_grad`` is read only at the allowlisted places, so that a scan makes
its gradients in one place, and ``default_rng`` is read only at the
allowlisted places, so that no report but a solve's depends on numpy's
random streams.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sipcert").glob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])

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
    assert unread_definitions({p.name: p.read_text() for p in SOURCES}) == []


def test_scan_flags_an_unread_definition():
    sources = {
        "a.py": "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
                "class Listed: pass\nclass ByAttribute: pass\n__all__ = ['Listed']\n",
        "b.py": "from a import used\nimport a\nused()\nprint(a.ByAttribute)\n",
    }
    assert unread_definitions(sources) == ["a.py:2: unused"]


# annotated class fields that the package itself never reads, and why they stay
UNREAD_FIELDS_ALLOWED = {
    "ClosednessVerdict.witness_ray": "the NOT_CLOSED witness, which the tests re-check",
}


def unread_fields(sources: dict[str, str]) -> list[str]:
    """Annotated class fields of the given modules whose name no module
    reads as an attribute. The match is by name only, so a field shares the
    reads of every field and attribute of the same name."""
    defined: dict[str, str] = {}
    read: set[str] = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        defined[f"{node.name}.{item.target.id}"] = f"{module}:{item.lineno}"
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{where}: {name}" for name, where in defined.items()
            if name.split(".")[1] not in read]


def test_every_class_field_is_read():
    unread = unread_fields({p.name: p.read_text() for p in SOURCES})
    names = sorted(entry.rsplit(" ", 1)[1] for entry in unread)
    assert names == sorted(UNREAD_FIELDS_ALLOWED), unread


def test_scan_flags_an_unread_field():
    sources = {
        "a.py": "class A:\n    used: int\n    unused: int\n    written: int\n    plain = 1\n",
        "b.py": "def f(a):\n    a.written = 2\n    return a.used\n",
    }
    assert unread_fields(sources) == ["a.py:3: A.unused", "a.py:4: A.written"]


EXPR_ERRORS = {"ExprError", "DomainError", "ParseError"}

# the definitions that catch an expression error, and why each does
EXPR_ERROR_CATCHES_ALLOWED = {
    "model._parse_expr": "a parse error in an instance file is reported with its line",
    "cli.main": "an instance file that does not load, or a cost or equality the expression "
                "rejects at the point, ends in exit 2",
}


def expr_error_catches(sources: dict[str, str]) -> list[str]:
    """``module.definition`` for each top-level definition of the given
    modules with an except clause that names an expression error class, alone
    or in a tuple. The match is by class name."""
    found = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    if {getattr(t, "id", getattr(t, "attr", None)) for t in types} & EXPR_ERRORS:
                        found.add(f"{module}.{getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_expression_errors_are_caught_only_where_allowed():
    catches = expr_error_catches({p.stem: p.read_text() for p in SOURCES})
    assert catches == sorted(EXPR_ERROR_CATCHES_ALLOWED)


def test_scan_flags_an_expression_error_handler():
    source = (
        "def by_attribute():\n    try:\n        f()\n    except ex.DomainError:\n        pass\n"
        "def in_tuple():\n    try:\n        f()\n    except (OSError, ExprError):\n        pass\n"
        "def other():\n    try:\n        f()\n    except ValueError:\n        pass\n"
        "try:\n    f()\nexcept ParseError:\n    pass\n"
    )
    assert expr_error_catches({"m": source}) == ["m.<module>", "m.by_attribute", "m.in_tuple"]


# the definitions that read np.linalg, what each reads and why: these are the
# places where LAPACK rounding can reach a report. Every norm is
# `model.row_norms`, every rank `linsolve.rank` and every LP `linsolve`'s simplex
LINALG_ALLOWED = {
    "cq._affine_projector": (["lstsq"], "the least-squares projection onto the affine "
                                        "equality set, which moves the Slater search's iterates"),
    "solver._polish": (["LinAlgError", "lstsq", "solve"],
                       "the Newton polish's least-squares multipliers and its square "
                       "Newton steps, which a singular system ends"),
}


def linalg_reads(sources: dict[str, str]) -> dict[str, list[str]]:
    """The attributes that each top-level definition of the given modules
    reads from ``linalg`` or ``<name>.linalg``, called or not, by
    ``module.definition``."""
    found: dict[str, set[str]] = {}
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and "linalg" in (
                        getattr(node.value, "attr", None), getattr(node.value, "id", None)):
                    found.setdefault(f"{module}.{getattr(top, 'name', '<module>')}",
                                     set()).add(node.attr)
    return {name: sorted(attrs) for name, attrs in sorted(found.items())}


def test_linalg_norm_is_read_only_where_allowed():
    reads = linalg_reads({p.stem: p.read_text() for p in SOURCES})
    assert reads == {name: attrs for name, (attrs, _) in LINALG_ALLOWED.items()}


def test_scan_flags_a_linalg_norm_read():
    source = (
        "import numpy\nimport numpy as np\nfrom numpy import linalg\n"
        "def direct(v):\n    return np.linalg.norm(v)\n"
        "def full_name(v):\n    return numpy.linalg.norm(v, axis=1)\n"
        "def from_module(v):\n    return linalg.norm(v)\n"
        "class Holder:\n    def method(self):\n        self.f = np.linalg.norm\n"
        "def two(v):\n    try:\n        return np.linalg.solve(v, v) + norm(v)\n"
        "    except np.linalg.LinAlgError:\n        pass\n"
        "def other(v):\n    return np.sqrt(v) + norm(v)\n"
        "x = np.linalg.lstsq([[1.0]], [1.0])\n"
    )
    assert linalg_reads({"m": source}) == {
        "m.<module>": ["lstsq"], "m.Holder": ["norm"], "m.direct": ["norm"],
        "m.from_module": ["norm"], "m.full_name": ["norm"], "m.two": ["LinAlgError", "solve"]}


# the definitions that read eval_grad, and why each does; every other
# gradient of a constraint row is a row of `ConstraintScan.grad`
EVAL_GRAD_ALLOWED = {
    "model.SipInstance": "the equality Jacobian, which no scan holds",
    "model.ConstraintScan": "the scan's one gradient path: one masked call per segment, "
                            "grid or tail ladder, on the first read of `grad`",
    "optimality._cost_hull": "the cost's gradient, or its active pieces' gradients",
}


def name_reads(sources: dict[str, str], name: str) -> list[str]:
    """``module.definition`` for each top-level definition of the given
    modules that reads ``name`` as a name or an attribute, called or not."""
    found = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if name in (getattr(node, "attr", None), getattr(node, "id", None)):
                    found.add(f"{module}.{getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_eval_grad_is_read_only_where_allowed():
    reads = name_reads({p.stem: p.read_text() for p in SOURCES}, "eval_grad")
    assert reads == sorted(EVAL_GRAD_ALLOWED)


def test_scan_flags_an_eval_grad_read():
    source = (
        "from .expr import eval_grad\nfrom . import expr as ex\n__all__ = ['eval_grad']\n"
        "def by_attribute(b, x):\n    return ex.eval_grad(b, x)[1]\n"
        "def by_name(b, x):\n    return eval_grad(b, x)\n"
        "class Holder:\n    def method(self):\n        self.f = ex.eval_grad\n"
        "def eval_grad_free(b, x):\n    return ex.eval_value(b, x)  # 'eval_grad' in a string\n"
        "g = ex.eval_grad\n"
    )
    assert name_reads({"m": source}, "eval_grad") == [
        "m.<module>", "m.Holder", "m.by_attribute", "m.by_name"]


# the definitions that read numpy's default_rng, and why each does; an
# analyze report's samples and probe directions come from `model.kronecker`
DEFAULT_RNG_ALLOWED = {
    "solver.solve": "the seeded multistart starts of the exchange solver",
}


def test_default_rng_is_read_only_where_allowed():
    reads = name_reads({p.stem: p.read_text() for p in SOURCES}, "default_rng")
    assert reads == sorted(DEFAULT_RNG_ALLOWED)
