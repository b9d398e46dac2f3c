"""Expression language for problem definitions.

Decision variables are written ``x1 .. x16``; any other identifier is an
index variable bound at evaluation time. Supported operators: ``+ - * / ^``
(``^`` right-associative, binding tighter than unary minus) and the calls
``sin cos exp log sqrt``. Gradients with respect to the decision variables
are propagated forward with dual numbers; the index variable is held
constant.

Evaluation runs compiled kernels. ``kernel(ast, n, grad)`` lowers the tree
once, on first use, into a straight-line Python function for dimension n:
the value kernel, or with ``grad`` a separate value-and-gradient kernel.
A kernel performs the IEEE operations of the forward-mode dual recursion in
its order, with the value and each partial as separate operands, and raises
the same domain errors at the same points. Tangents are sparse: a partial
that is structurally zero, as every partial of ``-t`` or ``x1^0`` is, takes
no operation and reads exactly +0.0. A kernel runs on Python floats for one
point with scalar bindings, and broadcasts over numpy arrays bound to the
index variable or over a batch of points, which is how whole index grids are
scanned in one pass. A masked kernel raises no domain error: the value and
each partial are NaN at the entries a check rejects, and the other entries
keep their bits. Kernels live on the root node of the AST. The same lowering
writes several roots, with their index bindings folded in, into one masked
function owned by its caller: the solver's penalty stage, whose gradient and
trial bodies each gather their own rejections. Raising kernels serve
where an error message is needed, as in the analysis at a user's point.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

import numpy as np

MAX_DIM = 16
# Levels an expression may nest: parse counts each operator, call and
# parenthesized group as one, and SipInstance bounds a hand-built AST's depth
# by it. Parsing takes at most five frames per level, lowering and to_source
# one, so no entry point comes near Python's default recursion limit of 1000.
MAX_DEPTH = 100


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DomainError(ExprError):
    """Evaluation hit a domain violation (log of nonpositive, division by zero, ...)."""

    def __init__(self, message: str, subexpr: "ExprAst"):
        super().__init__(f"{message} in '{to_source(subexpr)}'")
        self.subexpr = subexpr


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    position: int  # 1-based


@dataclass(frozen=True)
class IndexVar:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"


ExprAst = Union[Const, Var, IndexVar, Neg, BinOp, Call]

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_VAR_RE = re.compile(r"x([1-9][0-9]*)$")


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    line: int
    column: int


def _tokenize(source: str) -> Iterator[_Token]:
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(source):
        text = m.group(0)
        if m.lastgroup == "ws":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            continue
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        yield _Token(m.lastgroup, text, line, col)
        col += len(text)
    yield _Token("end", "", line, col)


class _Parser:
    """Recursive descent. Each method returns (node, levels): a leaf is one
    level, and each operator, call and parenthesized group adds one. Input
    deeper than MAX_DEPTH levels is a ParseError where it becomes too deep.
    ``_open`` counts the groups, calls, unary minuses and exponents being
    parsed; each adds a level around at least a leaf, so bounding it stops
    the descent before it recurses deeper than the levels allow."""

    def __init__(self, source: str):
        self._tokens = list(_tokenize(source))
        self._pos = 0
        self._open = 0

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def advance(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"expected {text!r}, found {shown!r}", tok.line, tok.column)

    def parse(self) -> ExprAst:
        node, _ = self.sum_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return node

    def bounded(self, tok: _Token, levels: int) -> int:
        if levels > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             tok.line, tok.column)
        return levels

    def enter(self, tok: _Token) -> None:
        self._open += 1
        self.bounded(tok, self._open + 1)

    def sum_expr(self) -> tuple[ExprAst, int]:
        node, levels = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            right, right_levels = self.term()
            node = BinOp(tok.text, node, right)
            levels = self.bounded(tok, 1 + max(levels, right_levels))
        return node, levels

    def term(self) -> tuple[ExprAst, int]:
        node, levels = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            right, right_levels = self.factor()
            node = BinOp(tok.text, node, right)
            levels = self.bounded(tok, 1 + max(levels, right_levels))
        return node, levels

    def factor(self) -> tuple[ExprAst, int]:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            self.enter(tok)
            child, levels = self.factor()
            self._open -= 1
            return Neg(child), self.bounded(tok, 1 + levels)
        return self.power()

    def power(self) -> tuple[ExprAst, int]:
        base, levels = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right-associative; exponent may carry a unary minus
            self.enter(tok)
            exponent, exp_levels = self.factor()
            self._open -= 1
            return BinOp("^", base, exponent), self.bounded(tok, 1 + max(levels, exp_levels))
        return base, levels

    def atom(self) -> tuple[ExprAst, int]:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text)), 1
        call = tok.kind == "ident" and tok.text in _FUNCTIONS
        if tok.kind == "ident" and not call:
            m = _VAR_RE.match(tok.text)
            if m:
                pos = int(m.group(1))
                if pos > MAX_DIM:
                    raise ParseError(
                        f"decision variable {tok.text} exceeds the supported dimension {MAX_DIM}",
                        tok.line,
                        tok.column,
                    )
                return Var(pos), 1
            return IndexVar(tok.text), 1
        if call:
            self.expect("(")
        elif not (tok.kind == "op" and tok.text == "("):
            shown = tok.text if tok.kind != "end" else "end of input"
            raise ParseError(f"unexpected {shown!r}", tok.line, tok.column)
        # a call's argument or a parenthesized group: one level around the sum
        self.enter(tok)
        node, levels = self.sum_expr()
        self._open -= 1
        self.expect(")")
        return (Call(tok.text, node) if call else node), self.bounded(tok, 1 + levels)


def parse(source: str) -> ExprAst:
    """Parse ``source`` into an AST. Raises ParseError with line/column on bad input."""
    return _Parser(source).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(node: ExprAst, ctx: int) -> str:
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return f"x{node.position}"
    if isinstance(node, IndexVar):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_render(node.arg, 0)})"
    if isinstance(node, Neg):
        body = "-" + _render(node.child, 3)  # a negation inside one needs no group
        return f"({body})" if ctx > 3 else body
    prec = _PREC[node.op]
    if node.op == "^":
        body = _render(node.left, 5) + "^" + _render(node.right, 4)
    else:
        body = _render(node.left, prec) + node.op + _render(node.right, prec + 1)
    return f"({body})" if ctx > prec else body


def to_source(ast: ExprAst) -> str:
    """Canonical text form; parse(to_source(ast)) is structurally equal to ast
    when the text, its parentheses counted, nests at most MAX_DEPTH levels."""
    return _render(ast, 0)


def _subtrees(ast: ExprAst) -> Iterator[ExprAst]:
    """Every node of the tree in pre-order: a node, then its children left to right."""
    stack = [ast]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Neg):
            stack.append(node.child)
        elif isinstance(node, Call):
            stack.append(node.arg)
        elif isinstance(node, BinOp):
            stack += (node.right, node.left)


def free_index_names(ast: ExprAst) -> set[str]:
    return {node.name for node in _subtrees(ast) if isinstance(node, IndexVar)}


def max_var_position(ast: ExprAst) -> int:
    return max((node.position for node in _subtrees(ast) if isinstance(node, Var)), default=0)


def depth(ast: ExprAst) -> int:
    """Nodes on the longest path from the root to a leaf, found without recursion."""
    deepest, stack = 0, [(ast, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(node, Neg):
            stack.append((node.child, d + 1))
        elif isinstance(node, Call):
            stack.append((node.arg, d + 1))
        elif isinstance(node, BinOp):
            stack += ((node.left, d + 1), (node.right, d + 1))
    return deepest


def _int_exponent(node: ExprAst):
    """Integer value of a constant exponent subtree, or None."""
    if isinstance(node, Const) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _int_exponent(node.child)
        return None if inner is None else -inner
    return None


Bindings = Mapping[str, object]

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_COMPARE = {"<=": operator.le, "<": operator.lt, "==": operator.eq}


def _any(mask) -> bool:
    return mask.any() if mask.__class__ is np.ndarray else mask


def _bind(env: Bindings, name: str):
    """Value bound to an index variable: a Python float for a scalar, else an array."""
    try:
        v = env[name]
    except KeyError:
        raise ExprError(f"unbound index variable '{name}'") from None
    if v.__class__ is float:  # bound once by the caller, as the solver does
        return v
    if isinstance(v, (float, int)):
        return float(v)
    arr = np.asarray(v, dtype=float)
    return arr if arr.ndim else float(arr)


def _div(a, b):
    try:
        return a / b
    except ZeroDivisionError:  # a Python float divisor of 0: numpy's +-inf or NaN, as a
        with np.errstate(divide="ignore", invalid="ignore"):  # Python float, on which
            return float(np.float64(a) / b)  # later operations warn of nothing


def _nan(bad, a):
    """Each operand of ``a`` NaN where ``bad`` holds: a float on one point, else an array."""
    if a.__class__ is tuple:
        return tuple(_nan(bad, b) for b in a)
    if bad.__class__ is np.ndarray or a.__class__ is np.ndarray:
        return np.where(bad, np.nan, a)
    return math.nan


def _ones_like(v):
    return np.ones_like(np.asarray(v, dtype=float)) if np.ndim(v) else 1.0


def _domain_error(root: ExprAst, pos: int, message: str) -> DomainError:
    """The error for the node at pre-order position ``pos`` of ``root``."""
    return DomainError(message, next(itertools.islice(_subtrees(root), pos, None)))


_RUNTIME = {
    "np": np,
    "ExprError": ExprError,
    "_any": _any,
    "_bind": _bind,
    "_div": _div,
    "_nan": _nan,
    "_ones_like": _ones_like,
    "_domain_error": _domain_error,
}


class _Lowering:
    """Lowers ASTs, one root after another, to the body of one function:
    straight-line forward-mode code in which the value and each of the n
    partials is its own operand.

    Each statement is one IEEE operation of the dual-number recursion, in
    its order (tangent first in products, the integer-power loop unrolled
    from its first factor). Tangents are sparse: a partial that no
    chain-rule term reaches from a decision variable, as each partial of a
    constant, an index variable or ``a ^ 0``, is structurally zero and is
    None (a value-only lowering has no partials at all). A term with such a
    factor drops out of its sum, a derivative factor that only such
    partials would take is not computed, and the function returns +0.0 for
    one. An operand is a local name or a float known when compiling;
    operations on known floats are folded with the same arithmetic, a
    repeated operation reuses its first result, and a repeated check is not
    made again, unless the first was emitted under a ``block`` that has
    ended. A root lowered with ``fixed`` bindings runs on one point with its
    index values known floats; only a masked lowering takes one, so only a
    kernel's own root raises. A ``masked`` lowering gathers what its checks
    reject in ``bad`` (bound first thing in its body when its first check is
    under an ``if``) and runs on, so it divides by a local through ``_div``,
    and its function returns NaN where ``bad`` holds. The source holds only
    generated names, float reprs, integers and names and messages from fixed
    tables: index names reach the kernel through ``_names``, never as text.
    """

    def __init__(self, n: int, masked: bool = False):
        self.n, self.masked, self.checked = n, masked, False  # checked: a check can fail
        self.lines: list[str] = []
        self.indent = ""
        # right-hand side -> local holding it, and each check's test -> itself
        self.results: dict[str, str] = {}
        # env: the bindings of a function without that parameter (none beyond ``fixed``)
        self.runtime: dict[str, object] = dict(_RUNTIME, _names=[], env={})
        self.consts: dict[str, str] = {}  # repr of a non-finite constant -> its global
        self.index: dict[str, str] = {}  # index name -> local holding its value
        self.columns: set[int] = set()
        self.start, self.base = 0, ""  # where the body's ``bad`` is bound, and its indent
        self.at = "x"  # the decision variables are the locals at1 .. atn

    def root(self, ast: ExprAst, grad: bool, fixed: Mapping[str, float] | None = None):
        """(value, partials) of ``ast``: n partials with ``grad``, else none.
        Without ``fixed``, index variables are read from ``env`` at run time
        and a domain error names a node of the ``root`` argument; with it,
        they are its values, and only a masked lowering may take it."""
        self.width, self.fixed = self.n if grad else 0, fixed
        self.pos: dict[int, int] = {}
        for i, node in enumerate(_subtrees(ast)):
            self.pos.setdefault(id(node), i)
        return self.lower(ast)

    def source(self, params: str, out: str) -> str:
        head = [f"    x{p} = xs[{p - 1}]" for p in sorted(self.columns)]
        body = [f"    {line}" for line in self.lines]
        return "\n".join([f"def kernel({params}):", *head, *body, f"    return {out}"])

    def function(self, params: str, value, partials=(), **extra):
        """``kernel(params)`` returning ``value``, or ``value, (partials)``, NaN where
        ``bad`` holds if masked; ``extra`` adds globals."""
        out = self.text(value)
        if partials:
            out += ", (" + "".join(f"{self.text(p)}, " for p in partials) + ")"
        if self.masked and self.checked:
            self.line(f"if _any(bad): return _nan(bad, ({out}))")
        namespace = dict(self.runtime, **extra, __builtins__={})
        exec(compile(self.source(params, out), "<sipcert kernel>", "exec"), namespace)
        return namespace.pop("kernel")

    def line(self, text: str) -> None:
        self.lines.append(self.indent + text)

    @contextlib.contextmanager
    def block(self, head: str, body: bool = False):
        """Lines emitted inside run under ``head``, an ``if`` or a loop, and
        what they compute or check is reused only inside. A ``body`` gathers
        its own rejections: its ``bad`` holds only what its checks reject,
        nothing computed or checked before it is reused, and ``checked``
        tells, until it ends, whether one of its checks can fail."""
        self.line(head)
        saved = dict(self.results), dict(self.index), self.checked, self.start, self.base
        self.indent += "    "
        if body:
            self.results, self.checked = {}, False
            self.start, self.base = len(self.lines), self.indent
        yield
        self.indent = self.indent[:-4]
        self.results, self.index = saved[:2]
        if body:
            self.checked, self.start, self.base = saved[2:]

    def text(self, a) -> str:
        if a is None:  # a structurally zero partial
            return "0.0"
        if isinstance(a, str):
            return a
        if math.isfinite(a):
            return repr(a)  # bare: unary minus binds tighter than any operator emitted
        if repr(a) not in self.consts:
            self.consts[repr(a)] = f"_k{len(self.consts)}"
            self.runtime[self.consts[repr(a)]] = a
        return self.consts[repr(a)]

    def emit(self, rhs: str) -> str:
        name = self.results.get(rhs)
        if name is None:
            name = self.results[rhs] = f"v{len(self.lines)}"
            self.line(f"{name} = {rhs}")
        return name

    def arith(self, op: str, a, b):
        if b is None:  # a structurally zero partial: its term drops out
            return None if op in "*/" else a
        if a is None:
            return None if op in "*/" else b if op == "+" else self.neg(b)
        if isinstance(a, float) and isinstance(b, float):
            try:
                return float(_ARITH[op](a, b))
            except ZeroDivisionError:
                pass  # only past a check that always fails
        elif op == "*" and (a == 1.0 or b == 1.0):
            return b if isinstance(a, float) else a  # 1 * b == b exactly
        if op == "/" and self.masked and (not isinstance(b, float) or b == 0.0):
            return self.call("_div", a, b)  # past a failed check, a float divisor may be 0
        return self.emit(f"{self.text(a)} {op} {self.text(b)}")

    def call(self, fn: str, *args):
        if all(isinstance(a, float) for a in args):
            with np.errstate(all="ignore"):  # an overflow, or a log past a check that always fails
                return float(self.runtime[fn](*args) if fn[0] == "_" else getattr(np, fn)(*args))
        prefix = "" if fn[0] == "_" else "np."
        return self.emit(f"{prefix}{fn}({', '.join(self.text(a) for a in args)})")

    def neg(self, a):
        if a is None:
            return None
        return -a if isinstance(a, float) else self.emit(f"-{a}")

    def scale(self, partials: list, factor) -> list:
        """Each partial times ``factor()``, which is lowered only when some
        partial is not structurally zero."""
        if all(p is None for p in partials):
            return partials
        d = factor()
        return [self.arith("*", p, d) for p in partials]

    def check(self, node: ExprAst, a, cmp: str, message: str) -> None:
        """Raise the domain error where any entry of ``a cmp 0`` holds, or in
        a masked kernel add those entries to ``bad``; a test already made
        where this line runs is not made again."""
        if isinstance(a, float) and not _COMPARE[cmp](a, 0.0):
            return
        test = f"({self.text(a)} {cmp} 0.0)"
        if test in self.results:
            return
        self.results[test] = test
        if not self.masked:
            fail = f"raise _domain_error(root, {self.pos[id(node)]}, {message!r})"
            self.line(f"if _any{test}: {fail}")
        elif self.indent != self.base and not self.checked:  # the body's first, under an if
            self.lines.insert(self.start, self.base + "bad = False")
            self.line(f"bad = bad | {test}")
        else:
            self.line(f"bad = bad | {test}" if self.checked else f"bad = {test}")
        self.checked = True

    def lower(self, node: ExprAst):
        """(value, partials) of ``node``."""
        zeros = [None] * self.width
        if isinstance(node, Const):
            return float(node.value), zeros
        if isinstance(node, Var) and type(node.position) is int and node.position >= 1:
            p = node.position
            if p > self.n:
                message = f"x{p} out of range for dimension {self.n}"
                self.line(f"raise ExprError({message!r})")
            else:
                self.columns.add(p)
            return f"{self.at}{p}", [1.0 if j == p - 1 else None for j in range(self.width)]
        if isinstance(node, IndexVar):
            if self.fixed is not None and node.name in self.fixed:
                return float(self.fixed[node.name]), zeros
            if node.name not in self.index:
                names = self.runtime["_names"]
                local = self.index[node.name] = f"i{len(names)}"
                self.line(f"{local} = _bind(env, _names[{len(names)}])")
                names.append(node.name)
            return self.index[node.name], zeros
        if isinstance(node, Neg):
            v, t = self.lower(node.child)
            return self.neg(v), [self.neg(tj) for tj in t]
        if isinstance(node, Call):
            return self.lower_call(node, *self.lower(node.arg))
        if isinstance(node, BinOp) and node.op in ("+", "-", "*", "/", "^"):
            va, ta = self.lower(node.left)
            if node.op == "^":
                k = _int_exponent(node.right)
                if k is not None:
                    return self.lower_int_pow(node, va, ta, k)
            vb, tb = self.lower(node.right)
            return self.lower_binop(node, va, ta, vb, tb)
        raise ExprError(f"not an expression node: {node!r}")

    def lower_call(self, node: Call, v, t):
        fn = node.fn
        if fn not in _FUNCTIONS:
            raise ExprError(f"unknown function {fn!r}")
        if fn == "log":
            self.check(node, v, "<=", "log of a nonpositive value")
        elif fn == "sqrt":
            self.check(node, v, "<", "sqrt of a negative value")
            if any(tj is not None for tj in t):
                self.check(node, v, "==", "sqrt gradient at zero")
        val = self.call(fn, v)
        return val, self.scale(t, {
            "sin": lambda: self.call("cos", v),
            "cos": lambda: self.neg(self.call("sin", v)),
            "exp": lambda: val,
            "log": lambda: self.arith("/", 1.0, v),
            "sqrt": lambda: self.arith("/", 0.5, val),
        }[fn])

    def lower_binop(self, node: BinOp, va, ta, vb, tb):
        op, arith = node.op, self.arith
        if op == "^":
            self.check(node, va, "<=", "non-integer power of a nonpositive base")
            log_a = self.call("log", va)
            val = self.call("exp", arith("*", vb, log_a))
            tb = self.scale(tb, lambda: arith("*", val, log_a))
            ta = self.scale(ta, lambda: arith("/", arith("*", val, vb), va))
            return val, [arith("+", b, a) for a, b in zip(ta, tb)]
        if op in ("+", "-"):
            return arith(op, va, vb), [arith(op, a, b) for a, b in zip(ta, tb)]
        if op == "*":
            val = arith("*", va, vb)
            return val, [arith("+", arith("*", a, vb), arith("*", b, va)) for a, b in zip(ta, tb)]
        self.check(node, vb, "==", "division by zero")
        val = arith("/", va, vb)
        t = [arith("-", a, arith("*", b, val)) for a, b in zip(ta, tb)]
        return val, self.scale(t, lambda: arith("/", 1.0, vb))

    def lower_int_pow(self, node: BinOp, v, t, k: int):
        """``v ^ k`` by binary powering, as the dual recursion unrolls it: the
        first factor is taken as it is, tangent included."""
        arith = self.arith
        if k < 0:
            self.check(node, v, "==", "zero base with a negative exponent")
        if k == 0:
            return self.call("_ones_like", v), [None] * self.width
        rv = rt = None  # the loop's one, before the first factor
        bv, bt = v, t
        e = abs(k)
        while e:
            if e & 1:
                if rv is None:
                    rv, rt = bv, bt
                else:
                    rt = [arith("+", arith("*", r, bv), arith("*", b, rv)) for r, b in zip(rt, bt)]
                    rv = arith("*", rv, bv)
            e >>= 1
            if e:
                bt = [arith("*", 2.0, arith("*", b, bv)) for b in bt]
                bv = arith("*", bv, bv)
        if k > 0:
            return rv, rt
        return self.call("_div", 1.0, rv), self.scale(
            rt, lambda: self.call("_div", -1.0, arith("*", rv, rv)))


def _compile(ast: ExprAst, n: int, grad: bool, masked: bool):
    """The kernel, and whether it has a check."""
    lowering = _Lowering(n, masked)
    return lowering.function("xs, env, root", *lowering.root(ast, grad)), lowering.checked


def kernel(ast: ExprAst, n: int, grad: bool, masked: bool = False):
    """The compiled kernel of ``ast`` for dimension ``n``: the value kernel,
    or with ``grad`` the value-and-gradient kernel, raising or ``masked``.
    ``kernel(xs, env, ast)`` takes the n coordinates ``xs`` (``x.tolist()``
    for one point) and the index bindings, and returns the value, or
    ``(value, partials)``. Kernels live in the node's own ``__dict__`` (the
    dataclasses are frozen), so they are freed with the AST; they hold no
    reference back to it. Without a check, both variants are one function.
    """
    if not 1 <= n <= MAX_DIM:
        raise ExprError(f"decision vector must have between 1 and {MAX_DIM} components")
    kernels = ast.__dict__.setdefault("_kernels", {})
    found = kernels.get((n, grad, masked))
    if found is None:
        found, checked = _compile(ast, n, grad, masked)
        kernels.update({(n, grad, v): found for v in ((masked,) if checked else (False, True))})
    return found


def eval_value(ast: ExprAst, x, index: Bindings | None = None, *, masked: bool = False):
    """Evaluate the expression at decision vector ``x`` (shape (n,) or (m, n)).

    Index bindings may be scalars or numpy arrays; array bindings broadcast,
    giving one value per index entry. The value kernel for dimension n is
    compiled by the first call and kept on the AST. It runs on Python floats
    for a single ``x`` with scalar bindings, and on arrays otherwise. A
    domain error raises, or with ``masked`` makes each entry it rejects NaN.
    """
    xa = np.asarray(x, dtype=float)
    run = kernel(ast, xa.shape[-1] if xa.ndim else 0, False, masked)
    xs = xa.tolist() if xa.ndim == 1 else list(np.moveaxis(xa, -1, 0))
    return run(xs, index or {}, ast)


def eval_grad(ast: ExprAst, x, index: Bindings | None = None, *, masked: bool = False):
    """Value and gradient in the decision variables via forward-mode duals.

    Returns ``(value, grad)``. With scalar bindings ``grad`` has shape (n,);
    with an array bound to the index variable the shapes are (m,) and (m, n).
    Its kernel is compiled and kept, and ``masked`` acts, as in eval_value.
    """
    xa = np.asarray(x, dtype=float)
    if xa.ndim != 1:
        raise ExprError("eval_grad expects a single decision vector")
    n = xa.shape[0]
    val, partials = kernel(ast, n, True, masked)(xa.tolist(), index or {}, ast)
    val = np.asarray(val, dtype=float)
    if val.ndim == 0:
        return val, np.array(partials, dtype=float)
    grad = np.empty(val.shape + (n,))
    for j, p in enumerate(partials):
        grad[..., j] = p
    return val, grad
