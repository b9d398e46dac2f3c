import math
import operator
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sipcert import expr
from sipcert.expr import (
    BinOp,
    Call,
    Const,
    DomainError,
    ExprError,
    IndexVar,
    Neg,
    ParseError,
    Var,
    eval_grad,
    eval_value,
    free_index_names,
    parse,
    to_source,
)


def central_diff(ast, x, index=None, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (eval_value(ast, xp, index) - eval_value(ast, xm, index)) / (2 * h)
    return g


class TestParse:
    def test_cost_expression_shape(self):
        ast = parse("(x1+1)^2 + x2")
        assert ast == BinOp("+", BinOp("^", BinOp("+", Var(1), Const(1.0)), Const(2.0)), Var(2))

    def test_index_variable(self):
        ast = parse("x1^3/(3*n) - x2")
        assert free_index_names(ast) == {"n"}

    def test_trailing_operator_is_an_error(self):
        with pytest.raises(ParseError):
            parse("x1 +")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + @")
        assert err.value.column == 6

    def test_unknown_call_arity(self):
        with pytest.raises(ParseError):
            parse("sin()")

    def test_power_is_right_associative(self):
        assert parse("2^3^2") == BinOp("^", Const(2.0), BinOp("^", Const(3.0), Const(2.0)))

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-x1^2") == Neg(BinOp("^", Var(1), Const(2.0)))

    def test_dimension_cap(self):
        with pytest.raises(ParseError):
            parse("x17")


D = expr.MAX_DEPTH
# sources of exactly MAX_DEPTH levels: each operator, call and group is one
DEEPEST = {
    "groups": "(" * (D - 1) + "x1" + ")" * (D - 1),
    "sum": "+".join(["x1"] * D),
    "minus": "-" * (D - 1) + "x1",
    "calls": "sin(" * (D - 1) + "x1" + ")" * (D - 1),
    "powers": "x1^-" * ((D - 1) // 2) + "x1",
}


def _frames() -> int:
    frame, count = sys._getframe(), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


class TestDepthLimit:
    @pytest.mark.parametrize("name", sorted(DEEPEST))
    def test_deepest_input_parses_lowers_and_prints(self, name):
        # within 5 frames per level of the caller's depth: far from the default limit
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frames() + 5 * D + 20)
        try:
            ast = parse(DEEPEST[name])
            text = to_source(ast)
            value, grad = eval_grad(ast, [1.0])
        finally:
            sys.setrecursionlimit(limit)
        assert expr.depth(ast) <= D
        assert math.isfinite(value) and grad.shape == (1,)
        assert text.count("x1") == DEEPEST[name].count("x1")

    @pytest.mark.parametrize("source, column", [
        ("x1" + "+x1" * D, 3 * D),  # the operator that makes it one level too deep
        ("(" * D + "x1" + ")" * D, D),
        ("-" * D + "x1", D),
        ("sin(" * D + "x1" + ")" * D, 4 * D - 3),
        ("x1^" * D + "x1", 3 * D),
        ("(" * 200 + "x1 - x2" + ")" * 200, D),
        ("+".join(["x1"] * 3000), 3 * D),
    ], ids=["sum", "groups", "minus", "calls", "powers", "200 groups", "3000 terms"])
    def test_one_level_more_is_a_parse_error_where_it_happens(self, source, column):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert f"nested deeper than {D} levels" in str(err.value)
        assert (err.value.line, err.value.column) == (1, column)

    def test_depth_counts_nodes_on_the_longest_path(self):
        assert expr.depth(Var(1)) == 1
        assert expr.depth(parse("sin(x1) + -(x2*3)^2")) == 5
        deep = Var(1)
        for _ in range(5000):  # no recursion, so any depth is measured
            deep = Neg(deep)
        assert expr.depth(deep) == 5001


class TestEval:
    def test_zero_case(self):
        assert eval_value(parse("(x1+1)^2 + x2"), [-1.0, 0.0]) == 0.0

    def test_indexed_family_value(self):
        # hand evaluation: (-1)^3 / 6 - 0
        got = eval_value(parse("x1^3/(3*n) - x2"), [-1.0, 0.0], {"n": 2})
        assert got == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            eval_value(parse("log(x1)"), [-1.0])

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_value(parse("x1/(x2-1)"), [1.0, 1.0])

    def test_unbound_index(self):
        with pytest.raises(Exception):
            eval_value(parse("x1 + n"), [1.0])

    def test_negative_base_cubed(self):
        assert eval_value(parse("x1^3"), [-2.0]) == -8.0

    def test_negative_integer_exponent(self):
        assert eval_value(parse("x1^-2"), [2.0]) == pytest.approx(0.25)

    def test_batch_over_index_array(self):
        ast = parse("x1^3/(3*n) - x2")
        ns = np.array([2.0, 3.0, 4.0])
        got = eval_value(ast, [-1.0, 0.0], {"n": ns})
        np.testing.assert_allclose(got, -1.0 / (3.0 * ns))

    def test_deterministic(self):
        ast = parse("sin(x1)*exp(x2) + x1^3")
        a = eval_value(ast, [0.3, -0.2])
        b = eval_value(ast, [0.3, -0.2])
        assert float(a) == float(b)


class TestGrad:
    def test_family_gradient(self):
        val, g = eval_grad(parse("x1^3/(3*n) - x2"), [-1.0, 0.0], {"n": 3})
        np.testing.assert_allclose(g, [1.0 / 3.0, -1.0], atol=1e-15)
        fd = central_diff(parse("x1^3/(3*n) - x2"), [-1.0, 0.0], {"n": 3})
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)

    def test_affine_gradient(self):
        _, g = eval_grad(parse("x1 + 1"), [7.0, -3.0])
        np.testing.assert_allclose(g, [1.0, 0.0])

    def test_constant_gradient_is_zero(self):
        _, g = eval_grad(parse("3.5"), [1.0, 2.0])
        np.testing.assert_allclose(g, [0.0, 0.0])

    def test_batch_gradients(self):
        ast = parse("x1^3/(3*n) - x2")
        ns = np.array([2.0, 5.0, 11.0])
        vals, grads = eval_grad(ast, [-1.0, 0.0], {"n": ns})
        assert grads.shape == (3, 2)
        for i, n in enumerate(ns):
            np.testing.assert_allclose(grads[i], [1.0 / n, -1.0], atol=1e-14)
            np.testing.assert_allclose(vals[i], -1.0 / (3.0 * n))

    def test_general_power_gradient(self):
        ast = parse("x1^x2")
        val, g = eval_grad(ast, [2.0, 3.0])
        assert val == pytest.approx(8.0)
        np.testing.assert_allclose(g, central_diff(ast, [2.0, 3.0]), rtol=1e-6)

    def test_domain_error_matches_eval(self):
        with pytest.raises(DomainError):
            eval_grad(parse("sqrt(x1)"), [-1.0])


def _random_ast(rng, depth, n):
    leaf_kinds = ["const", "var", "var"]
    if depth <= 0:
        kind = rng.choice(leaf_kinds)
        if kind == "const":
            # negative literals are spelled with the unary operator, as the grammar produces
            mag = round(float(rng.uniform(0, 3)), 4)
            return Neg(Const(mag)) if rng.random() < 0.3 else Const(mag)
        return Var(int(rng.integers(1, n + 1)))
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "neg", "call", "leaf"])
    if kind == "leaf":
        return _random_ast(rng, 0, n)
    if kind == "neg":
        return Neg(_random_ast(rng, depth - 1, n))
    if kind == "call":
        fn = rng.choice(["sin", "cos", "exp"])
        return Call(str(fn), _random_ast(rng, depth - 1, n))
    if kind == "pow":
        return BinOp("^", _random_ast(rng, depth - 1, n), Const(float(rng.integers(0, 4))))
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return BinOp(op, _random_ast(rng, depth - 1, n), _random_ast(rng, depth - 1, n))


def _safe_point(rng, n):
    return rng.uniform(-1.5, 1.5, size=n)


class TestProperties:
    def test_gradient_matches_central_differences(self):
        # 100 random ASTs at 10 random points each
        rng = np.random.default_rng(20240811)
        n = 3
        checked = 0
        for _ in range(100):
            ast = _random_ast(rng, int(rng.integers(1, 7)), n)
            for _ in range(10):
                x = _safe_point(rng, n)
                try:
                    val, g = eval_grad(ast, x)
                    fd = central_diff(ast, x)
                    fd2 = central_diff(ast, x, h=1e-5)
                except DomainError:
                    continue
                if not (np.all(np.isfinite(g)) and np.all(np.isfinite(fd))):
                    continue
                if np.max(np.abs(val)) > 1e6 or np.max(np.abs(g)) > 1e6:
                    continue
                # only assert where the difference oracle itself has converged
                if np.max(np.abs(fd - fd2)) > 1e-7 * np.max(np.abs(fd) + 1):
                    continue
                scale = np.maximum(np.abs(g), 1e-3)
                err = np.abs(g - fd)
                ok = np.all((err / scale <= 1e-6) | (err <= 1e-9))
                assert ok, f"{to_source(ast)} at {x}: {g} vs {fd}"
                checked += 1
        assert checked > 300

    def test_print_parse_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            ast = _random_ast(rng, int(rng.integers(0, 7)), 4)
            assert parse(to_source(ast)) == ast

    def test_roundtrip_with_index_vars(self):
        for src in ["x1^3/(3*n) - x2", "t*x1 - x2^3", "sin(t)*x1 + cos(2*t)", "x1^-2 + t^2"]:
            ast = parse(src)
            assert parse(to_source(ast)) == ast


def _reference(ast, x, index=None, grad=False):
    """(value, gradient) by a tree-walking sparse dual-number recursion, the
    one that the compiled kernels replay: numpy values, and a tangent that
    is a list of n partials, None where a partial is structurally zero (no
    decision variable it could depend on occurs below). A term with such a
    factor drops out of its sum, and such a partial reads +0.0 in the
    gradient, of shape value shape + (n,)."""
    xa = np.asarray(x, dtype=float)
    n = xa.shape[-1]
    env = dict(index or {})
    zeros = [None] * n

    def mul(t, v):
        return None if t is None else t * v

    def add(a, b):
        return b if a is None else a if b is None else a + b

    def sub(a, b):
        return a if b is None else -b if a is None else a - b

    def rec(node):
        if isinstance(node, Const):
            return node.value, zeros
        if isinstance(node, Var):
            if node.position > n:
                raise ExprError(f"x{node.position} out of range for dimension {n}")
            return xa[..., node.position - 1], [1.0 if j == node.position - 1 else None
                                                for j in range(n)]
        if isinstance(node, IndexVar):
            if node.name not in env:
                raise ExprError(f"unbound index variable '{node.name}'")
            return np.asarray(env[node.name], dtype=float), zeros
        if isinstance(node, Neg):
            v, t = rec(node.child)
            return -v, [None if p is None else -p for p in t]
        if isinstance(node, Call):
            v, t = rec(node.arg)
            if node.fn == "log" and np.any(v <= 0.0):
                raise DomainError("log of a nonpositive value", node)
            if node.fn == "sqrt" and np.any(v < 0.0):
                raise DomainError("sqrt of a negative value", node)
            x_free = all(p is None for p in t)
            if node.fn == "sqrt" and grad and not x_free and np.any(v == 0.0):
                raise DomainError("sqrt gradient at zero", node)
            val = getattr(np, node.fn)(v)
            if x_free:  # no decision variable below: no derivative factor
                return val, t
            if node.fn == "sin":
                d = np.cos(v)
            elif node.fn == "cos":
                d = -np.sin(v)
            elif node.fn == "exp":
                d = val
            elif node.fn == "log":
                d = 1.0 / v
            else:
                d = 0.5 / val
            return val, [mul(p, d) for p in t]
        va, ta = rec(node.left)
        k = expr._int_exponent(node.right) if node.op == "^" else None
        if k is not None:
            if k < 0 and np.any(va == 0.0):
                raise DomainError("zero base with a negative exponent", node)
            if k == 0:
                return np.ones_like(va) if np.ndim(va) else 1.0, zeros
            rv, rt = None, None  # the first factor is taken as it is
            bv, bt, e = va, ta, abs(k)
            while e > 0:
                if e & 1:
                    if rv is None:
                        rv, rt = bv, bt
                    else:
                        rv, rt = rv * bv, [add(mul(r, bv), mul(b, rv)) for r, b in zip(rt, bt)]
                e >>= 1
                if e:
                    bv, bt = bv * bv, [mul(mul(b, bv), 2.0) for b in bt]
            if k >= 0:
                return rv, rt
            # a constant base can underflow to a Python 0.0: divide as numpy does
            w = np.divide(-1.0, rv * rv)
            return np.divide(1.0, rv), [mul(r, w) for r in rt]
        vb, tb = rec(node.right)
        if node.op == "^":
            if np.any(va <= 0.0):
                raise DomainError("non-integer power of a nonpositive base", node)
            val = np.exp(vb * np.log(va))
            s_b, s_a = val * np.log(va), val * vb / va
            return val, [add(mul(b, s_b), mul(a, s_a)) for a, b in zip(ta, tb)]
        if node.op == "+":
            return va + vb, [add(a, b) for a, b in zip(ta, tb)]
        if node.op == "-":
            return va - vb, [sub(a, b) for a, b in zip(ta, tb)]
        if node.op == "*":
            return va * vb, [add(mul(a, vb), mul(b, va)) for a, b in zip(ta, tb)]
        if np.any(vb == 0.0):
            raise DomainError("division by zero", node)
        val = va / vb
        return val, [mul(sub(a, mul(b, val)), 1.0 / vb) for a, b in zip(ta, tb)]

    val, t = rec(ast)
    gradient = np.zeros(np.shape(val) + (n,))
    for j, p in enumerate(t):
        gradient[..., j] = 0.0 if p is None else p
    return val, gradient


def _bits(a):
    """Shape and exact bytes; every NaN alike (its sign bit follows operand
    order inside the FPU, which Python floats and numpy loops need not share)."""
    a = np.asarray(a, dtype=float)
    return a.shape, np.where(np.isnan(a), np.nan, a).tobytes()


def _outcome(fn):
    try:
        out = fn()
    except ExprError as err:
        return type(err), str(err), getattr(err, "subexpr", None)
    if isinstance(out, tuple):
        return _bits(out[0]), _bits(out[1])
    return _bits(out)


def _exponent(k):
    return Const(float(k)) if k >= 0 else Neg(Const(float(-k)))


LEAVES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(Const),
    st.integers(1, 3).map(Var),
    st.just(IndexVar("t")),
)
ASTS = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), kids),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), kids, kids),
        st.builds(lambda b, k: BinOp("^", b, _exponent(k)), kids, st.integers(-3, 4)),
    ),
    max_leaves=8,
)
SPECIAL = [0.0, -0.0, 1e-170, -1e-170, 1e300, math.inf, -math.inf, math.nan]
NUMBERS = st.one_of(st.floats(-3, 3), st.sampled_from(SPECIAL))


class TestRoundTrip:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ast=ASTS)
    def test_print_parse_roundtrip_over_the_grammar(self, ast):
        assert parse(to_source(ast)) == ast

    def test_nested_negations_print_without_groups(self):
        # each group would count as a level: -(-x1) nested 99 deep passes the limit
        source = "-" * 99 + "x1"
        assert to_source(parse(source)) == source
        assert to_source(Neg(Neg(Var(1)))) == "--x1"
        assert to_source(Neg(BinOp("*", Neg(Var(1)), Var(2)))) == "-(-x1*x2)"


class TestKernel:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf, nan and overflow are inputs here
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ast=ASTS, xs=st.lists(NUMBERS, min_size=6, max_size=6), n=st.integers(2, 3),
           t=NUMBERS, ts=st.lists(NUMBERS, min_size=1, max_size=4))
    # a term dropped from a difference: the x1 partial is -x2, -0.0 at x2 = 0
    @example(ast=BinOp("-", Const(2.0), BinOp("*", Var(1), Var(2))), xs=[0.0] * 6, n=2,
             t=0.0, ts=[0.0])
    def test_replays_the_dual_recursion_bit_for_bit(self, ast, xs, n, t, ts):
        # values, gradients, signed zeros, error types, messages and subexprs;
        # x3 is out of range at n = 2. The batch has the (k, 1, n) layout that
        # broadcasts points against an index grid.
        x, batch = np.array(xs[:n]), np.array(xs).reshape(2, 1, 3)[..., :n]
        for index in ({"t": t}, {"t": np.array(ts)}, {}):
            assert _outcome(lambda: eval_value(ast, x, index)) == _outcome(
                lambda: _reference(ast, x, index)[0]
            )
            assert _outcome(lambda: eval_value(ast, batch, index)) == _outcome(
                lambda: _reference(ast, batch, index)[0]
            )
            assert _outcome(lambda: eval_grad(ast, x, index)) == _outcome(
                lambda: _reference(ast, x, index, grad=True)
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf, nan and overflow are inputs here
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ast=ASTS, x=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
           ts=st.lists(st.floats(-3, 3), min_size=1, max_size=5))
    def test_scalar_binding_equals_its_row_of_the_array_call(self, ast, x, ts):
        # the solver binds one index value at a time, the scan a whole grid
        try:
            vals, grads = eval_grad(ast, x, {"t": np.array(ts)})
        except DomainError:
            assume(False)
        vals = np.broadcast_to(vals, (len(ts),))
        grads = np.broadcast_to(grads, (len(ts), 3))
        row_vals = np.broadcast_to(eval_value(ast, x, {"t": np.array(ts)}), (len(ts),))
        for k, tk in enumerate(ts):
            v, g = eval_grad(ast, x, {"t": tk})
            assert _bits(v) == _bits(vals[k]) and _bits(g) == _bits(grads[k])
            assert _bits(eval_value(ast, x, {"t": tk})) == _bits(row_vals[k])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a masked kernel runs past a rejection
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ast=ASTS, xs=st.lists(NUMBERS, min_size=6, max_size=6),
           ts=st.lists(NUMBERS, min_size=1, max_size=4))
    def test_masked_kernel_is_nan_exactly_where_the_row_kernel_raises(self, ast, xs, ts):
        # each row of a masked call against the raising kernel on that row
        # alone (one-element arrays, or Python floats for a scalar call): NaN,
        # value and partials alike, where that raises, and its bits elsewhere
        x, t, points = np.array(xs[:3]), np.array(ts), np.array(xs).reshape(2, 1, 3)
        k = len(ts)
        vals, grads = eval_grad(ast, x, {"t": t}, masked=True)
        batch = np.broadcast_to(eval_value(ast, points, {"t": t}, masked=True), (2, k))
        rows = [(np.broadcast_to(vals, (k,))[j], np.broadcast_to(grads, (k, 3))[j],
                 lambda j=j: eval_grad(ast, x, {"t": t[j : j + 1]})) for j in range(k)]
        rows += [(batch[i, j], None,
                  lambda i=i, j=j: eval_value(ast, points[i], {"t": t[j : j + 1]}))
                 for i in range(2) for j in range(k)]
        rows += [(*eval_grad(ast, x, {"t": ts[0]}, masked=True),
                  lambda: eval_grad(ast, x, {"t": ts[0]})),
                 (eval_value(ast, x, {"t": ts[0]}, masked=True), None,
                  lambda: eval_value(ast, x, {"t": ts[0]}))]
        for value, grad, row in rows:
            try:
                want = row() if grad is not None else (row(), None)
            except DomainError:
                assert np.isnan(value) and (grad is None or np.isnan(grad).all())
                continue
            assert _bits(np.ravel(value)) == _bits(np.ravel(want[0]))
            if grad is not None:
                assert _bits(np.ravel(grad)) == _bits(np.ravel(want[1]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf, nan and overflow are inputs here
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ast=ASTS, xs=st.lists(NUMBERS, min_size=3, max_size=3),
           ts=st.lists(NUMBERS, min_size=1, max_size=4))
    def test_the_partial_in_a_variable_absent_from_the_ast_is_plus_zero(self, ast, xs, ts):
        # no operation touches that partial, so an inf or NaN value reaches
        # it nowhere; only a masked kernel's rejected row is NaN throughout
        present = {node.position for node in expr._subtrees(ast) if isinstance(node, Var)}
        absent = [j for j in range(3) if j + 1 not in present]
        assume(absent)
        x, t = np.array(xs), np.array(ts)
        grads = np.broadcast_to(eval_grad(ast, x, {"t": t}, masked=True)[1], (len(ts), 3))
        rows = [(grads[k], {"t": t[k : k + 1]}) for k in range(len(ts))]
        rows.append((eval_grad(ast, x, {"t": ts[0]}, masked=True)[1], {"t": ts[0]}))
        for masked, index in rows:
            try:
                raising = eval_grad(ast, x, index)[1].reshape(3)
            except DomainError:
                assert np.isnan(masked).all()
                continue
            for j in absent:
                assert _bits(raising[j]) == _bits(masked[j]) == _bits(0.0)

    def test_a_check_is_made_once_where_its_line_runs(self):
        # the penalty lowers a working constraint's value, then its gradient
        # under ``if v > 0:``, where the value's check has run; a check made
        # under a branch has not run after it, so it is made again there
        ast = parse("log(x1 + 3) - x2")
        lowering = expr._Lowering(2, masked=True)
        v = lowering.root(ast, False, {})[0]
        with lowering.block(f"if {v} > 0:"):
            lowering.root(ast, True, {})
        with lowering.block(f"if {v} < -10:"):
            lowering.root(parse("log(x2)"), False, {})
        lowering.root(parse("log(x2)"), False, {})
        assert [line for line in lowering.lines if "<= 0.0" in line] == [
            "bad = (v0 <= 0.0)", "    bad = bad | (x2 <= 0.0)", "bad = bad | (x2 <= 0.0)"]

    @pytest.mark.parametrize(
        "source, x, message, subexpr",
        [
            ("1 + x1/(x2-1)", [1.0, 1.0], "division by zero", "x1/(x2-1)"),
            ("2*log(x1-1)", [1.0], "log of a nonpositive value", "log(x1-1)"),
            ("sqrt(x1) - 1", [-1.0], "sqrt of a negative value", "sqrt(x1)"),
            ("x1^-2", [0.0], "zero base with a negative exponent", "x1^(-2)"),
            ("x2 + x1^0.5", [-1.0, 0.0], "non-integer power of a nonpositive base", "x1^0.5"),
            # left to right: the first failing operand is reported
            ("log(x1) + 1/x2", [-1.0, 0.0], "log of a nonpositive value", "log(x1)"),
            ("1/x2 + log(x1)", [-1.0, 0.0], "division by zero", "1/x2"),
        ],
    )
    def test_domain_errors(self, source, x, message, subexpr):
        ast = parse(source)
        for fn in (eval_value, eval_grad):
            with pytest.raises(DomainError) as err:
                fn(ast, x)
            assert str(err.value) == f"{message} in '{subexpr}'"
            assert err.value.subexpr == parse(subexpr)

    def test_sqrt_gradient_at_zero(self):
        ast = parse("sqrt(x1)")
        assert eval_value(ast, [0.0]) == 0.0
        with pytest.raises(DomainError, match=r"^sqrt gradient at zero in 'sqrt\(x1\)'$"):
            eval_grad(ast, [0.0])

    def test_sqrt_of_an_argument_free_of_x_has_a_gradient_at_zero(self):
        # sqrt(t) does not depend on x: its partials are 0, also where t = 0
        ast = parse("sqrt(t)*x1 - x2")
        value, grad = eval_grad(ast, [1.0, 0.0], {"t": 0.0})
        assert value == 0.0 and grad.tolist() == [0.0, -1.0]
        values, grads = eval_grad(ast, [1.0, 0.0], {"t": np.array([0.0, 4.0])})
        assert values.tolist() == [0.0, 2.0] and grads.tolist() == [[0.0, -1.0], [2.0, -1.0]]
        with pytest.raises(DomainError, match="sqrt gradient at zero"):
            eval_grad(parse("sqrt(t + 0*x1)"), [1.0], {"t": 0.0})

    def test_domain_error_on_any_index_entry(self):
        with pytest.raises(DomainError, match="division by zero"):
            eval_value(parse("x1/t"), [1.0], {"t": np.array([1.0, 0.0, 2.0])})

    @pytest.mark.parametrize(
        "node", [Var("1 + 1"), Var(0), BinOp("", Var(1), Var(1)), Call("tan", Var(1))]
    )
    def test_malformed_hand_built_node(self, node):
        with pytest.raises(ExprError):
            eval_value(node, [1.0])

    def test_every_kind_of_scalar_binding_gives_the_same_bits(self):
        # an exact float is used as is; every other scalar converts to one
        class Sub(float):
            pass

        ast = parse("t*x1^2 - exp(x2/t) + log(t)*x1 + sqrt(t)*x2^-3")
        x = np.array([0.7, -1.3])
        want_value = _outcome(lambda: _reference(ast, x, {"t": 3.0})[0])
        want_grad = _outcome(lambda: _reference(ast, x, {"t": 3.0}, grad=True))
        for t in (3.0, 3, np.float64(3.0), np.array(3.0), Sub(3.0)):
            assert _outcome(lambda: eval_value(ast, x, {"t": t})) == want_value
            assert _outcome(lambda: eval_grad(ast, x, {"t": t})) == want_grad

    def test_unbound_index_message(self):
        ast = parse("x1 + t")
        for fn in (eval_value, eval_grad):
            for index in (None, {"s": 1.0}):
                with pytest.raises(ExprError, match=r"^unbound index variable 't'$"):
                    fn(ast, [1.0], index)

    def test_index_name_is_data_not_source(self):
        name = "t) or (1"
        assert eval_value(BinOp("*", IndexVar(name), Var(1)), [2.0], {name: 3.0}) == 6.0

    def test_kernels_compile_lazily_and_die_with_the_ast(self):
        ast = parse("t*x1 - x2^3")
        eval_value(ast, [1.0, 2.0], {"t": 0.5})
        # no check: the one value kernel serves the raising and the masked variant
        assert set(vars(ast)["_kernels"]) == {(2, False, False), (2, False, True)}
        eval_grad(ast, [1.0, 2.0], {"t": 0.5})
        kernels = [expr.kernel(ast, 2, False), expr.kernel(ast, 2, True)]
        refs = [weakref.ref(obj) for obj in (ast, *kernels)]
        del ast, kernels
        assert [r() for r in refs] == [None, None, None]

    def test_masked_lowering_binds_its_mask_before_a_branch(self):
        # the one check sits under a branch, which x1 = -2 does not take
        lowering = expr._Lowering(1, masked=True)
        lowering.line("val = 0.0")
        with lowering.block("if x1 > -1.0:"):
            lowering.line(f"val = val + {lowering.root(parse('log(x1)'), False, {})[0]}")
        run = lowering.function("xs", "val")
        with np.errstate(invalid="ignore"):  # log(-0.5) runs on, and is masked
            assert [run([x]) for x in (-2.0, 1.0)] == [0.0, 0.0] and math.isnan(run([-0.5]))

    def test_a_body_gathers_its_own_rejections(self):
        # a check made before a body is made again inside it, into a ``bad``
        # of the body's own; one first made under an if binds it at the body's
        # start. After the body, ``checked`` is the enclosing function's again
        lowering = expr._Lowering(1, masked=True)
        lowering.root(parse("log(x1)"), False, {})
        with lowering.block("for _ in _range(2):", body=True):
            lowering.root(parse("log(x1)"), False, {})
            assert lowering.checked
        with lowering.block("for _ in _range(2):", body=True):
            assert not lowering.checked
            with lowering.block("if x1 > 1.0:"):
                lowering.root(parse("log(x1 - 1)"), False, {})
        assert lowering.checked
        assert [line for line in lowering.lines if "bad" in line] == [
            "bad = (x1 <= 0.0)", "    bad = (x1 <= 0.0)",
            "    bad = False", "        bad = bad | (v7 <= 0.0)"]


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sp, node):
    if isinstance(node, Const):
        return sp.Float(node.value)
    if isinstance(node, Var):
        return sp.Symbol(f"x{node.position}")
    if isinstance(node, IndexVar):
        return sp.Symbol(node.name)
    if isinstance(node, Neg):
        return -_to_sympy(sp, node.child)
    if isinstance(node, Call):
        return getattr(sp, node.fn)(_to_sympy(sp, node.arg))
    k = expr._int_exponent(node.right) if node.op == "^" else None
    right = sp.Integer(k) if k is not None else _to_sympy(sp, node.right)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}
    return ops[node.op](_to_sympy(sp, node.left), right)


def _well_conditioned(ast, x, index):
    """Every subexpression stays below 1e4 in size, and no log, sqrt,
    divisor or power base comes within 1e-2 of zero, so double rounding
    stays far below the tolerance of the comparison."""
    for node in expr._subtrees(ast):
        if abs(float(_reference(node, x, index)[0])) > 1e4:
            return False
        near = node.arg if isinstance(node, Call) and node.fn in ("log", "sqrt") else None
        if isinstance(node, BinOp) and node.op in "/^":
            near = node.right if node.op == "/" else node.left
        if near is not None and abs(float(_reference(near, x, index)[0])) < 1e-2:
            return False
    return True


GRID = [-1.5, -1.0, -0.5, 0.25, 0.5, 1.0, 1.5, 2.0]
SMOOTH_ASTS = st.recursive(
    st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]).map(Const), st.integers(1, 2).map(Var),
              st.just(IndexVar("t"))),
    lambda kids: st.one_of(
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), kids),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), kids, kids),
        st.builds(lambda b, k: BinOp("^", b, _exponent(k)), kids, st.integers(-3, 4)),
    ),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ast=SMOOTH_ASTS, points=st.lists(st.tuples(*[st.sampled_from(GRID)] * 3), min_size=4,
                                        max_size=4))
def test_kernels_match_sympy(sympy, ast, points):
    sp = sympy
    f = _to_sympy(sp, ast)
    syms = [sp.Symbol(name) for name in ("x1", "x2", "t")]
    exact = [f, sp.diff(f, syms[0]), sp.diff(f, syms[1])]
    checked = 0
    for x1, x2, t in points:
        index = {"t": t}
        try:
            val, grad = eval_grad(ast, [x1, x2], index)
        except DomainError:
            continue
        if not (np.all(np.isfinite(grad)) and _well_conditioned(ast, [x1, x2], index)):
            continue
        at = dict(zip(syms, (x1, x2, t)))
        for e, got in zip(exact, [float(val), *grad]):
            want = complex(e.evalf(30, subs=at))
            assert want.imag == 0.0
            assert abs(got - want.real) <= 1e-7 * max(1.0, abs(want.real)), (to_source(ast), at)
        checked += 1
    assume(checked)
