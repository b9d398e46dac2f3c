"""Seeded inputs and the timed operation of each benchmark workload.

Every input is a `Spec`: a small structured description of a semi-infinite
program that renders to `.sip` text. sipcert only ever sees the rendered text
(and a point); the checker in `check.py` evaluates the same `Spec`
independently. Generation uses `random.Random` seeded with strings, so the
same seed gives byte-identical text on any platform.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Reduced solver budget for `solve-exchange`; every op uses these values.
SOLVER_MULTISTART = 4
SOLVER_MAX_OUTER = 6

COUNTABLE_TRUNCATION = 10_000
SMALL_RESOLUTION = 65
SMALL_REFINEMENTS = 3


@dataclass(frozen=True)
class Index:
    name: str
    kind: str  # finite | interval | countable
    values: tuple[float, ...] = ()
    a: float = 0.0
    b: float = 1.0
    include_a: bool = True
    include_b: bool = True
    resolution: int = 257
    refinements: int = 4
    start: int = 0
    truncation: int = 10_000
    limit_ray: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Spec:
    """One instance. Expressions use the `.sip` syntax."""

    dim: int
    minimize: str
    convex: bool = False
    box: tuple[tuple[float, float], ...] | None = None
    fixed: tuple[tuple[str, str], ...] = ()
    index: Index | None = None
    family: tuple[str, str] | None = None  # (name, body over index.name)
    equalities: tuple[tuple[str, str], ...] = ()
    affine: bool = False


@dataclass(frozen=True)
class Case:
    """One op's input and what its output must show."""

    label: str
    spec: Spec
    text: str
    point: tuple[float, ...] | None = None  # analyze point; None for solve
    solver_seed: int | None = None
    expect: dict = field(default_factory=dict)


def _num(v: float) -> str:
    return repr(float(v))


def render(spec: Spec) -> str:
    """The `.sip` text of a spec."""
    names = " ".join(f"x{i + 1}" for i in range(spec.dim))
    lines = ["[problem]", f"vars = {names}", f"minimize = {spec.minimize}",
             f"convex = {'true' if spec.convex else 'false'}"]
    if spec.box is not None:
        lines.append("box = " + " ; ".join(f"{_num(lo)} {_num(hi)}" for lo, hi in spec.box))
    if spec.index is not None:
        ix = spec.index
        lines += ["", f"[index {ix.name}]", f"kind = {ix.kind}"]
        if ix.kind == "finite":
            lines.append("values = " + " ".join(_num(v) for v in ix.values))
        elif ix.kind == "countable":
            lines += [f"start = {ix.start}", f"truncation = {ix.truncation}"]
            if ix.limit_ray is not None:
                lines.append("limit_ray = " + " ".join(_num(v) for v in ix.limit_ray))
        else:
            lines += [f"a = {_num(ix.a)}", f"b = {_num(ix.b)}",
                      f"include_a = {'true' if ix.include_a else 'false'}",
                      f"include_b = {'true' if ix.include_b else 'false'}",
                      f"resolution = {ix.resolution}", f"refinements = {ix.refinements}"]
    lines += ["", "[constraints]"]
    lines += [f"{name} = {body}" for name, body in spec.fixed]
    if spec.family is not None:
        lines.append(f"{spec.family[0]}({spec.index.name}) = {spec.family[1]}")
    if spec.equalities:
        lines += ["", "[equalities]"]
        lines += [f"{name} = {body}" for name, body in spec.equalities]
        lines.append(f"affine = {'true' if spec.affine else 'false'}")
    return "\n".join(lines) + "\n"


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform draw rounded to 6 decimals, so the text stays short."""
    return round(rng.uniform(lo, hi), 6)


def _c(v: float) -> str:
    """A constant inside an expression; negative values are parenthesized."""
    return f"({_num(v)})" if v < 0 else _num(v)


# ---------------------------------------------------------------------------
# analyze-countable-wide


def countable_case(seed: int, j: int) -> Case:
    """`g(n) = x1^3/(c*n) - x2` truncated at 10^4, analyzed at (-1, 0).

    Instance j of a run draws c from the j-th quarter of [2, 4] (stratified,
    so every run covers the range) and declares the limit ray when its
    instance seed 4*seed + j is even; otherwise the ray is extrapolated.
    """
    inst_seed = 4 * seed + j
    c = _draw(_rng("countable-wide", inst_seed), 2.0 + 0.5 * j, 2.5 + 0.5 * j)
    declared = inst_seed % 2 == 0
    spec = Spec(
        dim=2,
        minimize="(x1+1)^2 + x2",
        box=((-3.0, 3.0), (-3.0, 3.0)),
        fixed=(("g1", "x1 + 1"),),
        index=Index("n", "countable", start=2, truncation=COUNTABLE_TRUNCATION,
                    limit_ray=(0.0, -1.0) if declared else None),
        family=("g", f"x1^3/({_num(c)}*n) - x2"),
    )
    expect = {"verdicts": {"emfcq": "holds", "pmfcq": "holds", "nfmcq": "fails"},
              "stationarity": {"unperturbed-kkt": "refuted",
                               "perturbed-stationarity": "certificate"},
              "certificate_uses_limit_rays": True}
    label = f"countable c={c} {'declared' if declared else 'extrapolated'}"
    return Case(label, spec, render(spec), point=(-1.0, 0.0), expect=expect)


# ---------------------------------------------------------------------------
# solve-exchange: the four bundled instances, rendered from their specs

SOLVE_SPECS = {
    "convex_toy": Spec(
        dim=2, minimize="x1^2 + x2^2", convex=True, box=((-2.0, 2.0), (-2.0, 2.0)),
        fixed=(("g1", "x1 + x2 + 1"),),
    ),
    "parabola_band": Spec(
        dim=2, minimize="x2", convex=True, box=((-2.0, 2.0), (-2.0, 2.0)),
        index=Index("t", "interval", a=0.0, b=1.0, include_a=False, include_b=False,
                    resolution=257, refinements=4),
        family=("g", "t*x1^2 - x2"),
    ),
    "countable_cubic": Spec(
        dim=2, minimize="(x1+1)^2 + x2", box=((-3.0, 3.0), (-3.0, 3.0)),
        fixed=(("g1", "x1 + 1"),),
        index=Index("n", "countable", start=2, truncation=10_000, limit_ray=(0.0, -1.0)),
        family=("g", "x1^3/(3*n) - x2"),
    ),
    "interval_ramp": Spec(
        dim=2, minimize="(x1+1)^2 + x2", box=((-3.0, 3.0), (-3.0, 3.0)),
        fixed=(("g0", "x1 + 1"),),
        index=Index("t", "interval", a=0.0, b=1.0, include_a=False, include_b=True,
                    resolution=257, refinements=4),
        family=("g", "t*x1 - x2^3"),
    ),
}

# A converged candidate must lie within 1e-6 (max norm) of the minimizer, except
# on convex_toy: under the reduced budget, solve() reports `converged` there at
# a strictly feasible point up to 2.2e-3 away for about 4% of solver seeds (the
# Newton polish only takes constraints within 1e-4 of active). Such a point
# passes only within 3e-3 and only if its report refutes KKT (check.py).
SOLVE_EXPECT = {
    "convex_toy": {"status": "converged", "minimizer": (-0.5, -0.5), "minimizer_tol": 3e-3},
    "parabola_band": {"status": "converged", "minimizer": (0.0, 0.0)},
    "countable_cubic": {"status": "converged", "minimizer": (-1.0, 0.0)},
    "interval_ramp": {"status": "iteration_limit"},
}


# One round: every bundled instance, countable_cubic twice. With five ops of
# which the middle (by time) are the two cubic solves, the median op falls
# inside one instance's cluster of times instead of between two clusters.
SOLVE_ROUND = ("convex_toy", "parabola_band", "countable_cubic", "countable_cubic",
               "interval_ramp")


def solve_round(seed: int, r: int) -> list[Case]:
    """Round r of SOLVE_ROUND in a seeded order, each op with its own seeded
    solver seed."""
    rng = _rng("solve-exchange", seed, r)
    names = list(SOLVE_ROUND)
    rng.shuffle(names)
    cases = []
    for name in names:
        spec = SOLVE_SPECS[name]
        solver_seed = rng.randrange(2**31)
        cases.append(Case(f"{name} solver-seed={solver_seed}", spec, render(spec),
                          solver_seed=solver_seed, expect=dict(SOLVE_EXPECT[name])))
    return cases


# ---------------------------------------------------------------------------
# analyze-small-batch: a round of 12 small instances of four kinds

# (kind, variant) per op of a round. The mix keeps the median op inside the
# middle cluster of op times: 9 ops of about 0.06-0.1 s (convex interval
# cases 0 and 1, interval-affine), 2 cheap complete-index ops (about 0.02 s)
# and 1 op with a vanishing active gradient whose Slater search takes
# 0.3-0.7 s. Variant -1 alternates between 0 and 1 from round to round.
SMALL_ROUND = (
    ("convex-interval", 0), ("finite-polygon", -1), ("convex-interval", 1),
    ("interval-affine", 0), ("convex-interval", 0), ("convex-interval", 2),
    ("interval-affine", 1), ("convex-interval", 1), ("fixed-affine", -1),
    ("convex-interval", 0), ("interval-affine", 0), ("interval-affine", 1),
)


def _convex_interval(rng: random.Random, variant: int) -> tuple[Spec, tuple[float, ...]]:
    """Convex interval families in the style of acceptance criterion 5, at
    the origin: strictly feasible (variant 0), active with a nonvanishing
    gradient (1), or active with a vanishing gradient (2)."""
    c1, c2 = _draw(rng, 0.2, 0.8), _draw(rng, -0.5, 0.5)
    q1, q2 = _draw(rng, 0.5, 1.5), _draw(rng, 0.3, 0.7)
    quad = f"({_num(c1)} + {_c(c2)}*t)^2*(x1^2 + x2^2)"
    if variant == 0:
        q0 = _draw(rng, 0.2, 1.0)
        a1, a2 = _draw(rng, -1, 1), _draw(rng, -1, 1)
        body = f"{quad} + {_c(a1)}*x1 + {_c(a2)}*x2 - {_num(q0)} - {_num(q1)}*(t - {_num(q2)})^2"
    elif variant == 1:
        a1 = _draw(rng, 0.5, 1.5) * rng.choice((-1, 1))
        a2 = _draw(rng, 0.5, 1.5) * rng.choice((-1, 1))
        body = f"{quad} + {_c(a1)}*x1 + {_c(a2)}*x2 - {_num(q1)}*(t - {_num(q2)})^2"
    else:
        e1 = _draw(rng, 0.4, 1.2) * rng.choice((-1, 1))
        e2 = _draw(rng, 0.4, 1.2) * rng.choice((-1, 1))
        body = (f"{quad} + {_c(e1)}*(t - {_num(q2)})*x1 + {_c(e2)}*(t - {_num(q2)})*x2"
                f" - {_num(q1)}*(t - {_num(q2)})^2")
    spec = Spec(
        dim=2, minimize="x1", convex=True, box=((-2.0, 2.0), (-2.0, 2.0)),
        index=Index("t", "interval", a=0.0, b=1.0, resolution=SMALL_RESOLUTION,
                    refinements=SMALL_REFINEMENTS),
        family=("g", body),
    )
    return spec, (0.0, 0.0)


def _finite_polygon(rng: random.Random, variant: int) -> tuple[Spec, tuple[float, ...]]:
    """Half-planes cos(s)*x1 + sin(s)*x2 <= r over five angles s. In variant
    0 the point sits on the first edge, so exactly one index is active; in
    variant 1 it is the origin, where none is."""
    r = _draw(rng, 0.5, 2.0)
    s0 = _draw(rng, 0.0, 6.283185)
    angles = (s0,) + tuple(round(s0 + 1.256637 * i + _draw(rng, -0.3, 0.3), 6)
                           for i in range(1, 5))
    pa, pb = _draw(rng, -1, 1), _draw(rng, -1, 1)
    spec = Spec(
        dim=2, minimize=f"(x1 - {_c(pa)})^2 + (x2 - {_c(pb)})^2", convex=True,
        box=((-3.0, 3.0), (-3.0, 3.0)),
        index=Index("s", "finite", values=angles),
        family=("g", f"cos(s)*x1 + sin(s)*x2 - {_num(r)}"),
    )
    point = (0.0, 0.0) if variant else (r * math.cos(s0), r * math.sin(s0))
    return spec, point


def _fixed_affine(rng: random.Random, variant: int) -> tuple[Spec, tuple[float, ...]]:
    """A ball constraint (active at the point in variant 0), an inactive
    half-space and one affine equality through the point, in three variables.
    The constants repeat the float arithmetic sipcert does, so the active
    constraint and the equality are exactly zero at the point."""
    p = tuple(_draw(rng, -1, 1) for _ in range(3))
    radius2 = sum(v * v for v in p) + 0.01 * variant
    a = tuple(_draw(rng, -1, 1) for _ in range(3))
    b = round(sum(ai * pi for ai, pi in zip(a, p)) + _draw(rng, 0.1, 1.0), 6)
    w = tuple(_draw(rng, 0.5, 1.5) for _ in range(3))
    h0 = sum(wi * pi for wi, pi in zip(w, p))
    spec = Spec(
        dim=3, minimize="x1 + 2*x2 - x3", convex=True, box=((-2.0, 2.0),) * 3,
        fixed=(("g1", f"x1^2 + x2^2 + x3^2 - {_num(radius2)}"),
               ("g2", f"{_c(a[0])}*x1 + {_c(a[1])}*x2 + {_c(a[2])}*x3 - {_c(b)}")),
        equalities=(("h1", f"{_num(w[0])}*x1 + {_num(w[1])}*x2 + {_num(w[2])}*x3 - {_c(h0)}"),),
        affine=True,
    )
    return spec, p


def _interval_affine(rng: random.Random, variant: int) -> tuple[Spec, tuple[float, ...]]:
    """A linear interval family plus a convex term, with one affine equality,
    at the origin; the whole family is active there in variant 0."""
    c = _draw(rng, 0.05, 0.5) if variant else 0.0
    q = _draw(rng, 0.2, 1.0)
    u = _draw(rng, 0.5, 1.5)
    spec = Spec(
        dim=3, minimize=f"x1 + x2 + {_num(u)}*x3^2", convex=True, box=((-2.0, 2.0),) * 3,
        index=Index("t", "interval", a=0.0, b=1.0, resolution=SMALL_RESOLUTION,
                    refinements=SMALL_REFINEMENTS),
        family=("g", f"t*x1 + (1 - t)*x2 + {_num(q)}*x3^2 - {_num(c)}"),
        equalities=(("h1", "x1 - x2 + x3"),),
        affine=True,
    )
    return spec, (0.0, 0.0, 0.0)


_SMALL_MAKERS = {
    "convex-interval": _convex_interval,
    "finite-polygon": _finite_polygon,
    "fixed-affine": _fixed_affine,
    "interval-affine": _interval_affine,
}


def small_case(seed: int, k: int) -> Case:
    """Op k of a run: entry k mod 12 of SMALL_ROUND, parameters drawn from
    (seed, k)."""
    r, j = divmod(k, len(SMALL_ROUND))
    kind, variant = SMALL_ROUND[j]
    if variant < 0:
        variant = r % 2
    spec, point = _SMALL_MAKERS[kind](_rng("small-batch", seed, k), variant)
    return Case(f"{kind}/{variant} #{k}", spec, render(spec), point=tuple(point))


# ---------------------------------------------------------------------------
# workloads: set-up, the input of each op (untimed) and the op itself (timed)
#
# sipcert and numpy are imported inside the functions that call them, so that
# importing this module costs nothing and the first import falls inside the
# timed set-up (`prepare`). Calls go through module attributes, which a traced
# run replaces with wrappers.


class UnexpectedStatus(RuntimeError):
    """An op ended with a status its input rules out."""


@dataclass(frozen=True)
class Op:
    case: Case
    inst: object  # the loaded instance; None when the op loads it itself
    args: object  # the CLI namespace `cli.main` would build


def _cli_args(argv):
    """A `sipcert` command line, parsed and normalized the way `cli.main` does."""
    import sipcert.cli
    import sipcert.cq

    args = sipcert.cli.make_parser().parse_args(argv)
    args.eps_schedule = sipcert.cq.EPS_SCHEDULE
    args.variants = tuple(v.strip() for v in args.variant.split(",") if v.strip())
    return args


def _analyze_args():
    return _cli_args(["analyze", "<generated>", "--point=0", "--deterministic"])


def _emit(doc) -> str:
    """What `sipcert ... --report both` prints: the text, then the JSON."""
    import sipcert.cli

    sipcert.cli.render_text(doc)
    return json.dumps(doc, indent=2, sort_keys=True)


def _analyze(inst, op: Op) -> str:
    """The `sipcert analyze` path: feasibility gate, report, rendering."""
    import numpy as np
    import sipcert.cli
    import sipcert.model

    x = np.array(op.case.point, dtype=float)
    if not sipcert.model.feasibility_check(inst, x).feasible:
        raise UnexpectedStatus("generated point reported infeasible")
    doc = sipcert.cli.build_report(inst, x, instance_path=None, instance_text=op.case.text,
                                   args=op.args)
    return _emit(doc)


class CountableWide:
    name = "analyze-countable-wide"
    ops_per_round = 4

    def prepare(self, seed: int):
        import sipcert.model

        args = _analyze_args()
        return [Op(c, sipcert.model.loads_instance(c.text), args)
                for c in (countable_case(seed, j) for j in range(self.ops_per_round))]

    def op(self, state, k: int) -> Op:
        return state[k % self.ops_per_round]

    def warmup(self, state) -> Op:
        return state[0]

    def run(self, op: Op) -> str:
        return _analyze(op.inst, op)


class SolveExchange:
    name = "solve-exchange"
    ops_per_round = len(SOLVE_ROUND)

    def prepare(self, seed: int):
        import sipcert.model

        insts = {name: sipcert.model.loads_instance(render(spec))
                 for name, spec in sorted(SOLVE_SPECS.items())}
        return {"seed": seed, "insts": insts, "round": (None, [])}

    def _op(self, state, case: Case) -> Op:
        args = _cli_args([
            "solve", "<generated>", "--deterministic", f"--seed={case.solver_seed}",
            f"--max-iters={SOLVER_MAX_OUTER}", f"--multistart={SOLVER_MULTISTART}",
        ])
        return Op(case, state["insts"][case.label.split()[0]], args)

    def op(self, state, k: int) -> Op:
        r, j = divmod(k, self.ops_per_round)
        if state["round"][0] != r:
            state["round"] = (r, solve_round(state["seed"], r))
        return self._op(state, state["round"][1][j])

    def warmup(self, state) -> Op:
        """The cheapest instance, so the warm-up stays short."""
        spec = SOLVE_SPECS["convex_toy"]
        return self._op(state, Case("convex_toy warm-up", spec, render(spec),
                                    solver_seed=state["seed"],
                                    expect=dict(SOLVE_EXPECT["convex_toy"])))

    def run(self, op: Op) -> str:
        """`sipcert solve`: the solver, then the report on its candidate."""
        import numpy as np
        import sipcert.cli
        import sipcert.solver

        config = sipcert.solver.SolverConfig(
            max_outer=op.args.max_iters, multistart=op.args.multistart, seed=op.args.seed
        )
        candidate, trace = sipcert.solver.solve(op.inst, config)
        doc = sipcert.cli.build_report(
            op.inst, np.asarray(candidate, dtype=float), instance_path=None,
            instance_text=op.case.text, args=op.args, solver_result=(candidate, trace),
            analyze=trace.status != "iteration_limit",
        )
        return _emit(doc)


class SmallBatch:
    name = "analyze-small-batch"
    ops_per_round = len(SMALL_ROUND)

    def prepare(self, seed: int):
        return {"seed": seed, "args": _analyze_args(), "first": small_case(seed, 0)}

    def op(self, state, k: int) -> Op:
        case = state["first"] if k == 0 else small_case(state["seed"], k)
        return Op(case, None, state["args"])

    def warmup(self, state) -> Op:
        return Op(small_case(state["seed"], -1), None, state["args"])

    def run(self, op: Op) -> str:
        """`sipcert analyze` on text: parse the instance, then analyze."""
        import sipcert.model

        return _analyze(sipcert.model.loads_instance(op.case.text), op)


WORKLOADS = {w.name: w for w in (CountableWide(), SolveExchange(), SmallBatch())}
