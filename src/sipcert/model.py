"""Problem instances: data model, instance-file loading, feasibility,
active index sets, and uniform-differentiability moduli estimates.

Index families over truncated infinite sets carry a *tail ladder*: the family
is also evaluated at indices pushed toward the unattained end of the set
(huge countable indices, or interval points geometrically approaching an open
endpoint). The ladder gives honest finite surrogates for suprema that are
approached but never attained, and feeds the limit-ray machinery.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

from . import expr as ex

_CONSTRAINT_NAME = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\))?$"
)

DEFAULT_TRUNCATION = 10_000
DEFAULT_RESOLUTION = 257
DEFAULT_REFINEMENTS = 4
FEAS_TOL = 1e-9
ACT_TOL = 1e-9  # slack under which a constraint value still counts as active


class InstanceError(ValueError):
    """Instance validation or file-format failure."""

    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)
        self.line = line


@dataclass(frozen=True)
class FiniteIndexSet:
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise InstanceError("finite index set needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise InstanceError("finite index set values must be finite")


@dataclass(frozen=True)
class IntervalGridIndexSet:
    lower: float
    upper: float
    include_lower: bool = True
    include_upper: bool = True
    resolution: int = DEFAULT_RESOLUTION
    refinements: int = DEFAULT_REFINEMENTS

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InstanceError("interval index set ends must be finite")
        if not self.lower < self.upper:
            raise InstanceError("interval index set needs lower < upper")
        if self.resolution < 2:
            raise InstanceError("interval resolution must be at least 2")


@dataclass(frozen=True)
class CountableIndexSet:
    start: int = 0
    truncation: int = DEFAULT_TRUNCATION
    limit_ray: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.start < 0 or self.truncation < self.start:
            raise InstanceError("countable index set needs 0 <= start <= truncation")
        if self.limit_ray is not None:
            if not all(math.isfinite(v) for v in self.limit_ray):
                raise InstanceError("limit_ray must be finite")
            if not any(self.limit_ray):
                raise InstanceError("limit_ray must be nonzero")


IndexSetDescriptor = Union[FiniteIndexSet, IntervalGridIndexSet, CountableIndexSet]


@dataclass(frozen=True)
class ConstraintFamily:
    name: str
    index_name: str
    body: ex.ExprAst


@dataclass(frozen=True)
class EqualityBlock:
    components: tuple[ex.ExprAst, ...] = ()
    affine: bool = False
    names: tuple[str, ...] = ()

    def __len__(self):
        return len(self.components)


@dataclass(frozen=True)
class SmoothCost:
    body: ex.ExprAst


@dataclass(frozen=True)
class ConvexMaxCost:
    pieces: tuple[ex.ExprAst, ...]

    def __post_init__(self):
        if not self.pieces:
            raise InstanceError("max-type cost needs at least one piece")


@dataclass(frozen=True)
class SipInstance:
    dim: int
    cost: SmoothCost | ConvexMaxCost
    fixed: tuple[tuple[str, ex.ExprAst], ...] = ()
    families: tuple[tuple[ConstraintFamily, IndexSetDescriptor], ...] = ()
    equalities: EqualityBlock = EqualityBlock()
    convex: bool = False
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not 1 <= self.dim <= ex.MAX_DIM:
            raise InstanceError(f"dimension must be between 1 and {ex.MAX_DIM}")
        bodies = []
        if isinstance(self.cost, SmoothCost):
            bodies.append(("cost", self.cost.body, set()))
        else:
            bodies.extend((f"cost piece {i}", p, set()) for i, p in enumerate(self.cost.pieces))
        for name, body in self.fixed:
            bodies.append((name, body, set()))
        for fam, desc in self.families:
            bodies.append((fam.name, fam.body, {fam.index_name}))
            ray = getattr(desc, "limit_ray", None)
            if ray is not None and len(ray) != self.dim:
                raise InstanceError(f"'{fam.name}' limit_ray needs {self.dim} components")
        names = [name for name, _ in self.fixed] + [fam.name for fam, _ in self.families]
        for name in names:
            if names.count(name) > 1:
                raise InstanceError(f"constraint name '{name}' is used more than once")
        for i, comp in enumerate(self.equalities.components):
            name = self.equalities.names[i] if i < len(self.equalities.names) else f"h{i + 1}"
            bodies.append((name, comp, set()))
        for name, body, allowed in bodies:
            if ex.depth(body) > ex.MAX_DEPTH:
                raise InstanceError(f"'{name}' is nested deeper than {ex.MAX_DEPTH} levels")
            if ex.max_var_position(body) > self.dim:
                raise InstanceError(f"'{name}' references a variable beyond dimension {self.dim}")
            extra = ex.free_index_names(body) - allowed
            if extra:
                raise InstanceError(f"'{name}' uses undeclared index variable(s) {sorted(extra)}")
        if len(self.equalities) >= self.dim:
            raise InstanceError("need fewer equalities than decision variables")
        if self.box is not None:
            if len(self.box) != self.dim:
                raise InstanceError("box must give one range per variable")
            for lo, hi in self.box:
                if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                    raise InstanceError("box range needs finite lower < upper")

    # equality block helpers
    def eq_values(self, x) -> np.ndarray:
        return np.array([float(ex.eval_value(c, x)) for c in self.equalities.components])

    def eq_jacobian(self, x) -> np.ndarray:
        rows = [ex.eval_grad(c, x)[1] for c in self.equalities.components]
        return np.array(rows, dtype=float).reshape(len(rows), self.dim)

    def _read(self, bodies, x) -> list[float]:
        """Each body's value at x from its masked kernel, a NaN (as at a point the
        expression rejects) read as +inf, as in ConstraintScan.argmax and the solver."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = [float(ex.eval_value(b, x, masked=True)) for b in bodies]
        return [v if v == v else math.inf for v in vals]

    def eq_residual(self, x) -> float:
        """Largest absolute equality residual at x, read by ``_read``; 0 without equalities."""
        return max(map(abs, self._read(self.equalities.components, x)), default=0.0)

    def box_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the declared box, [-1, 1]^dim without one."""
        if self.box is None:
            return -np.ones(self.dim), np.ones(self.dim)
        lo, hi = np.array(self.box, dtype=float).T
        return lo, hi

    def cost_value(self, x) -> float:
        """The cost at x, its largest piece for a max-type cost, read by ``_read``."""
        pieces = (self.cost.body,) if isinstance(self.cost, SmoothCost) else self.cost.pieces
        return max(self._read(pieces, x))


# ---------------------------------------------------------------------------
# materialization


@dataclass(frozen=True, order=True)
class IndexId:
    block: int
    value: float
    label: str = field(compare=False)
    family: str | None = field(compare=False, default=None)


def _index_label(family: str, t: float) -> str:
    if float(t).is_integer() and abs(t) < 1e15:
        return f"{family}({int(t)})"
    return f"{family}({t!r})"


@dataclass
class FamilyScan:
    name: str
    block: int
    ladders: list[slice]  # ladders[k]: the table rows with ladder == k
    complete: bool
    declared_ray: tuple[float, ...] | None = None  # as declared; cones.declared_rays normalizes
    compact: bool = False  # a closed interval: the index set is compact, nothing to extrapolate


class RowLabels(Sequence):
    """Labels of chosen scan rows, formatted only when read."""

    def __init__(self, scan: "ConstraintScan", rows: np.ndarray):
        self._scan = scan
        self._rows = rows

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        return self._scan.label(self._rows[i])


@dataclass
class ConstraintScan:
    """Every materialized constraint at x as one flat table with one row per
    index: the fixed constraints in declaration order, then for each family
    its grid rows by ascending index value followed by its tail-ladder rows.
    Every selection is a boolean mask over the rows, and row order is the
    column order of every cone built from the scan."""

    x: np.ndarray
    fixed_names: list[str]
    families: list[FamilyScan]
    n_levels: int
    block: np.ndarray  # fixed position, or len(fixed) + family position
    t: np.ndarray  # index value, 0 on fixed rows
    level: np.ndarray  # first refinement level whose grid holds the index
    ladder: np.ndarray  # tail ladder of the family, -1 off the ladders
    param: np.ndarray  # ladder parameter s -> 0 on tail rows
    value: np.ndarray
    # one per fixed constraint, family grid or tail ladder: (body, index name or None, rows)
    segments: list[tuple[ex.ExprAst, str | None, slice]]

    @cached_property
    def grad(self) -> np.ndarray:
        """(rows, dim) x-gradients, made on first read by one masked gradient
        kernel call per segment, grid or tail ladder alike, its index values
        bound as a view of `t`; the scan makes gradients nowhere else. A row
        whose gradient alone is rejected (sqrt at 0) keeps its value and has a
        NaN gradient. Every row has the bits it has when evaluated alone."""
        grad = np.empty((len(self.value), len(self.x)))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for body, name, rows in self.segments:
                grad[rows] = ex.eval_grad(
                    body, self.x, name and {name: self.t[rows]}, masked=True)[1]
        return grad

    @property
    def tail(self) -> np.ndarray:
        return self.ladder >= 0

    @cached_property
    def grad_norms(self) -> np.ndarray:
        """Row 2-norms of `grad`; one that overflows is inf, with no RuntimeWarning."""
        return row_norms(self.grad)

    @cached_property
    def grad_finite(self) -> np.ndarray:
        """Mask of the rows whose gradient is finite in every entry."""
        return np.isfinite(self.grad).all(axis=1)

    def grid(self, level: int | None = None, block: int | None = None) -> np.ndarray:
        """Mask of the fixed and family grid rows, up to a refinement level
        (the finest by default), optionally of one block only."""
        mask = self.ladder < 0
        if level is not None:
            mask &= self.level <= level
        if block is not None:
            mask &= self.block == block
        return mask

    def tail_limit(self, rows: slice) -> tuple[float | None, bool]:
        """(value limit, ok) of the tail ladder on `rows`, read off its last two
        rows whose gradient is finite: the later one's value, and whether their
        values and gradients agree to 1e-6. (None, False) with fewer than two."""
        last = rows.start + np.flatnonzero(self.grad_finite[rows])[-2:]
        if len(last) < 2:
            return None, False
        (v0, v1), (g0, g1) = self.value[last].tolist(), self.grad[last].tolist()
        step = max(abs(b - a) for a, b in zip(g0, g1))  # Python floats overflow to inf, silently
        return v1, abs(v1 - v0) <= 1e-6 and step <= 1e-6

    def active(
        self, eps: float = 0.0, *, level: int | None = None, normalized: bool = False
    ) -> np.ndarray:
        """The one activity rule: grid rows up to `level` whose value is >= -(eps
        + ACT_TOL), or >= -(eps * |grad| + ACT_TOL) when normalized."""
        scale = self.grad_norms if normalized else 1.0
        return self.grid(level) & (self.value >= -(eps * scale + ACT_TOL))

    def label(self, row: int) -> str:
        b = int(self.block[row])
        if b < len(self.fixed_names):
            return self.fixed_names[b]
        return _index_label(self.families[b - len(self.fixed_names)].name, float(self.t[row]))

    def index_id(self, row: int) -> IndexId:
        b = int(self.block[row])
        nf = len(self.fixed_names)
        family = self.families[b - nf].name if b >= nf else None
        return IndexId(b, float(self.t[row]), self.label(row), family)

    def argmax(self) -> tuple[float, int | None]:
        """Largest constraint value and the first row attaining it. A NaN
        value counts as +inf: a constraint that cannot be evaluated is
        violated. The row is None when no value exceeds -inf."""
        values = np.where(np.isnan(self.value), math.inf, self.value)
        if not len(values):
            return -math.inf, None
        row = int(values.argmax())
        if values[row] == -math.inf:
            return -math.inf, None
        return float(values[row]), row


def unit_vectors(v) -> np.ndarray:
    """Unit vectors along the last axis of v, robust to entries near the
    underflow floor. Zero or non-finite vectors come back as NaN."""
    v = np.asarray(v, dtype=float)
    peak = np.abs(v[..., :1])
    for j in range(1, v.shape[-1]):
        np.maximum(peak, np.abs(v[..., j : j + 1]), out=peak)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = v / peak
        u /= np.expand_dims(row_norms(u), -1)  # a float for one vector
    return np.where((peak == 0.0) | ~np.isfinite(peak), np.nan, u)


def _ladder_exponents(k0: int) -> list[int]:
    ks = list(range(k0, min(k0 + 5, 300)))
    k = k0 + 6
    while k < 300:
        ks.append(k)
        k = int(k * 1.6) + 2
    ks.append(300)
    return sorted(set(ks))


def _rows(body: ex.ExprAst, name: str, x, ts: np.ndarray) -> np.ndarray:
    """Values of one family body at x over the index array ts, one per
    entry, from one masked value-kernel call. The scan's one domain-error
    rule: an entry the kernel rejects is NaN, and like any NaN it counts as
    violated; the others equal lone rows bit for bit. A result with one row
    per entry is returned as it is; only an index-free body's scalar is
    expanded."""
    vals = ex.eval_value(body, x, {name: ts}, masked=True)
    return vals if np.ndim(vals) else np.full(len(ts), vals)


def _tail_ladders(fam: ConstraintFamily, desc: IndexSetDescriptor, x):
    """Evaluate toward the unattained ends of the index set. One
    (params, index values, values) per ladder, ordered so the parameter
    decreases to 0, from one masked value-kernel call (`_rows`): a ladder
    keeps every row whose value is finite, and drops only the others."""
    ladders: list[tuple[np.ndarray, np.ndarray]] = []  # (params s -> 0, index values)
    if isinstance(desc, CountableIndexSet):
        e0 = int(math.floor(math.log10(max(desc.truncation, 1)))) + 1
        ns = np.array([10.0**e for e in _ladder_exponents(e0)])
        ladders.append((1.0 / ns, ns))
    elif isinstance(desc, IntervalGridIndexSet):
        width = desc.upper - desc.lower
        k0 = int(math.ceil(math.log10(desc.resolution))) + 1
        ss = np.array([10.0 ** (-k) for k in _ladder_exponents(k0)])
        inside = np.nextafter(desc.lower, desc.upper), np.nextafter(desc.upper, desc.lower)
        for end, sign, included in ((desc.lower, 1.0, desc.include_lower),
                                    (desc.upper, -1.0, desc.include_upper)):
            if included:
                continue
            # a row within half an ulp of the excluded end would land on it: it
            # moves to the nearest float inside, and of equal rows the first stays
            ts = end + sign * width * ss
            clipped = np.clip(ts, *inside)
            params = np.where(clipped != ts, np.abs(end - clipped) / width, ss)
            first = np.concatenate([[True], clipped[1:] != clipped[:-1]])
            ladders.append((params[first], clipped[first]))
    out = []
    for params, ts in ladders:
        vals = _rows(fam.body, fam.index_name, x, ts)
        finite = np.isfinite(vals)
        out.append((params[finite], ts[finite], vals[finite]))
    return out


def _base_grid(desc: IndexSetDescriptor) -> np.ndarray:
    if isinstance(desc, FiniteIndexSet):
        return np.array(sorted(desc.values), dtype=float)
    if isinstance(desc, CountableIndexSet):
        return np.arange(desc.start, desc.truncation + 1, dtype=float)
    ts = np.linspace(desc.lower, desc.upper, desc.resolution)
    if not desc.include_lower:
        ts = ts[1:]
    if not desc.include_upper:
        ts = ts[:-1]
    return ts


_REFINE_SITES = 12
_PARABOLA_STEPS = 8


def _sites(vals: np.ndarray) -> np.ndarray:
    """Rows of the `_REFINE_SITES` highest local maximizers of a value profile,
    highest first, ties in row order."""
    m = len(vals)
    is_max = np.ones(m, dtype=bool)
    if m > 1:
        is_max[1:] &= vals[1:] >= vals[:-1]
        is_max[:-1] &= vals[:-1] >= vals[1:]
    order = np.argsort(-vals, kind="stable")
    return order[is_max[order]][:_REFINE_SITES]


def _refine_once(desc: IntervalGridIndexSet, ts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Bisection points around local maximizers of the value profile on the
    sorted grid ts: the new points only, sorted, inside the index set."""
    m = len(ts)
    new_pts = []
    for i in _sites(vals):
        if i > 0:
            new_pts.append(0.5 * (ts[i - 1] + ts[i]))
        elif not desc.include_lower:
            new_pts.append(0.5 * (desc.lower + ts[0]))
        if i < m - 1:
            new_pts.append(0.5 * (ts[i] + ts[i + 1]))
        elif not desc.include_upper:
            new_pts.append(0.5 * (ts[-1] + desc.upper))
    new = np.unique(np.array(new_pts, dtype=float))
    lo_ok = new > desc.lower if not desc.include_lower else new >= desc.lower
    up_ok = new < desc.upper if not desc.include_upper else new <= desc.upper
    new = new[lo_ok & up_ok]
    pos = np.minimum(np.searchsorted(ts, new), m - 1)
    return new[ts[pos] != new]


def _parabola_vertices(fam: ConstraintFamily, x, ts: np.ndarray, vals: np.ndarray):
    """(index values, values) of the maxima inside the strict brackets among
    the sites of the sorted grid ts: three consecutive rows with finite
    values, the middle strictly highest. Successive parabolic interpolation
    (Brent 1973) steps every bracket at once, one `_rows` call per step. A
    vertex is clipped to the floats strictly inside its bracket, so it stays
    inside the index set (the ladders' clip rule); a higher vertex becomes
    the middle, with the nearer old points as its neighbours. A site stops at
    a vertex within 4 ulps of its middle or no higher than it, or after
    `_PARABOLA_STEPS` steps. Only middles that moved off the grid return."""
    sites = []
    for i in _sites(vals).tolist():
        if 0 < i < len(ts) - 1:
            fa, fb, fc = vals[i - 1 : i + 2].tolist()
            if fa < fb > fc and all(map(math.isfinite, (fa, fb, fc))):
                sites.append([*ts[i - 1 : i + 2].tolist(), fa, fb, fc])
    start, live = [site[1] for site in sites], sites
    for _ in range(_PARABOLA_STEPS):
        steps = []
        for site in live:
            a, b, c, fa, fb, fc = site
            p, q = (b - a) * (fb - fc), (b - c) * (fb - fa)  # p > 0 > q on a strict bracket
            u = b - 0.5 * ((b - a) * p - (b - c) * q) / (p - q) if p > q else b
            u = min(max(u, math.nextafter(a, c)), math.nextafter(c, a))  # a NaN vertex stays NaN
            if abs(u - b) > 4.0 * math.ulp(b):
                steps.append((site, u))
        if not steps:
            break
        live = []
        for (site, u), fu in zip(steps, _rows(fam.body, fam.index_name, x,
                                              np.array([u for _, u in steps])).tolist()):
            if fu > site[4]:  # False on NaN
                a, b, c, fa, fb, fc = site
                site[:] = [a, u, b, fa, fu, fb] if u < b else [b, u, c, fb, fu, fc]
                live.append(site)
    moved = [(site[1], site[4]) for site, t0 in zip(sites, start) if site[1] != t0]
    return np.array([t for t, _ in moved]), np.array([v for _, v in moved])


def with_grid(inst: SipInstance, *, truncation: int | None = None) -> SipInstance:
    """The instance with every countable truncation set to `truncation`,
    never below the set's start; the instance itself when it is None. Every
    scan of the result reads its grids."""
    if truncation is None:
        return inst
    return replace(inst, families=tuple(
        (fam, replace(desc, truncation=max(truncation, desc.start))
         if isinstance(desc, CountableIndexSet) else desc) for fam, desc in inst.families))


def _family_grid(fam: ConstraintFamily, desc: IndexSetDescriptor, x):
    """(ts, level, values) of one family's grid at x, by ascending ts: the
    base grid, on an interval refined around maximizers of the values and
    joined by the parabolic vertices at the finest level."""
    ts = _base_grid(desc)
    if len(ts) == 0:
        raise InstanceError(f"family '{fam.name}' materializes to an empty index set")
    vals = _rows(fam.body, fam.index_name, x, ts)
    level = np.zeros(len(ts), dtype=int)
    if isinstance(desc, IntervalGridIndexSet):
        for k in range(1, desc.refinements + 2):
            if k <= desc.refinements:
                new = _refine_once(desc, ts, vals)
                new_vals = _rows(fam.body, fam.index_name, x, new)
            else:
                new, new_vals = _parabola_vertices(fam, x, ts, vals)
            order = np.argsort(np.concatenate([ts, new]), kind="stable")
            ts = np.concatenate([ts, new])[order]
            vals = np.concatenate([vals, new_vals])[order]
            level = np.concatenate([level, np.full(len(new), min(k, desc.refinements))])[order]
    return ts, level, vals


def _checked_point(inst: SipInstance, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.dim,):
        raise InstanceError(f"point must have dimension {inst.dim}")
    if not np.isfinite(x).all():
        raise InstanceError("point must be finite")
    return x


def scan_constraints(inst: SipInstance, x) -> ConstraintScan:
    """Evaluate every constraint at x: fixed constraints, family grids with
    refinement levels (interval grids refine around local maximizers of the
    constraint value), the parabolic vertices of interval grids
    (`_parabola_vertices`, rows of the finest level) and tail ladders for
    truncated descriptors, all on the instance's grids (`with_grid` sets a
    run's countable truncation); `ConstraintScan.grid()` masks the grid rows
    alone. Each index is evaluated once, grid and ladder rows alike, by its
    masked value kernel; gradients are made on the first read of
    `ConstraintScan.grad`. Overflow and NaN raise no RuntimeWarning: a
    non-finite value counts as a violation, and a ladder drops it."""
    x = _checked_point(inst, x)
    # one segment of table rows per fixed constraint, family grid or ladder: (body, index
    # name, rows, then its entries of the columns block, t, level, ladder, param, value)
    segments = []
    families = []
    n_levels = 1
    n = 0

    def span(m: int) -> slice:
        nonlocal n
        n += m
        return slice(n - m, n)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, (_, body) in enumerate(inst.fixed):
            segments.append((body, None, span(1), i, 0.0, 0, -1, 0.0,
                             ex.eval_value(body, x, masked=True)))
        for pos, (fam, desc) in enumerate(inst.families):
            block = len(inst.fixed) + pos
            ts, level, vals = _family_grid(fam, desc, x)
            if isinstance(desc, IntervalGridIndexSet):
                n_levels = max(n_levels, desc.refinements + 1)
            segments.append((fam.body, fam.index_name, span(len(ts)), block, ts, level, -1, 0.0,
                             vals))
            ladders = [(fam.body, fam.index_name, span(len(lts)), block, lts, 0, k, params, lvals)
                       for k, (params, lts, lvals) in
                       enumerate(_tail_ladders(fam, desc, x))]
            segments.extend(ladders)
            families.append(
                FamilyScan(
                    name=fam.name,
                    block=block,
                    ladders=[rows for _, _, rows, *_ in ladders],
                    complete=isinstance(desc, FiniteIndexSet),
                    declared_ray=getattr(desc, "limit_ray", None),
                    compact=isinstance(desc, IntervalGridIndexSet)
                    and desc.include_lower and desc.include_upper,
                )
            )
    columns = [np.empty(n, dtype) for dtype in (int, float, int, int, float, float)]
    for j, (body, name, rows, *values) in enumerate(segments):
        for column, v in zip(columns, values):
            column[rows] = v
        segments[j] = (body, name, rows)
    block, t, level, ladder, param, value = columns
    return ConstraintScan(
        x=x,
        fixed_names=[name for name, _ in inst.fixed],
        families=families,
        n_levels=n_levels,
        block=block,
        t=t,
        level=level,
        ladder=ladder,
        param=param,
        value=value,
        segments=segments,
    )


# ---------------------------------------------------------------------------
# feasibility and active sets


@dataclass
class FeasibilityResult:
    max_violation: float
    eq_residual: float
    feasible: bool
    worst: IndexId | None


def feasibility_check(
    inst: SipInstance, x, *, scan: ConstraintScan | None = None
) -> FeasibilityResult:
    """Largest inequality value and equality residual at x, over every row of
    `scan` (a full scan by default). A full scan's tail ladders make suprema
    that are approached as the index runs off a truncated set count against
    feasibility. A constraint value that is NaN counts as an infinite
    violation.
    """
    scan = scan or scan_constraints(inst, x)
    best, row = scan.argmax()
    if row is None:
        best = 0.0
    eq = inst.eq_residual(x)
    return FeasibilityResult(
        max_violation=best,
        eq_residual=eq,
        feasible=(best <= FEAS_TOL and eq <= FEAS_TOL),
        worst=None if row is None else scan.index_id(row),
    )


@dataclass
class IndexEntry:
    id: IndexId
    value: float
    grad: np.ndarray


@dataclass
class ActiveSetReport:
    """Active grid rows of a scan; entries are built only when read."""

    eps: float
    scan: ConstraintScan
    active_rows: np.ndarray
    eps_active_rows: np.ndarray
    normalized_rows: np.ndarray
    grad_norm_bound: float
    grad_norm_min: float

    def _entries(self, rows) -> list[IndexEntry]:
        s = self.scan
        return [IndexEntry(s.index_id(i), float(s.value[i]), s.grad[i]) for i in rows]

    @property
    def active(self) -> list[IndexEntry]:
        return self._entries(self.active_rows)


def active_set(
    inst: SipInstance,
    x,
    eps: float = 0.0,
    *,
    scan: ConstraintScan | None = None,
) -> ActiveSetReport:
    """Exact active set (values within ACT_TOL of zero), the eps-active set
    (values >= -eps), and the gradient-normalized eps-active set
    (values >= -eps * |grad|), over the finest grid."""
    if eps < 0:
        raise InstanceError("eps must be nonnegative")
    scan = scan or scan_constraints(inst, x)
    grid = scan.grid()
    norms = scan.grad_norms
    return ActiveSetReport(
        eps=eps,
        scan=scan,
        active_rows=np.flatnonzero(scan.active()),
        eps_active_rows=np.flatnonzero(scan.active(eps)),
        normalized_rows=np.flatnonzero(scan.active(eps, normalized=True)),
        grad_norm_bound=float(np.max(norms[grid])) if grid.any() else 0.0,
        grad_norm_min=float(np.min(norms[grid])) if grid.any() else 0.0,
    )


def gradient_bound_check(report: ActiveSetReport) -> tuple[float, bool, bool]:
    """(bound, finite flag, normalization trigger). The trigger fires when
    gradient norms spread by three orders of magnitude or more, which is when
    the gradient-normalized active set becomes the better representation."""
    bound = report.grad_norm_bound
    ok = math.isfinite(bound)
    spread = bound / max(report.grad_norm_min, 1e-300)
    return bound, ok, bool(ok and spread >= 1e3)


# ---------------------------------------------------------------------------
# uniform differentiability moduli


@dataclass
class UniformityModuli:
    etas: np.ndarray
    s_est: np.ndarray
    r_est: np.ndarray
    samples_per_eta: int

    @property
    def regular(self) -> bool | None:
        """Whether the modulus at the first eta is small against the one at the
        last: at most max(1e-2, sqrt(eta_first / eta_last) times it). On a log
        scale that ratio lies halfway between r proportional to eta, as for
        any C^2 body, and a constant r. None for fewer than two etas."""
        r, e = self.r_est, self.etas
        return bool(r[0] <= max(1e-2, math.sqrt(e[0] / e[-1]) * r[-1])) if len(r) > 1 else None


_MODULI_PER_FAMILY = 48
# the first primes, one per coordinate of a Kronecker point: MAX_DIM + 1 of them
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


def kronecker(count: int, dim: int, seed: int) -> np.ndarray:
    """The points k a + s (mod 1) for k = 1..count, a (count, dim) array in
    [0, 1), with a_j = sqrt(p_j) mod 1 over the first `dim` primes and the
    shift s = seed a[::-1] mod 1: a Kronecker sequence that the seed shifts.
    The shift is reduced exactly, in rationals, before it is rounded, so a
    large seed rounds the points no coarser than seed 0 does. Only correctly
    rounded operations build them, so their bits are the same on every
    platform."""
    a = np.sqrt(np.array(_PRIMES[:dim], dtype=float)) % 1.0
    shift = np.array([float(seed * Fraction(aj) % 1) for aj in a[::-1].tolist()])
    return (np.arange(1.0, count + 1.0)[:, None] * a + shift) % 1.0


def row_dot(a, b) -> np.ndarray:
    """Dot products over the last axis of a and b (broadcast), summed
    coordinate by coordinate in ascending order so that no BLAS kernel rounds them."""
    acc = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        acc += a[..., j] * b[..., j]
    return acc


def row_norms(v) -> np.ndarray | float:
    """2-norms over the last axis of v, its squares summed as `row_dot` sums
    them. That is numpy's own reduce order for fewer than 8 coordinates, so
    the bits are those of `np.linalg.norm(v, axis=-1)`. A norm that overflows
    is inf, with no RuntimeWarning. The norm of one vector is a Python float,
    summed on Python floats in the same order, where numpy's 0-d arithmetic
    would cost several times more."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        acc = 0.0  # + 0.0 keeps every sum of squares, none of which is -0.0
        for vj in v.tolist():
            acc += vj * vj  # Python floats overflow to inf, silently
        return math.sqrt(acc)
    with np.errstate(over="ignore"):
        return np.sqrt(row_dot(v, v))


def estimate_moduli(
    inst: SipInstance,
    x,
    etas: Sequence[float] = (0.2, 0.1, 0.05, 0.02, 0.01),
    samples_per_eta: int = 200,
    seed: int = 0,
    *,
    scan: ConstraintScan | None = None,
) -> UniformityModuli:
    """Lower estimates of the uniform linearization moduli on sample points.

    s(eta) takes quotients against the base point only; r(eta) additionally
    uses point pairs in the eta-ball and always dominates s. Estimates are
    running suprema over the samples, nondecreasing in eta. The sampled rows
    are every fixed constraint, up to 48 evenly spaced points of each finest
    family grid, and the last three points of each tail ladder whose gradient
    is finite. Row j takes the points j S + 1 .. (j + 1) S of
    `kronecker(rows S, n + 1, seed)`, S = `samples_per_eta`: the normalized
    2q - 1 of the first n coordinates is a direction, and
    (0.05 + 0.95 q_last)^(1/n) its radius in the unit ball. The one ball
    serves every eta as x + eta * ball. Each body is evaluated once per eta,
    by its masked value kernel, on the samples of all its rows. As in the
    scan, a sample the expression rejects is NaN and overflow raises no
    RuntimeWarning; a row with a NaN quotient adds nothing."""
    x = np.asarray(x, dtype=float)
    n = inst.dim
    scan = scan or scan_constraints(inst, x)
    nf = len(scan.fixed_names)
    pool = [np.arange(nf)]
    for fam in scan.families:
        grid = np.flatnonzero(scan.grid(block=fam.block))
        if len(grid) > _MODULI_PER_FAMILY:
            take = np.linspace(0, len(grid) - 1, _MODULI_PER_FAMILY).astype(int)
            grid = grid[np.unique(take)]
        pool.append(grid)
        pool.extend(rows.start + np.flatnonzero(scan.grad_finite[rows])[-3:]
                    for rows in fam.ladders)
    rows = np.concatenate(pool)
    etas_sorted = np.array(sorted(etas))
    s_est = np.zeros(len(etas_sorted))
    r_est = np.zeros(len(etas_sorted))

    # one body per block: its rows' positions in `rows`, index name and values
    bodies = []
    blocks = scan.block[rows]
    for b in np.unique(blocks):
        sel = np.flatnonzero(blocks == b)
        fam_obj = inst.families[b - nf][0] if b >= nf else None
        body = fam_obj.body if fam_obj else inst.fixed[b][1]
        bodies.append((sel, body, fam_obj and fam_obj.index_name, scan.t[rows[sel]]))
    v0 = scan.value[rows][:, None]
    g0 = scan.grad[rows][:, None]
    half = samples_per_eta // 2
    q = kronecker(len(rows) * samples_per_eta, n + 1, seed)
    q = q.reshape(len(rows), samples_per_eta, n + 1)

    s_run, r_run = 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = 2.0 * q[..., :n] - 1.0
        ball = (0.05 + 0.95 * q[..., n:]) ** (1.0 / n) * (u / row_norms(u)[..., None])
        for k, eta in enumerate(etas_sorted):
            pts = x + eta * ball
            vals = np.empty((len(rows), samples_per_eta))
            for sel, body, name, ts in bodies:
                vals[sel] = ex.eval_value(body, pts[sel], name and {name: ts[:, None]}, masked=True)
            diffs = pts - x
            quot_s = np.abs(vals - v0 - row_dot(diffs, g0)) / row_norms(diffs)
            # fmax passes over a row whose maximum is NaN: that row adds nothing
            s_run = float(np.fmax.reduce(np.max(quot_s, axis=1), initial=s_run))
            if half:
                # pairs for the two-point modulus, plus the base-point pairs
                d2 = pts[:, :half] - pts[:, half : 2 * half]
                n2 = row_norms(d2)
                keep = n2 > 1e-12
                num = np.abs(vals[:, :half] - vals[:, half : 2 * half] - row_dot(d2, g0))
                quot_r = np.where(keep, num / np.where(keep, n2, 1.0), -math.inf)
                r_run = float(np.fmax.reduce(np.max(quot_r, axis=1), initial=r_run))
            r_run = max(r_run, s_run)
            s_est[k] = s_run
            r_est[k] = r_run
    return UniformityModuli(
        etas=etas_sorted,
        s_est=s_est,
        r_est=r_est,
        samples_per_eta=samples_per_eta,
    )


# ---------------------------------------------------------------------------
# instance file format


def _parse_bool(text: str, line: int) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise InstanceError(f"expected a boolean, got {text!r}", line)


def _parse_numbers(text: str, line: int, count: int | None = None) -> tuple[float, ...]:
    """Whitespace-separated finite numbers, exactly `count` of them if given."""
    try:
        vals = tuple(float(v) for v in text.split())
    except ValueError as err:
        raise InstanceError(f"bad number: {err}", line) from None
    if count is not None and len(vals) != count:
        raise InstanceError(f"expected {count} number(s), got {len(vals)}", line)
    if not all(math.isfinite(v) for v in vals):
        raise InstanceError(f"non-finite number in {text.strip()!r}", line)
    return vals


def _parse_expr(text: str, line: int) -> ex.ExprAst:
    try:
        return ex.parse(text)
    except ex.ParseError as err:
        raise InstanceError(f"bad expression: {err}", line) from err


def loads_instance(text: str) -> SipInstance:
    """Parse the sectioned instance format. See the README for the grammar."""
    section = None
    index_sections: dict[str, dict] = {}
    problem: dict = {}
    constraints: list[tuple[str, str | None, str, int]] = []
    equalities: list[tuple[str, str, int]] = []
    eq_affine = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            head = line[1:-1].strip()
            if head == "problem":
                section = ("problem",)
            elif head.startswith("index"):
                name = head[len("index") :].strip()
                if not name.isidentifier():
                    raise InstanceError(f"bad index section name {name!r}", lineno)
                index_sections[name] = {"_line": lineno}
                section = ("index", name)
            elif head == "constraints":
                section = ("constraints",)
            elif head == "equalities":
                section = ("equalities",)
            else:
                raise InstanceError(f"unknown section [{head}]", lineno)
            continue
        if "=" not in line:
            raise InstanceError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None:
            raise InstanceError("content before any section header", lineno)
        if section[0] == "problem":
            problem[key] = (value, lineno)
        elif section[0] == "index":
            index_sections[section[1]][key] = (value, lineno)
        elif section[0] == "constraints":
            m = _CONSTRAINT_NAME.match(key)
            if not m:
                raise InstanceError(f"bad constraint name {key!r}", lineno)
            constraints.append((m.group(1), m.group(2), value, lineno))
        else:
            if key == "affine":
                eq_affine = _parse_bool(value, lineno)
            else:
                equalities.append((key, value, lineno))

    if "vars" not in problem:
        raise InstanceError("[problem] section must declare 'vars'")
    var_names = problem["vars"][0].split()
    dim = len(var_names)
    for i, vn in enumerate(var_names, start=1):
        if vn != f"x{i}":
            raise InstanceError(
                f"variables must be named x1..x{ex.MAX_DIM} in order, got {vn!r}",
                problem["vars"][1],
            )

    if "minimize" in problem and "minimize_max" in problem:
        raise InstanceError("give either 'minimize' or 'minimize_max', not both")
    if "minimize" in problem:
        cost: SmoothCost | ConvexMaxCost = SmoothCost(
            _parse_expr(problem["minimize"][0], problem["minimize"][1])
        )
    elif "minimize_max" in problem:
        src, ln = problem["minimize_max"]
        pieces = tuple(_parse_expr(p.strip(), ln) for p in src.split(";") if p.strip())
        cost = ConvexMaxCost(pieces)
    else:
        raise InstanceError("[problem] section must declare a cost")

    convex = _parse_bool(*problem["convex"]) if "convex" in problem else False
    box = None
    if "box" in problem:
        src, ln = problem["box"]
        ranges = []
        for part in src.split(";"):
            lo, hi = _parse_numbers(part, ln, 2)
            if not lo < hi:
                raise InstanceError("box range needs lower < upper", ln)
            ranges.append((lo, hi))
        box = tuple(ranges)

    def build_descriptor(name: str) -> IndexSetDescriptor:
        sec = index_sections[name]
        line = sec["_line"]

        def get(key, default=None):
            return sec.get(key, (default, line))[0]

        def number(key, default):
            return _parse_numbers(*sec.get(key, (default, line)), 1)[0]

        kind = get("kind")
        if kind is None:
            raise InstanceError(f"[index {name}] must declare 'kind'", line)
        try:
            if kind == "finite":
                if "values" not in sec:
                    raise InstanceError(f"[index {name}] needs 'values'", line)
                return FiniteIndexSet(_parse_numbers(*sec["values"]))
            if kind == "countable":
                ray = None
                if "limit_ray" in sec:
                    ray = _parse_numbers(*sec["limit_ray"], dim)
                    if not any(ray):
                        raise InstanceError("limit_ray must be nonzero", sec["limit_ray"][1])
                return CountableIndexSet(
                    start=int(get("start", "0")),
                    truncation=int(get("truncation", str(DEFAULT_TRUNCATION))),
                    limit_ray=ray,
                )
            if kind == "interval":
                return IntervalGridIndexSet(
                    lower=number("a", "0"),
                    upper=number("b", "1"),
                    include_lower=_parse_bool(get("include_a", "true"), line),
                    include_upper=_parse_bool(get("include_b", "true"), line),
                    resolution=int(get("resolution", str(DEFAULT_RESOLUTION))),
                    refinements=int(get("refinements", str(DEFAULT_REFINEMENTS))),
                )
        except InstanceError as err:
            if err.line is None:
                raise InstanceError(f"[index {name}]: {err}", line) from err
            raise
        except (ValueError, TypeError) as err:
            raise InstanceError(f"[index {name}]: {err}", line) from err
        raise InstanceError(f"[index {name}] has unknown kind {kind!r}", line)

    fixed: list[tuple[str, ex.ExprAst]] = []
    families: list[tuple[ConstraintFamily, IndexSetDescriptor]] = []
    for cname, idx_name, src, lineno in constraints:
        body = _parse_expr(src, lineno)
        if idx_name is None:
            extra = ex.free_index_names(body)
            if extra:
                raise InstanceError(
                    f"constraint '{cname}' uses index variable(s) {sorted(extra)} "
                    "but declares none",
                    lineno,
                )
            fixed.append((cname, body))
        else:
            if idx_name not in index_sections:
                raise InstanceError(
                    f"constraint '{cname}({idx_name})' references undeclared [index {idx_name}]",
                    lineno,
                )
            families.append(
                (ConstraintFamily(cname, idx_name, body), build_descriptor(idx_name))
            )

    eq_components = tuple(_parse_expr(src, ln) for _, src, ln in equalities)
    eq_names = tuple(name for name, _, _ in equalities)
    return SipInstance(
        dim=dim,
        cost=cost,
        fixed=tuple(fixed),
        families=tuple(families),
        equalities=EqualityBlock(components=eq_components, affine=eq_affine, names=eq_names),
        convex=convex,
        box=box,
    )


def load_instance(path) -> SipInstance:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise InstanceError(f"cannot read {p}: {err}") from err
    return loads_instance(text)
