"""Exact validity, exception costs, free-Ab lower bounds, and gaps.

The default rule forall x (A(x) and not Ab(x) -> C(x)) grounds, per domain
element a, to the axiom (or (not V_a) alpha_a), V_a being theory.violation,
(and A (not C)), at a; only subterms touching unknown atoms survive constant
folding.  In the full regime everything is a constant and is counted
directly.  With unknowns, every question is one _sweep, the only routine
that builds truth tables: it splits its expressions into components of
shared unknown atoms and picks, per component, the first feasible row of
best count (pick np.argmin or np.argmax).

  question                   _sweep(constraints, costs, pick)
  partial cost, validity     (axioms, alpha_a, argmin): not None
  partial witness            (axioms, [], argmin)
  skeptical counterexample   ([], [not axiom_a], argmax), per axiom: count 1
  skeptical cost             ([], alpha_a, argmax), with no counterexample
  pointwise bound            ([], V_a, argmin partial / argmax skeptical)
  uniform bound              sum over a of ([], [V_a], argmax)

The bounds free Ab: Ab(a) occurs in exactly one grounded axiom, positively,
so the cheapest abnormal set under a fixed completion is exactly the set of
elements whose default is violated.  The naive oracle (oracle module)
rechecks all of this by literal enumeration.

One array evaluator serves every regime.  It evaluates V and alpha for
all elements at once as a (must, may) pair in Kleene's strong three-valued
logic: must where the formula holds under every completion, may where it
holds under some.  On a fully observed world the two are one array, which
is the full regime's answer.  With unknowns, an element where must equals
may is decided, and gets a constant without being grounded.  This is sound,
and it decides exactly the elements whose grounding would fold to that
constant, because the grounding's constant folding is strong Kleene
evaluation; so the grounded expressions, and every result, are the same as
with no pre-pass.  Kleene evaluation is incomplete: (or (R x y) (not (R x
y))) with R(x, y) unknown stays undecided, is grounded, and the exact table
sweep decides it.

_plan compiles each formula once into a tree of closures: each atom's and
equality's axis layout and each quantifier's reduction is fixed when the
plan is built, so evaluating it runs only numpy operations.  One plan
serves every domain size, since equality reads the identity relation that
comes with the world arrays.

Neither the evaluator's nor the grounding's cost is exponential in
quantifier depth, because the grammar has four variable names.  The
evaluator gives each name a fixed array axis (x, y, z, w -> 1-4), so no
intermediate array exceeds B x n^4 cells.  Grounding memoizes each
quantifier node on the values of its free variables (at most three), so it
grounds at most n^4 bodies per node.

world_costs is the one per-world pass behind every verdict: validity reads
its per-world answers, and runs one more sweep, on the witness world alone,
for the witness.  Axis 0 of every evaluator array is a batch of worlds of
one domain size.  world_costs groups a query's worlds by domain size, cuts
each group into chunks of at most _CELL_BUDGET // n^4 worlds (one at
MAX_DOMAIN_SIZE, which World enforces), and runs alpha's plan once per
chunk on its stacked world arrays; grounding and sweeps then work per
world on its (must, may) row.
closed_block evaluates a block of B fully observed worlds at once, so the
generator screens candidate worlds (nontriviality floor, exception cap, gold
validity and gap) with one pass per block; the numbers are those of
opt_cost, validity and cost on each world.  Every cache here is bounded,
and clear_caches empties them all: the per-world results, the plans (_plan)
and the stacked world arrays (_stacked_arrays).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from typing import Mapping, Optional, Sequence

import numpy as np

from .formula import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    Formula,
    Hypothesis,
    Implies,
    Not,
    Or,
    PREDICATES,
    free_variables,
    predicates_used,
)
from .theory import TheorySpec
from .world import DEFAULT_ENUMERATION_CAP, MAX_DOMAIN_SIZE, Completion, EnumerationCapError, World


class Regime(enum.Enum):
    FULL = "full"
    PARTIAL = "partial"
    SKEPTICAL = "skeptical"

    @classmethod
    def parse(cls, value) -> "Regime":
        if isinstance(value, Regime):
            return value
        return cls(str(value).lower())


class ScopeError(ValueError):
    """Hypothesis uses predicates outside the theory's allowed set."""


class InvalidHypothesisError(ValueError):
    """Cost requested for a hypothesis that is not valid under the regime."""


class RegimeMismatchError(ValueError):
    """Cost and lower-bound inputs were computed under different regimes."""


@dataclass(frozen=True)
class EngineVerdict:
    valid: bool
    per_world_valid: tuple[bool, ...]
    witness: Optional[Completion] = None
    witness_world: Optional[int] = None


@dataclass(frozen=True)
class OptReport:
    regime: Regime
    per_world: tuple[int, ...]
    total: int
    variant: str = "pointwise"


@dataclass(frozen=True)
class CostReport:
    regime: Regime
    per_world_cost: tuple[int, ...]
    total: int
    opt_per_world: Optional[tuple[int, ...]] = None
    opt_total: Optional[int] = None
    gap_total: Optional[int] = None
    gap_normalized: Optional[float] = None
    gold_cost: Optional[int] = None
    gap_gold_normalized: Optional[float] = None


# ---------------------------------------------------------------------------
# Grounded expressions with constant folding


class _GExpr:
    __slots__ = ("support",)


class _GConst(_GExpr):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value
        self.support = frozenset()


_GTRUE = _GConst(True)
_GFALSE = _GConst(False)


class _GUnk(_GExpr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index
        self.support = frozenset((index,))


class _GNot(_GExpr):
    __slots__ = ("child",)

    def __init__(self, child: _GExpr):
        self.child = child
        self.support = child.support


class _GJunction(_GExpr):
    """And (absorb False) or Or (absorb True) of two or more children."""

    __slots__ = ("children", "absorb")

    def __init__(self, children: tuple[_GExpr, ...], absorb: bool):
        self.children = children
        self.absorb = absorb
        self.support = frozenset().union(*(c.support for c in children))


def _g_not(c: _GExpr) -> _GExpr:
    if isinstance(c, _GConst):
        return _GFALSE if c.value else _GTRUE
    if isinstance(c, _GNot):
        return c.child
    return _GNot(c)


def _g_junction(children, absorb: bool) -> _GExpr:
    """And (absorb False) or Or (absorb True) of children, folding constants."""
    kept = []
    for c in children:
        if isinstance(c, _GConst):
            if c.value is absorb:
                return c
        else:
            kept.append(c)
    if len(kept) > 1:
        return _GJunction(tuple(kept), absorb)
    return kept[0] if kept else (_GFALSE if absorb else _GTRUE)


def _ground(f: Formula, world: World, env: dict, unk_index: dict, memo: dict) -> _GExpr:
    """Ground a formula (no Ab) at a concrete environment, folding knowns.

    memo maps a quantifier node (by id) to its free variable names and its
    groundings per binding of them, so each node grounds its body at most
    n times per binding: at most n^4 times, whatever the depth.
    """
    if isinstance(f, Atom):
        elems = tuple(env[v.name] for v in f.args)
        atom = elems[0] if len(elems) == 1 else elems
        if atom in world.true_atoms[f.pred]:
            return _GTRUE
        idx = unk_index.get((f.pred, atom))
        if idx is not None:
            return _GUnk(idx)
        return _GFALSE
    if isinstance(f, Equal):
        return _GTRUE if env[f.left.name] == env[f.right.name] else _GFALSE
    if isinstance(f, Not):
        return _g_not(_ground(f.child, world, env, unk_index, memo))
    if isinstance(f, (And, Or)):
        absorb = isinstance(f, Or)
        kept = []
        for c in f.children:
            g = _ground(c, world, env, unk_index, memo)
            if isinstance(g, _GConst):
                if g.value is absorb:
                    return g
            else:
                kept.append(g)
        return _g_junction(kept, absorb)
    if isinstance(f, Implies):
        lhs = _ground(f.lhs, world, env, unk_index, memo)
        return _g_junction([_g_not(lhs), _ground(f.rhs, world, env, unk_index, memo)], True)
    if isinstance(f, (Forall, Exists)):
        entry = memo.get(id(f))
        if entry is None:
            entry = memo[id(f)] = (sorted(free_variables(f)), {})
        names, done = entry
        key = tuple(env[v] for v in names)
        got = done.get(key)
        if got is None:
            absorb = isinstance(f, Exists)
            kept = []
            for e in world.elements():
                got = _ground(f.body, world, {**env, f.var.name: e}, unk_index, memo)
                if not isinstance(got, _GConst):
                    kept.append(got)
                elif got.value is absorb:
                    break
            else:
                got = _g_junction(kept, absorb)
            done[key] = got
        return got
    raise TypeError(f"not a groundable Formula: {f!r}")


_AXIS = {"x": 1, "y": 2, "z": 3, "w": 4}


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _atom_array(atoms, shape) -> np.ndarray:
    """A batch of one: shape (1,) + shape, True at the given atoms."""
    arr = np.zeros(shape, dtype=bool)
    for a in atoms:
        arr[a] = True
    return _frozen(arr)[None]


@lru_cache(maxsize=4096)
def _world_arrays(world: World) -> dict:
    """Per predicate, (must, may): its known-true atoms, and those plus its
    unknown ones (one shared array when it has no unknown atoms); and the
    identity relation under "=", which equality reads."""
    eye = _frozen(np.eye(world.n, dtype=bool)[None])
    out = {"=": (eye, eye)}
    for p in ("P", "Q", "R", "S"):
        shape = (world.n,) * PREDICATES[p].arity
        true, unknown = world.true_atoms[p], world.unknown_atoms[p]
        must = _atom_array(true, shape)
        out[p] = (must, _atom_array(true | unknown, shape) if unknown else must)
    return out


@lru_cache(maxsize=256)
def _stacked_arrays(worlds: tuple[World, ...]) -> dict:
    """_world_arrays of worlds of one domain size, stacked on axis 0."""
    out = {"=": _world_arrays(worlds[0])["="]}
    for p in ("P", "Q", "R", "S"):
        lo, hi = zip(*(_world_arrays(w)[p] for w in worlds))
        must = _frozen(np.concatenate(lo))
        out[p] = (must, must if all(a is b for a, b in zip(lo, hi)) else _frozen(np.concatenate(hi)))
    return out


def _layout(variables):
    """The function laying a batch of relations over the given variables
    (batch on axis 0) out on their fixed axes, as a view."""
    axes = [_AXIS[v.name] for v in variables]
    index = (slice(None),) + tuple(slice(None) if a in axes else None for a in range(1, 5))
    if len(axes) == 1 or axes[0] < axes[1]:
        return lambda values: values[index]
    if axes[0] > axes[1]:
        return lambda values: values.transpose(0, 2, 1)[index]
    return lambda values: values.diagonal(axis1=1, axis2=2)[index]


def _both(fn, must: np.ndarray, may: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out = fn(must)
    return out, (out if may is must else fn(may))


@lru_cache(maxsize=4096)
def _plan(f: Formula):
    """An Ab-free formula compiled once, for every domain size, into a function
    from _world_arrays (or a stack of them) to its (must, may) arrays (may is
    must where no unknown atom below f matters); each atom's and equality's
    layout and each quantifier's reduction is fixed here."""
    if isinstance(f, (Atom, Equal)):
        pred, lay = (f.pred, _layout(f.args)) if isinstance(f, Atom) else ("=", _layout((f.left, f.right)))
        return lambda arrays: _both(lay, *arrays[pred])
    if isinstance(f, Not):
        child = _plan(f.child)
        return lambda arrays: _both(np.logical_not, *child(arrays)[::-1])
    if isinstance(f, Implies):
        return _plan(Or((Not(f.lhs), f.rhs)))
    if isinstance(f, (And, Or)):
        op = np.logical_and if isinstance(f, And) else np.logical_or
        children = [_plan(c) for c in f.children]

        def junction(arrays):
            pairs = [c(arrays) for c in children]
            out = reduce(op, [must for must, _ in pairs])
            return out, (out if all(must is may for must, may in pairs) else reduce(op, [may for _, may in pairs]))

        return junction
    if isinstance(f, (Forall, Exists)):
        fold = partial((np.logical_and if isinstance(f, Forall) else np.logical_or).reduce,
                       axis=_AXIS[f.var.name], keepdims=True)
        body = _plan(f.body)
        return lambda arrays: _both(fold, *body(arrays))
    raise TypeError(f"not an Ab-free Formula: {f!r}")


def _per_element(values: np.ndarray, batch: int, n: int) -> np.ndarray:
    """An evaluated formula in x as a (batch, n) array."""
    out = values.reshape(values.shape[:2])
    return out if out.shape == (batch, n) else np.broadcast_to(out, (batch, n))


def _extensions(worlds: Sequence[World], formula: Formula) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per world (all of one domain size), (must, may) boolean vectors over
    the domain for a formula in x, from one plan pass over the whole batch."""
    n, batch = worlds[0].n, len(worlds)
    arrays = _world_arrays(worlds[0]) if batch == 1 else _stacked_arrays(tuple(worlds))
    must, may = _plan(formula)(arrays)
    lo = _per_element(must, batch, n)
    return [(row, row) for row in lo] if may is must else list(zip(lo, _per_element(may, batch, n)))


def _extension(world: World, formula: Formula) -> tuple[np.ndarray, np.ndarray]:
    """(must, may) boolean vectors over the domain for a formula in x."""
    return _extensions((world,), formula)[0]


@lru_cache(maxsize=16384)
def closed_world_extension(world: World, formula: Formula) -> np.ndarray:
    """Boolean vector over the domain: which elements satisfy the Ab-free
    formula (free variable x) under every completion; on a fully observed
    world, under closed-world semantics."""
    return _frozen(_extension(world, formula)[0].copy())


@lru_cache(maxsize=4096)
def _closed_violations(world: World, theory: TheorySpec) -> np.ndarray:
    return closed_world_extension(world, theory.violation)


def closed_block(
    theory: TheorySpec, alpha: Formula, n: int, relations: Mapping[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-regime answers for a block of B fully observed worlds of domain
    size n, each predicate given as a (B, n) or (B, n, n) bool array of its
    true atoms: per world, opt_cost, whether alpha (an Ab-free formula in x)
    is valid, and alpha's cost.  One evaluator pass serves the whole block."""
    eye = np.eye(n, dtype=bool)[None]
    arrays = {"=": (eye, eye), **{p: (a, a) for p, a in relations.items()}}
    batch = len(relations["P"])

    def extension(f):
        return _per_element(_plan(f)(arrays)[0], batch, n)

    violations, marked = extension(theory.violation), extension(alpha)
    return violations.sum(axis=1), (marked | ~violations).all(axis=1), marked.sum(axis=1)


@lru_cache(maxsize=4096)
def _unknown_index(world: World) -> dict:
    return {atom: i for i, atom in enumerate(world.unknown_order())}


def _groundings(world: World, formula: Formula, must: np.ndarray, may: np.ndarray) -> tuple[_GExpr, ...]:
    """The grounded formula per element, given its extension (must, may).
    The evaluator decides every element whose known atoms fix its value,
    which is exactly where _ground would fold to that constant; only the
    rest are grounded."""
    if may is must:
        return tuple(_GTRUE if v else _GFALSE for v in must.tolist())
    index, memo = _unknown_index(world), {}
    return tuple(
        (_GTRUE if lo else _GFALSE) if lo == hi else _ground(formula, world, {"x": a}, index, memo)
        for a, (lo, hi) in enumerate(zip(must.tolist(), may.tolist()))
    )


@lru_cache(maxsize=2048)
def _world_grounding(world: World, theory: TheorySpec) -> tuple[_GExpr, ...]:
    """Per element a, the grounded violation V_a."""
    return _groundings(world, theory.violation, *_extension(world, theory.violation))


@lru_cache(maxsize=16384)
def _alpha_grounding(world: World, alpha_formula: Formula) -> tuple[_GExpr, ...]:
    """Alpha's grounding on one world, as _per_world gives it: validity's witness."""
    return _groundings(world, alpha_formula, *_extension(world, alpha_formula))


_CELL_BUDGET = MAX_DOMAIN_SIZE**4  # cells per node of one plan pass: one largest world, four axes


def _per_world(worlds: Sequence[World], formula: Formula, from_rows) -> list:
    """Per world, from_rows(world, formula, must, may) on the formula's
    extension, with one plan pass per domain size and _CELL_BUDGET chunk."""
    by_size, out = {}, [None] * len(worlds)
    for i, world in enumerate(worlds):
        by_size.setdefault(world.n, []).append(i)
    for n, idx in by_size.items():
        step = _CELL_BUDGET // n**4
        for chunk in (idx[lo : lo + step] for lo in range(0, len(idx), step)):
            for i, (must, may) in zip(chunk, _extensions([worlds[i] for i in chunk], formula)):
                out[i] = from_rows(worlds[i], formula, must, may)
    return out


def clear_caches() -> None:
    _plan.cache_clear()
    _stacked_arrays.cache_clear()
    _world_grounding.cache_clear()
    _alpha_grounding.cache_clear()
    _bit_column.cache_clear()
    _world_arrays.cache_clear()
    closed_world_extension.cache_clear()
    _closed_violations.cache_clear()
    _unknown_index.cache_clear()


# ---------------------------------------------------------------------------
# Truth tables over components of shared unknown atoms


@lru_cache(maxsize=512)
def _bit_column(k: int, pos: int) -> np.ndarray:
    return ((np.arange(1 << k, dtype=np.uint32) >> pos) & 1).astype(bool)


def _table(expr: _GExpr, var_pos: dict, k: int, memo: dict) -> np.ndarray:
    key = id(expr)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(expr, _GConst):
        out = np.full(1 << k, expr.value, dtype=bool)
    elif isinstance(expr, _GUnk):
        out = _bit_column(k, var_pos[expr.index])
    elif isinstance(expr, _GNot):
        out = ~_table(expr.child, var_pos, k, memo)
    elif isinstance(expr, _GJunction):
        op = np.logical_or if expr.absorb else np.logical_and
        out = _table(expr.children[0], var_pos, k, memo).copy()
        for c in expr.children[1:]:
            op(out, _table(c, var_pos, k, memo), out=out)
    else:
        raise TypeError(expr)
    memo[key] = out
    return out


def _sweep(constraints: Sequence[_GExpr], costs: Sequence[_GExpr], pick) -> Optional[tuple[int, dict[int, bool]]]:
    """Best count of true cost expressions over assignments of the unknowns
    that satisfy every constraint, and one assignment attaining it; None if
    no assignment does.

    Expressions that share unknowns form a component, and components are
    independent: each builds its truth tables over its own unknowns and
    picks one row, with pick np.argmin (best case) or np.argmax (worst
    case) over its feasible rows, the first row on ties.
    """
    total, groups = 0, []
    for e, is_constraint in [(e, True) for e in constraints] + [(e, False) for e in costs]:
        if isinstance(e, _GConst):
            if not is_constraint:
                total += e.value
            elif not e.value:
                return None
            continue
        # e joins, and merges, every earlier group whose unknowns it meets.
        variables, members, apart = set(e.support), [(e, is_constraint)], []
        for g in groups:
            if g[0].isdisjoint(e.support):
                apart.append(g)
            else:
                variables |= g[0]
                members += g[1]
        groups = apart + [(variables, members)]

    assignment: dict[int, bool] = {}
    for variables, members in groups:
        ordered = sorted(variables)
        var_pos, k = {v: i for i, v in enumerate(ordered)}, len(ordered)
        memo: dict = {}
        counts = np.zeros(1 << k, dtype=np.int32)
        feasible = np.ones(1 << k, dtype=bool)
        for e, is_constraint in members:
            if is_constraint:
                feasible &= _table(e, var_pos, k, memo)
            else:
                counts += _table(e, var_pos, k, memo)
        rows = np.flatnonzero(feasible)
        if not rows.size:
            return None
        best = int(rows[pick(counts[rows])])
        total += int(counts[best])
        assignment.update((v, bool((best >> i) & 1)) for i, v in enumerate(ordered))  # bit i is ordered[i]
    return total, assignment


def _completion(world: World, assignment: dict[int, bool]) -> Completion:
    return Completion({atom: assignment.get(i, False) for i, atom in enumerate(world.unknown_order())})


def _check_cap(worlds: Sequence[World]) -> None:
    for k in (world.num_unknowns() for world in worlds):
        if k > DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(f"{k} unknown atoms exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}")


def _axiom_exprs(world: World, theory: TheorySpec, al: Sequence[_GExpr]) -> list[_GExpr]:
    """The grounded axioms (or (not V_a) alpha_a), given alpha's grounding al."""
    return [_g_junction([_g_not(v), a], True) for v, a in zip(_world_grounding(world, theory), al)]


def check_scope(theory: TheorySpec, alpha: Hypothesis) -> None:
    used = predicates_used(alpha.formula)
    bad = sorted((used & theory.forbidden) | (used - theory.allowed))
    if bad:
        raise ScopeError(f"hypothesis uses predicate(s) outside the theory scope: {', '.join(bad)}")


# ---------------------------------------------------------------------------
# Validity and costs


def _full_costs(theory: TheorySpec, worlds: Sequence[World], alpha: Hypothesis) -> list[Optional[int]]:
    """Per fully observed world, the direct count of alpha's abnormal
    elements, or None where some violated default is not marked abnormal."""
    if any(world.num_unknowns() for world in worlds):
        raise ValueError("full regime requires a fully observed world")
    marks = _per_world(worlds, alpha.formula, lambda world, f, must, may: must)
    return [int(m.sum()) if (~_closed_violations(w, theory) | m).all() else None for w, m in zip(worlds, marks)]


def _counterexample(axioms: Sequence[_GExpr]) -> Optional[dict[int, bool]]:
    """An assignment falsifying the first grounded axiom that some
    completion falsifies (its first such truth-table row), or None."""
    for e in axioms:
        if e is not _GTRUE:
            count, miss = _sweep([], [_g_not(e)], np.argmax)
            if count:
                return miss
    return None


def validity(
    regime,
    theory: TheorySpec,
    worlds: Sequence[World],
    alpha: Hypothesis,
) -> EngineVerdict:
    """Decide per-world and overall validity from world_costs; see the
    module docstring.

    The witness is a satisfying completion of the first world (partial,
    valid with unknowns) or a counterexample completion of the first
    invalid world (skeptical), from one more sweep on that world alone.
    """
    regime = Regime.parse(regime)
    per_world = tuple(c is not None for c in world_costs(regime, theory, worlds, alpha))
    overall = all(per_world)
    if regime is Regime.PARTIAL and overall and worlds:
        wi = 0
    elif regime is Regime.SKEPTICAL and not overall:
        wi = per_world.index(False)
    else:
        return EngineVerdict(overall, per_world)
    world = worlds[wi]
    axioms = _axiom_exprs(world, theory, _alpha_grounding(world, alpha.formula))
    found = _sweep(axioms, [], np.argmin)[1] if regime is Regime.PARTIAL else _counterexample(axioms)
    return EngineVerdict(overall, per_world, _completion(world, found), wi)


def world_costs(
    regime,
    theory: TheorySpec,
    worlds: Sequence[World],
    alpha: Hypothesis,
) -> tuple[Optional[int], ...]:
    """Per world, the hypothesis's abnormality count, or None where it is
    invalid: validity and cost in one pass.

    Full counts directly; partial takes the best case over completions that
    satisfy the repaired theory (one sweep with the axioms as constraints);
    skeptical takes the worst case over all completions, once no completion
    falsifies an axiom.
    """
    regime = Regime.parse(regime)
    check_scope(theory, alpha)
    if regime is Regime.FULL:
        return tuple(_full_costs(theory, worlds, alpha))
    out = []
    _check_cap(worlds)
    for world, alpha_exprs in zip(worlds, _per_world(worlds, alpha.formula, _groundings)):
        axioms = _axiom_exprs(world, theory, alpha_exprs)
        if regime is Regime.PARTIAL:
            best = _sweep(axioms, alpha_exprs, np.argmin)
            out.append(None if best is None else best[0])
        elif _counterexample(axioms) is None:
            out.append(_sweep([], alpha_exprs, np.argmax)[0])
        else:
            out.append(None)
    return tuple(out)


def cost(
    regime,
    theory: TheorySpec,
    worlds: Sequence[World],
    alpha: Hypothesis,
) -> CostReport:
    """Abnormality counts for a valid hypothesis (error otherwise); see
    world_costs."""
    regime = Regime.parse(regime)
    per_world = world_costs(regime, theory, worlds, alpha)
    bad = [i for i, c in enumerate(per_world) if c is None]
    if bad:
        raise InvalidHypothesisError(f"hypothesis is invalid on world(s) {bad}; cost is undefined")
    return CostReport(regime, per_world, sum(per_world))


def opt_cost(
    regime,
    theory: TheorySpec,
    world: World,
    variant: str = "pointwise",
) -> int:
    """Free-Ab lower bound for one world.

    With Ab assigned freely, the cheapest abnormal set under a fixed
    completion is the set of elements whose default is violated, so the
    bound reduces to counting violations: minimized over completions
    (partial), maximized (skeptical pointwise), or counted per element
    where a violating completion exists (skeptical uniform).
    """
    regime = Regime.parse(regime)
    if variant not in ("pointwise", "uniform"):
        raise ValueError(f"unknown opt_cost variant {variant!r}")
    if regime is Regime.FULL:
        if world.num_unknowns():
            raise ValueError("full regime requires a fully observed world")
        return int(_closed_violations(world, theory).sum())
    _check_cap([world])
    violations = _world_grounding(world, theory)
    if regime is Regime.SKEPTICAL and variant == "uniform":
        # Elements with some violating completion must be abnormal under a
        # completion-independent Ab; the rest never need to be.
        return sum(_sweep([], [e], np.argmax)[0] for e in violations)
    return _sweep([], violations, np.argmin if regime is Regime.PARTIAL else np.argmax)[0]


def opt_costs(
    regime,
    theory: TheorySpec,
    worlds: Sequence[World],
    variant: str = "pointwise",
) -> OptReport:
    regime = Regime.parse(regime)
    per = tuple(opt_cost(regime, theory, w, variant=variant) for w in worlds)
    return OptReport(regime, per, sum(per), variant)


def gaps(
    costs: CostReport,
    opts: OptReport,
    gold: Optional[Hypothesis] = None,
    theory: Optional[TheorySpec] = None,
    worlds: Optional[Sequence[World]] = None,
    gold_costs: Optional[Sequence[int]] = None,
) -> CostReport:
    """Assemble the complete cost report: gaps and optional gold margin.

    gold_costs (per-world, same regime) may be supplied precomputed;
    otherwise a gold hypothesis plus theory and worlds computes them here.
    Negative gold margins mean the hypothesis beats the planted rule.
    """
    if costs.regime != opts.regime:
        raise RegimeMismatchError(f"cost regime {costs.regime} != opt regime {opts.regime}")
    if len(costs.per_world_cost) != len(opts.per_world):
        raise RegimeMismatchError("cost and opt reports cover different world counts")
    if gold_costs is None and gold is not None:
        if theory is None or worlds is None:
            raise ValueError("computing a gold cost needs the theory and worlds")
        gold_costs = cost(costs.regime, theory, worlds, gold).per_world_cost
    n_worlds = len(costs.per_world_cost)
    gap_total = costs.total - opts.total
    gold_total = None if gold_costs is None else int(sum(gold_costs))
    return replace(
        costs,
        opt_per_world=opts.per_world,
        opt_total=opts.total,
        gap_total=gap_total,
        gap_normalized=gap_total / n_worlds,
        gold_cost=gold_total,
        gap_gold_normalized=None if gold_total is None else (costs.total - gold_total) / n_worlds,
    )
