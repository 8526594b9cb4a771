"""Exact validity, exception costs, free-Ab lower bounds, and gaps.

The default rule forall x (A(x) and not Ab(x) -> C(x)) grounds, per domain
element, to (not A_a) or alpha_a or C_a, where only subterms touching
unknown atoms survive constant folding.  The residual expressions partition
the unknown atoms into independent components, and every query below is an
exact sweep over component truth tables:

  full       A, C, alpha are constants; direct counting.
  partial    some completion satisfies all grounded axioms; best-case cost.
  skeptical  every completion satisfies them; worst-case cost.

The free-Ab lower bound exploits that Ab(a) occurs in exactly one grounded
axiom, positively: the cheapest abnormal set under any fixed completion is
exactly the set of elements whose default is violated.  The naive oracle
(oracle module) rechecks all of this by literal enumeration.

One array evaluator serves every regime.  It evaluates A, C and alpha for
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

Neither the evaluator's nor the grounding's cost is exponential in
quantifier depth, because the grammar has four variable names.  The
evaluator gives each name a fixed array axis (x, y, z, w -> 1-4), so no
intermediate array exceeds B x n^4 cells.  Grounding memoizes each
quantifier node on the values of its free variables (at most three), so it
grounds at most n^4 bodies per node.

Axis 0 of every evaluator array is a batch of worlds of one domain size.
Queries on one World use a batch of 1.  closed_block evaluates a block of B
fully observed worlds at once, so the generator screens candidate worlds
(nontriviality floor, exception cap, gold validity and gap) with one pass
per block instead of one per world; the numbers are those of opt_cost,
validity and cost on each world.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, reduce
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
from .world import DEFAULT_ENUMERATION_CAP, Completion, EnumerationCapError, World


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


class _GAnd(_GExpr):
    __slots__ = ("children",)

    def __init__(self, children: tuple[_GExpr, ...]):
        self.children = children
        self.support = frozenset().union(*(c.support for c in children))


class _GOr(_GExpr):
    __slots__ = ("children",)

    def __init__(self, children: tuple[_GExpr, ...]):
        self.children = children
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
        return (_GOr if absorb else _GAnd)(tuple(kept))
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
            got = done[key] = _ground_quantifier(f, world, env, unk_index, memo)
        return got
    raise TypeError(f"not a groundable Formula: {f!r}")


def _ground_quantifier(f: Formula, world: World, env: dict, unk_index: dict, memo: dict) -> _GExpr:
    absorb = isinstance(f, Exists)
    kept = []
    for e in world.elements():
        g = _ground(f.body, world, {**env, f.var.name: e}, unk_index, memo)
        if isinstance(g, _GConst):
            if g.value is absorb:
                return g
        else:
            kept.append(g)
    return _g_junction(kept, absorb)


@dataclass(frozen=True, eq=False)
class _WorldGrounding:
    antecedent: tuple[_GExpr, ...]
    consequent: tuple[_GExpr, ...]
    violation: tuple[_GExpr, ...]


# The fixed-axis evaluator: an Ab-free formula evaluates to a (must, may)
# pair of boolean arrays.  Axis 0 is the batch of worlds (size 1 for one
# World, or where the value is the same for every world of the batch), and
# each variable name has a fixed axis (x, y, z, w -> 1-4; size 1 where the
# value does not depend on it); a quantifier reduces its own axis.  No
# intermediate array exceeds B x n^4 cells.  must holds where the formula is
# true under every completion, may where it is true under some: Kleene's
# strong three-valued logic over the unknown atoms.  Where no unknown atom
# matters one array serves as both halves, so on a fully observed world each
# node costs one numpy operation.

_AXIS = {"x": 1, "y": 2, "z": 3, "w": 4}


def _atom_array(atoms, shape) -> np.ndarray:
    """A batch of one: shape (1,) + shape, True at the given atoms."""
    arr = np.zeros(shape, dtype=bool)
    for a in atoms:
        arr[a] = True
    return arr[None]


@lru_cache(maxsize=4096)
def _world_arrays(world: World) -> dict:
    """Per predicate, (must, may): its known-true atoms, and those plus its
    unknown ones (one shared array when it has no unknown atoms)."""
    out = {}
    for p in ("P", "Q", "R", "S"):
        shape = (world.n,) * PREDICATES[p].arity
        true, unknown = world.true_atoms[p], world.unknown_atoms[p]
        must = _atom_array(true, shape)
        out[p] = (must, _atom_array(true | unknown, shape) if unknown else must)
    return out


def _on_axes(values: np.ndarray, variables) -> np.ndarray:
    """A batch of relations over the given variables (batch on axis 0),
    laid out on their fixed axes."""
    axes = [_AXIS[v.name] for v in variables]
    if len(axes) == 2:
        i, j = axes
        if i == j:
            values, axes = values.diagonal(axis1=1, axis2=2), [i]
        elif i > j:
            values, axes = values.transpose(0, 2, 1), [j, i]
    shape = [values.shape[0], 1, 1, 1, 1]
    for a in axes:
        shape[a] = values.shape[1]
    return values.reshape(shape)


def _eval(f: Formula, n: int, arrays: dict) -> tuple[np.ndarray, np.ndarray]:
    """(must, may) arrays of an Ab-free formula; may is must where no
    unknown atom below f matters."""
    if isinstance(f, Atom):
        must, may = arrays[f.pred]
        out = _on_axes(must, f.args)
        return out, (out if may is must else _on_axes(may, f.args))
    if isinstance(f, Equal):
        out = _on_axes(np.eye(n, dtype=bool)[None], (f.left, f.right))
        return out, out
    if isinstance(f, Not):
        must, may = _eval(f.child, n, arrays)
        out = ~may
        return out, (out if may is must else ~must)
    if isinstance(f, (And, Or)):
        op = np.logical_and if isinstance(f, And) else np.logical_or
        pairs = [_eval(c, n, arrays) for c in f.children]
        out = reduce(op, [must for must, _ in pairs])
        if all(must is may for must, may in pairs):
            return out, out
        return out, reduce(op, [may for _, may in pairs])
    if isinstance(f, Implies):
        lhs_must, lhs_may = _eval(f.lhs, n, arrays)
        rhs_must, rhs_may = _eval(f.rhs, n, arrays)
        out = ~lhs_may | rhs_must
        return out, (out if lhs_may is lhs_must and rhs_may is rhs_must else ~lhs_must | rhs_may)
    if isinstance(f, (Forall, Exists)):
        reduce_axis = np.all if isinstance(f, Forall) else np.any
        axis = _AXIS[f.var.name]
        must, may = _eval(f.body, n, arrays)
        out = reduce_axis(must, axis=axis, keepdims=True)
        return out, (out if may is must else reduce_axis(may, axis=axis, keepdims=True))
    raise TypeError(f"not an Ab-free Formula: {f!r}")


def _per_element(values: np.ndarray, batch: int, n: int) -> np.ndarray:
    """An evaluated formula in x as a (batch, n) array."""
    return np.broadcast_to(values.reshape(values.shape[:2]), (batch, n))


def _extension(world: World, formula: Formula) -> tuple[np.ndarray, np.ndarray]:
    """(must, may) boolean vectors over the domain for a formula in x."""
    must, may = _eval(formula, world.n, _world_arrays(world))
    out = _per_element(must, 1, world.n)[0]
    return out, (out if may is must else _per_element(may, 1, world.n)[0])


@lru_cache(maxsize=16384)
def closed_world_extension(world: World, formula: Formula) -> np.ndarray:
    """Boolean vector over the domain: which elements satisfy the Ab-free
    formula (free variable x) under every completion; on a fully observed
    world, under closed-world semantics."""
    arr = _extension(world, formula)[0].copy()
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=4096)
def _closed_violations(world: World, theory: TheorySpec) -> np.ndarray:
    ante = closed_world_extension(world, theory.antecedent)
    cons = closed_world_extension(world, theory.consequent)
    arr = ante & ~cons
    arr.setflags(write=False)
    return arr


def closed_block(
    theory: TheorySpec, alpha: Formula, n: int, relations: Mapping[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-regime answers for a block of B fully observed worlds of domain
    size n, each predicate given as a (B, n) or (B, n, n) bool array of its
    true atoms: per world, opt_cost, whether alpha (an Ab-free formula in x)
    is valid, and alpha's cost.  One evaluator pass serves the whole block."""
    arrays = {p: (a, a) for p, a in relations.items()}
    batch = len(relations["P"])

    def extension(f):
        return _per_element(_eval(f, n, arrays)[0], batch, n)

    violations = extension(theory.antecedent) & ~extension(theory.consequent)
    marked = extension(alpha)
    return violations.sum(axis=1), (marked | ~violations).all(axis=1), marked.sum(axis=1)


@lru_cache(maxsize=4096)
def _unknown_index(world: World) -> dict:
    return {atom: i for i, atom in enumerate(world.unknown_order())}


def _groundings(world: World, formula: Formula) -> tuple[_GExpr, ...]:
    """The grounded formula per element.  The evaluator decides every
    element whose known atoms fix its value, which is exactly where _ground
    would fold to that constant; only the rest are grounded."""
    must, may = _extension(world, formula)
    if may is must:
        return tuple(_GTRUE if v else _GFALSE for v in must.tolist())
    index, memo = _unknown_index(world), {}
    return tuple(
        (_GTRUE if lo else _GFALSE) if lo == hi else _ground(formula, world, {"x": a}, index, memo)
        for a, (lo, hi) in enumerate(zip(must.tolist(), may.tolist()))
    )


@lru_cache(maxsize=2048)
def _world_grounding(world: World, theory: TheorySpec) -> _WorldGrounding:
    ante = _groundings(world, theory.antecedent)
    cons = _groundings(world, theory.consequent)
    return _WorldGrounding(ante, cons, tuple(_g_junction([ga, _g_not(gc)], False) for ga, gc in zip(ante, cons)))


@lru_cache(maxsize=16384)
def _alpha_grounding(world: World, alpha_formula: Formula) -> tuple[_GExpr, ...]:
    return _groundings(world, alpha_formula)


def clear_caches() -> None:
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
    elif isinstance(expr, (_GAnd, _GOr)):
        op = np.logical_and if isinstance(expr, _GAnd) else np.logical_or
        out = _table(expr.children[0], var_pos, k, memo).copy()
        for c in expr.children[1:]:
            op(out, _table(c, var_pos, k, memo), out=out)
    else:
        raise TypeError(expr)
    memo[key] = out
    return out


def _expr_table(expr: _GExpr) -> tuple[np.ndarray, list[int]]:
    """Truth table of one expression over its own support, in sorted order."""
    ordered = sorted(expr.support)
    return _table(expr, {v: i for i, v in enumerate(ordered)}, len(ordered), {}), ordered


def _sweep(constraints: Sequence[_GExpr], costs: Sequence[_GExpr], pick) -> Optional[tuple[int, dict[int, bool]]]:
    """Best count of true cost expressions over assignments of the unknowns
    that satisfy every constraint, and one assignment attaining it; None if
    no assignment does.

    Expressions that share unknowns form a component, and components are
    independent: each builds its truth tables over its own unknowns and
    picks one row, with pick np.argmin (best case) or np.argmax (worst
    case) over its feasible rows, the first row on ties.
    """
    parent: dict[int, int] = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    total, live = 0, []
    for e, is_constraint in [(e, True) for e in constraints] + [(e, False) for e in costs]:
        if isinstance(e, _GConst):
            if not is_constraint:
                total += e.value
            elif not e.value:
                return None
            continue
        live.append((e, is_constraint))
        first, *rest = e.support
        parent.setdefault(first, first)
        for v in rest:
            root, other = find(first), find(parent.setdefault(v, v))
            if root != other:
                parent[other] = root

    groups: dict[int, tuple[set, list, list]] = {}
    for e, is_constraint in live:
        root = find(next(iter(e.support)))
        if root not in groups:
            groups[root] = (set(), [], [])
        variables, comp_constraints, comp_costs = groups[root]
        variables |= e.support
        (comp_constraints if is_constraint else comp_costs).append(e)

    assignment: dict[int, bool] = {}
    for variables, comp_constraints, comp_costs in groups.values():
        ordered = sorted(variables)
        var_pos, k = {v: i for i, v in enumerate(ordered)}, len(ordered)
        memo: dict = {}
        counts = np.zeros(1 << k, dtype=np.int32)
        for e in comp_costs:
            counts += _table(e, var_pos, k, memo)
        feasible = np.ones(1 << k, dtype=bool)
        for e in comp_constraints:
            feasible &= _table(e, var_pos, k, memo)
        rows = np.flatnonzero(feasible)
        if not rows.size:
            return None
        best = int(rows[pick(counts[rows])])
        total += int(counts[best])
        assignment.update(_row_assignment(ordered, best))
    return total, assignment


def _row_assignment(ordered: Sequence[int], row: int) -> dict[int, bool]:
    """Truth-table row -> values of the unknowns it ranges over (bit i is ordered[i])."""
    return {v: bool((row >> i) & 1) for i, v in enumerate(ordered)}


def _completion(world: World, assignment: dict[int, bool]) -> Completion:
    return Completion({atom: assignment.get(i, False) for i, atom in enumerate(world.unknown_order())})


def _check_cap(world: World, cap: int) -> None:
    k = world.num_unknowns()
    if k > cap:
        raise EnumerationCapError(f"{k} unknown atoms exceed the enumeration cap {cap}")


def _axiom_exprs(world: World, theory: TheorySpec, alpha: Hypothesis) -> list[_GExpr]:
    g = _world_grounding(world, theory)
    al = _alpha_grounding(world, alpha.formula)
    return [_g_junction([_g_not(g.antecedent[a]), al[a], g.consequent[a]], True) for a in world.elements()]


def check_scope(theory: TheorySpec, alpha: Hypothesis) -> None:
    used = predicates_used(alpha.formula)
    bad = sorted((used & theory.forbidden) | (used - theory.allowed))
    if bad:
        raise ScopeError(f"hypothesis uses predicate(s) outside the theory scope: {', '.join(bad)}")


# ---------------------------------------------------------------------------
# Validity and costs


def _full_cost(world: World, theory: TheorySpec, alpha: Hypothesis) -> Optional[int]:
    """Direct count of a valid hypothesis on a fully observed world; None
    where some violated default is not marked abnormal."""
    if world.num_unknowns():
        raise ValueError("full regime requires a fully observed world")
    violations = _closed_violations(world, theory)
    marked = closed_world_extension(world, alpha.formula)
    return int(marked.sum()) if (~violations | marked).all() else None


def _counterexample(axioms: Sequence[_GExpr]) -> Optional[dict[int, bool]]:
    """An assignment falsifying the first grounded axiom that some
    completion falsifies (its first such truth-table row), or None."""
    for e in axioms:
        if e is _GTRUE:
            continue
        table, ordered = _expr_table(e)
        miss = int(np.argmin(table))
        if not table[miss]:
            return _row_assignment(ordered, miss)
    return None


def validity(
    regime,
    theory: TheorySpec,
    worlds: Sequence[World],
    alpha: Hypothesis,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> EngineVerdict:
    """Decide per-world and overall validity; see the module docstring.

    The witness is a satisfying completion of the first world (partial,
    valid with unknowns) or a counterexample completion of the first
    invalid world (skeptical).
    """
    regime = Regime.parse(regime)
    check_scope(theory, alpha)
    per_world = []
    witness = None
    witness_world = None
    first_partial_witness = None
    for wi, world in enumerate(worlds):
        if regime is Regime.FULL:
            valid_w = _full_cost(world, theory, alpha) is not None
        elif regime is Regime.PARTIAL:
            _check_cap(world, cap)
            best = _sweep(_axiom_exprs(world, theory, alpha), [], np.argmin)
            valid_w = best is not None
            if valid_w and wi == 0:
                first_partial_witness = _completion(world, best[1])
        else:
            _check_cap(world, cap)
            miss = _counterexample(_axiom_exprs(world, theory, alpha))
            valid_w = miss is None
            if not valid_w and witness is None:
                witness, witness_world = _completion(world, miss), wi
        per_world.append(valid_w)
    overall = all(per_world)
    if regime is Regime.PARTIAL and overall and first_partial_witness is not None:
        witness, witness_world = first_partial_witness, 0
    return EngineVerdict(overall, tuple(per_world), witness, witness_world)


def world_costs(
    regime,
    theory: TheorySpec,
    worlds: Sequence[World],
    alpha: Hypothesis,
    cap: int = DEFAULT_ENUMERATION_CAP,
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
    out = []
    for world in worlds:
        if regime is Regime.FULL:
            out.append(_full_cost(world, theory, alpha))
            continue
        _check_cap(world, cap)
        axioms = _axiom_exprs(world, theory, alpha)
        alpha_exprs = _alpha_grounding(world, alpha.formula)
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
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CostReport:
    """Abnormality counts for a valid hypothesis (error otherwise); see
    world_costs."""
    regime = Regime.parse(regime)
    per_world = world_costs(regime, theory, worlds, alpha, cap=cap)
    bad = [i for i, c in enumerate(per_world) if c is None]
    if bad:
        raise InvalidHypothesisError(f"hypothesis is invalid on world(s) {bad}; cost is undefined")
    return CostReport(regime, per_world, sum(per_world))


def opt_cost(
    regime,
    theory: TheorySpec,
    world: World,
    variant: str = "pointwise",
    cap: int = DEFAULT_ENUMERATION_CAP,
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
    _check_cap(world, cap)
    g = _world_grounding(world, theory)
    if regime is Regime.SKEPTICAL and variant == "uniform":
        # Elements with some violating completion must be abnormal under a
        # completion-independent Ab; the rest never need to be.
        return sum(bool(_expr_table(e)[0].any()) for e in g.violation)
    return _sweep([], g.violation, np.argmin if regime is Regime.PARTIAL else np.argmax)[0]


def opt_costs(
    regime,
    theory: TheorySpec,
    worlds: Sequence[World],
    variant: str = "pointwise",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> OptReport:
    regime = Regime.parse(regime)
    per = tuple(opt_cost(regime, theory, w, variant=variant, cap=cap) for w in worlds)
    return OptReport(regime, per, sum(per), variant)


def gaps(
    costs: CostReport,
    opts: OptReport,
    gold: Optional[Hypothesis] = None,
    theory: Optional[TheorySpec] = None,
    worlds: Optional[Sequence[World]] = None,
    gold_costs: Optional[Sequence[int]] = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
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
    n_worlds = len(costs.per_world_cost)
    gap_total = costs.total - opts.total
    gold_total = None
    gap_gold_norm = None
    if gold_costs is not None:
        gold_total = int(sum(gold_costs))
    elif gold is not None:
        if theory is None or worlds is None:
            raise ValueError("computing a gold cost needs the theory and worlds")
        gold_total = cost(costs.regime, theory, worlds, gold, cap=cap).total
    if gold_total is not None:
        gap_gold_norm = (costs.total - gold_total) / n_worlds
    return CostReport(
        regime=costs.regime,
        per_world_cost=costs.per_world_cost,
        total=costs.total,
        opt_per_world=opts.per_world,
        opt_total=opts.total,
        gap_total=gap_total,
        gap_normalized=gap_total / n_worlds,
        gold_cost=gold_total,
        gap_gold_normalized=gap_gold_norm,
    )
