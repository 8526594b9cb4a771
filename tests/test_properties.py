"""Property-based differential tests: engine against the naive oracle.

Hypothesis draws small worlds (n <= 4, at most 6 unknown atoms), a theory
and an in-scope hypothesis, so a disagreement shrinks to a minimal world
and formula.  The fixed-seed sweep of acceptance Criterion 1 stays as it is;
this test adds shrinking and a different distribution.  A second test pins
the engine's three-valued pre-pass to the grounding it stands in for, and a
third holds queries over several worlds, which share one evaluator pass per
domain size, to the one-world queries and the oracle.  The last two hold
the component sweep and the skeptical counterexample, which every
completion question goes through, to plain enumeration of truth tables.
Two more hold the theory's one violation formula to its antecedent and
consequent: its closed extension, and its grounding's shape.  The last three
check metamorphic relations at the generator's scale, past the oracle's
reach: renaming domain elements changes no answer, on a fully observed
world the three regimes agree, and revealing unknown atoms moves the
partial and skeptical answers only the way fewer completions allow.  A
last one rewrites alpha into equivalent formulas, which must cost the same.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from abduce import engine, oracle
from abduce.engine import cost, opt_cost, validity, world_costs
from abduce.formula import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    Hypothesis,
    Implies,
    Not,
    Or,
    Variable,
    children,
    free_variables,
    rebuild,
    validate_hypothesis,
)
from abduce.generator import tier1_formulas, tier2_formulas
from abduce.theory import THEORY_IDS, builtin_theory
from abduce.world import DENSITY_RANGES, MAX_DOMAIN_SIZE, World, enumerate_completions, eval_formula, sample_complete_world

UNARY = ("P", "Q")
BINARY = ("R", "S")


@st.composite
def worlds(draw, max_n=4, max_unknowns=6):
    n = draw(st.integers(1, max_n))
    cells = {p: list(range(n)) for p in UNARY}
    cells.update({p: [(i, j) for i in range(n) for j in range(n)] for p in BINARY})
    true = {p: set(draw(st.sets(st.sampled_from(cells[p])))) for p in cells}
    every_cell = [(p, a) for p in cells for a in cells[p]]
    hidden = draw(st.sets(st.sampled_from(every_cell), max_size=max_unknowns))
    unknown = {p: set() for p in cells}
    for p, a in hidden:
        unknown[p].add(a)
        true[p].discard(a)
    return World(n, true, unknown)


@st.composite
def formulas(draw, preds, env=("x",), depth=3):
    kinds = ["atom"] + (["not", "and", "or", "forall", "exists"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    var = st.sampled_from(env).map(Variable)
    if kind == "atom":
        pred = draw(st.sampled_from([p for p in preds if p in UNARY + BINARY] + ["="]))
        if pred == "=":
            return Equal(draw(var), draw(var))
        return Atom(pred, tuple(draw(var) for _ in range(1 if pred in UNARY else 2)))
    if kind == "not":
        return Not(draw(formulas(preds, env, depth - 1)))
    if kind in ("and", "or"):
        kids = draw(st.lists(formulas(preds, env, depth - 1), min_size=2, max_size=3))
        return And(tuple(kids)) if kind == "and" else Or(tuple(kids))
    bound = draw(st.sampled_from(("y", "z", "x", "w")))
    body = draw(formulas(preds, tuple(sorted({*env, bound})), depth - 1))
    return (Forall if kind == "forall" else Exists)(Variable(bound), body)


@pytest.mark.parametrize("regime", ["full", "partial", "skeptical"])
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_engine_matches_oracle(regime, data):
    spec = builtin_theory(data.draw(st.sampled_from(THEORY_IDS), label="theory"))
    world = data.draw(worlds(max_unknowns=0 if regime == "full" else 6), label="world")
    formula = data.draw(formulas(sorted(spec.allowed)), label="alpha")
    assume(free_variables(formula) == {"x"})
    alpha = validate_hypothesis(formula, spec.allowed, spec.forbidden)

    valid = validity(regime, spec, [world], alpha).valid
    assert valid == oracle.world_valid(regime, spec, world, alpha)
    if valid:
        assert cost(regime, spec, [world], alpha).total == oracle.world_cost(regime, spec, world, alpha)
    for variant in ("pointwise", "uniform"):
        assert opt_cost(regime, spec, world, variant=variant) == oracle.world_opt_cost(
            regime, spec, world, variant=variant
        )


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_prepass_decides_what_grounding_folds(data):
    """The (must, may) evaluator decides an element exactly when _ground
    folds it to a constant, with the same value, and a decided value holds
    under every completion."""
    spec = builtin_theory(data.draw(st.sampled_from(THEORY_IDS), label="theory"))
    world = data.draw(worlds(max_unknowns=8), label="world")
    alpha = data.draw(formulas(sorted(spec.allowed)), label="alpha")
    assume(free_variables(alpha) == {"x"})
    completions = list(enumerate_completions(world))
    index = engine._unknown_index(world)
    for f in (alpha, spec.antecedent, spec.consequent):
        must, may = engine._extension(world, f)
        for a in world.elements():
            grounded = engine._ground(f, world, {"x": a}, index, {})
            decided = bool(must[a] == may[a])
            assert decided == isinstance(grounded, engine._GConst)
            if decided:
                assert grounded.value == bool(must[a])
                assert all(eval_formula(world, c, {"x": a}, f) == must[a] for c in completions)
            else:
                assert not must[a] and may[a]


@pytest.mark.parametrize("regime", ["full", "partial", "skeptical"])
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_batched_queries_match_per_world_queries(regime, data):
    """world_costs and validity over several worlds, which evaluate alpha in
    one pass per domain size, equal the one-world calls and the oracle."""
    spec = builtin_theory(data.draw(st.sampled_from(THEORY_IDS), label="theory"))
    drawn = data.draw(
        st.lists(worlds(max_unknowns=0 if regime == "full" else 4), min_size=2, max_size=5), label="worlds"
    )
    formula = data.draw(formulas(sorted(spec.allowed)), label="alpha")
    assume(free_variables(formula) == {"x"})
    alpha = validate_hypothesis(formula, spec.allowed, spec.forbidden)

    batched = world_costs(regime, spec, drawn, alpha)
    verdict = validity(regime, spec, drawn, alpha)
    engine.clear_caches()
    assert batched == tuple(world_costs(regime, spec, [w], alpha)[0] for w in drawn)
    assert batched == tuple(
        oracle.world_cost(regime, spec, w, alpha) if oracle.world_valid(regime, spec, w, alpha) else None
        for w in drawn
    )
    assert verdict.per_world_valid == tuple(validity(regime, spec, [w], alpha).valid for w in drawn)
    assert verdict.per_world_valid == tuple(c is not None for c in batched)
    if verdict.witness is not None:
        assert verdict.witness == validity(regime, spec, [drawn[verdict.witness_world]], alpha).witness


def test_clear_caches_empties_plan_and_stacked_worlds():
    spec = builtin_theory("T1")
    alpha = validate_hypothesis(Forall(Variable("y"), Or((Atom("R", (Variable("x"), Variable("y"))),
                                                          Equal(Variable("x"), Variable("y"))))),
                                spec.allowed, spec.forbidden)
    pair = [World(3, {"P": {0, 1}, "R": {(0, 1)}}, {"R": {(1, 2)}}), World(3, {"P": {2}}, {"R": {(2, 0)}})]
    world_costs("partial", spec, pair, alpha)
    assert engine._plan.cache_info().currsize and engine._stacked_arrays.cache_info().currsize
    engine.clear_caches()
    assert engine._plan.cache_info().currsize == engine._stacked_arrays.cache_info().currsize == 0


@pytest.mark.parametrize("regime", ["full", "partial"])
def test_batches_stay_within_the_cell_budget(regime, monkeypatch):
    """A query over many large worlds evaluates them in chunks of at most
    _CELL_BUDGET cells per node (one world at MAX_DOMAIN_SIZE), not in one
    batch of every world of a size, and gets the one-world answers."""
    assert engine._CELL_BUDGET == MAX_DOMAIN_SIZE**4
    batches = []
    extensions = engine._extensions

    def spy(worlds, formula):
        if formula == alpha.formula:
            batches.append((worlds[0].n, len(worlds)))
        return extensions(worlds, formula)

    monkeypatch.setattr(engine, "_extensions", spy)
    spec = builtin_theory("T1")
    alpha = validate_hypothesis(Exists(Variable("y"), And((Atom("R", (Variable("y"), Variable("x"))),
                                                           Atom("P", (Variable("y"),))))),
                                spec.allowed, spec.forbidden)
    unknown = {} if regime == "full" else {"R": {(1, 2)}}
    drawn = [World(n, {"P": {i % n, 2}, "Q": {0}, "R": {(0, 2), (i % n, 0)}}, unknown)
             for n, count in ((MAX_DOMAIN_SIZE, 3), (16, 20), (3, 2)) for i in range(count)]
    batched = world_costs(regime, spec, drawn, alpha)
    assert sorted(batches) == [(3, 2), (16, 4), (16, 16), (MAX_DOMAIN_SIZE, 1), (MAX_DOMAIN_SIZE, 1),
                               (MAX_DOMAIN_SIZE, 1)]
    assert batched == tuple(world_costs(regime, spec, [w], alpha)[0] for w in drawn)


@st.composite
def gexprs(draw, unknowns, depth=3):
    """A grounded expression over the given unknown indices, built as the
    grounding builds one, constants included."""
    kind = draw(st.sampled_from(["unknown", "const"] + (["not", "and", "or"] if depth else [])))
    if kind == "unknown":
        return engine._GUnk(draw(st.sampled_from(unknowns)))
    if kind == "const":
        return draw(st.sampled_from([engine._GTRUE, engine._GFALSE]))
    if kind == "not":
        return engine._g_not(draw(gexprs(unknowns, depth - 1)))
    return engine._g_junction(draw(st.lists(gexprs(unknowns, depth - 1), min_size=1, max_size=3)), kind == "or")


def _rows(e, bits: dict, size: int):
    """e's truth values over every row of the global table (bits: unknown ->
    its column), by direct recursion."""
    if isinstance(e, engine._GConst):
        return np.full(size, e.value)
    if isinstance(e, engine._GUnk):
        return bits[e.index]
    if isinstance(e, engine._GNot):
        return ~_rows(e.child, bits, size)
    parts = [_rows(c, bits, size) for c in e.children]
    return (np.logical_or if e.absorb else np.logical_and).reduce(parts)


def _global_table(unknowns):
    """Every assignment of the unknowns; bit i of a row is the i-th smallest."""
    ordered, size = sorted(unknowns), 1 << len(unknowns)
    rows = np.arange(size)
    return ordered, size, {v: ((rows >> i) & 1).astype(bool) for i, v in enumerate(ordered)}


SWEEP_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                          suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("pick, best", [(np.argmin, min), (np.argmax, max)], ids=["argmin", "argmax"])
@SWEEP_SETTINGS
@given(data=st.data())
def test_sweep_matches_the_global_truth_table(pick, best, data):
    """_sweep against plain enumeration of every assignment: None exactly
    when no row satisfies every constraint, else the best count and the
    first optimal row on the unknowns its expressions mention."""
    unknowns = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True), label="unknowns")
    constraints = data.draw(st.lists(gexprs(unknowns), max_size=4), label="constraints")
    costs = data.draw(st.lists(gexprs(unknowns), max_size=5), label="costs")
    live = [e for e in constraints + costs if not isinstance(e, engine._GConst)]
    if len(live) >= 2 and data.draw(st.booleans(), label="bridge"):
        # a later expression meeting the first and the last one's unknowns,
        # which may sit in two different groups until it joins them
        ends = [engine._GUnk(min(e.support)) for e in (live[0], live[-1])]
        costs.append(engine._g_junction(ends, data.draw(st.booleans(), label="absorb")))

    ordered, size, bits = _global_table(unknowns)
    feasible = np.ones(size, dtype=bool)
    for e in constraints:
        feasible &= _rows(e, bits, size)
    counts = sum((_rows(e, bits, size).astype(int) for e in costs), np.zeros(size, dtype=int))
    got = engine._sweep(constraints, costs, pick)
    if not feasible.any():
        assert got is None
        return
    target = best(counts[feasible])
    first = int(np.flatnonzero(feasible & (counts == target))[0])
    mentioned = set().union(*(e.support for e in constraints + costs))
    assert got[0] == target
    assert got[1] == {v: bool((first >> ordered.index(v)) & 1) for v in mentioned}


@SWEEP_SETTINGS
@given(data=st.data())
def test_counterexample_is_the_first_falsifying_row_of_the_first_falsifiable_axiom(data):
    unknowns = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True), label="unknowns")
    axioms = data.draw(st.lists(gexprs(unknowns), max_size=5), label="axioms")
    expected = None
    for e in axioms:
        ordered, size, bits = _global_table(e.support)
        falsified = np.flatnonzero(~_rows(e, bits, size))
        if falsified.size:
            expected = {v: bool((int(falsified[0]) >> i) & 1) for i, v in enumerate(ordered)}
            break
    assert engine._counterexample(axioms) == expected


def _shape(e):
    """A grounded expression as nested tuples, so equal shapes compare equal."""
    if isinstance(e, engine._GConst):
        return e.value
    if isinstance(e, engine._GUnk):
        return ("unk", e.index)
    if isinstance(e, engine._GNot):
        return ("not", _shape(e.child))
    return (e.absorb, tuple(map(_shape, e.children)))


VIOLATION_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                              suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("theory_id", THEORY_IDS)
@VIOLATION_SETTINGS
@given(world=worlds(max_unknowns=0))
def test_closed_violations_are_antecedent_and_not_consequent(theory_id, world):
    """On a fully observed world, the violation formula's closed extension
    is the antecedent's and the negated consequent's."""
    spec = builtin_theory(theory_id)
    ante, cons = (engine.closed_world_extension(world, f) for f in (spec.antecedent, spec.consequent))
    expected = ante & ~cons
    assert np.array_equal(engine._closed_violations(world, spec), expected)
    assert np.array_equal(engine.closed_world_extension(world, spec.violation), expected)
    relations = {p: engine._world_arrays(world)[p][0] for p in ("P", "Q", "R", "S")}
    opts, _, _ = engine.closed_block(spec, spec.antecedent, world.n, relations)
    assert opts.tolist() == [int(expected.sum())]


@pytest.mark.parametrize("theory_id", THEORY_IDS)
@VIOLATION_SETTINGS
@given(world=worlds(max_unknowns=6))
def test_grounded_violation_is_the_junction_of_its_parts(theory_id, world):
    """One grounding of the violation formula has, per element, the shape of
    (and A_a (not C_a)) built from the antecedent's and consequent's own
    groundings, so every sweep and witness over it is unchanged."""
    spec = builtin_theory(theory_id)
    ante, cons = (engine._groundings(world, f, *engine._extension(world, f))
                  for f in (spec.antecedent, spec.consequent))
    joined = [engine._g_junction([a, engine._g_not(c)], False) for a, c in zip(ante, cons)]
    assert list(map(_shape, engine._world_grounding(world, spec))) == list(map(_shape, joined))


# Metamorphic relations at the generator's scale, where the oracle cannot
# enumerate: n 9-12 and up to 14 unknown atoms, so the grounding memo and
# components of several unknowns take part.

SCALE_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None,
                          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@st.composite
def generated_worlds(draw, max_unknowns=14):
    """A fully observed world drawn as the generator draws one (n 9-12,
    the skeptical scenario's densities), and the same world with up to
    max_unknowns atoms of any predicate moved to its unknown sets."""
    rng = draw(st.randoms(use_true_random=False))
    complete = sample_complete_world(range(9, 13), DENSITY_RANGES["skeptical"], rng)
    n = complete.n
    cells = [(p, a) for p in UNARY for a in range(n)]
    cells += [(p, (i, j)) for p in BINARY for i in range(n) for j in range(n)]
    hidden = {p: set() for p in UNARY + BINARY}
    for p, a in rng.sample(cells, draw(st.integers(0, max_unknowns))):
        hidden[p].add(a)
    true = {p: complete.true_atoms[p] - hidden[p] for p in hidden}
    return complete, World(n, true, hidden)


def _permuted(world: World, perm) -> World:
    """The world with each domain element a renamed perm[a]."""
    def move(atoms):
        return {perm[a] if isinstance(a, int) else (perm[a[0]], perm[a[1]]) for a in atoms}
    return World(world.n, {p: move(s) for p, s in world.true_atoms.items()},
                 {p: move(s) for p, s in world.unknown_atoms.items()})


def _hypothesis(data, spec):
    formula = data.draw(formulas(sorted(spec.allowed), depth=2), label="alpha")
    assume(free_variables(formula) == {"x"})
    return validate_hypothesis(formula, spec.allowed, spec.forbidden)


def _costs_and_bounds(regime, spec, world, alpha):
    return (world_costs(regime, spec, [world], alpha),
            *(opt_cost(regime, spec, world, variant=v) for v in ("pointwise", "uniform")))


@pytest.mark.parametrize("theory_id", THEORY_IDS)
@SCALE_SETTINGS
@given(data=st.data())
def test_permuting_elements_keeps_costs_and_bounds(theory_id, data):
    """Renaming the domain elements changes no world_costs or opt_cost, in
    any regime: the full one on the complete world, the others on it masked."""
    spec = builtin_theory(theory_id)
    complete, masked = data.draw(generated_worlds(), label="worlds")
    perm = data.draw(st.permutations(range(complete.n)), label="perm")
    alpha = _hypothesis(data, spec)
    for regime, world in (("full", complete), ("partial", masked), ("skeptical", masked)):
        assert _costs_and_bounds(regime, spec, _permuted(world, perm), alpha) == \
            _costs_and_bounds(regime, spec, world, alpha)


@pytest.mark.parametrize("theory_id", THEORY_IDS)
@SCALE_SETTINGS
@given(data=st.data())
def test_regimes_agree_on_fully_observed_worlds(theory_id, data):
    """With no unknown atom there is one completion, so the best and worst
    cases are the direct count: the three regimes give one answer."""
    spec = builtin_theory(theory_id)
    world, _ = data.draw(generated_worlds(max_unknowns=0), label="worlds")
    alpha = _hypothesis(data, spec)
    full = _costs_and_bounds("full", spec, world, alpha)
    assert _costs_and_bounds("partial", spec, world, alpha) == full
    assert _costs_and_bounds("skeptical", spec, world, alpha) == full


def _revealed(world: World, pred: str, atom, value: bool) -> World:
    """The world with one unknown atom observed as value."""
    true = {p: set(s) for p, s in world.true_atoms.items()}
    unknown = {p: set(s) for p, s in world.unknown_atoms.items()}
    unknown[pred].discard(atom)
    if value:
        true[pred].add(atom)
    return World(world.n, true, unknown)


@pytest.mark.parametrize("theory_id", THEORY_IDS)
@SCALE_SETTINGS
@given(data=st.data())
def test_revealing_unknowns_moves_each_regime_one_way(theory_id, data):
    """Revealing one unknown atom, to either value, or all of them, to the
    complete world, leaves fewer completions: the partial regime's best
    case never falls and an invalid rule stays invalid; the skeptical
    regime's worst case never rises and a valid rule stays valid."""
    spec = builtin_theory(theory_id)
    complete, masked = data.draw(generated_worlds(), label="worlds")
    if data.draw(st.booleans(), label="pooled"):
        # random formulas seldom read the unknown atoms; the pools' rules do
        alpha = data.draw(st.sampled_from(tier1_formulas(spec) + tier2_formulas(spec)), label="alpha")
    else:
        alpha = _hypothesis(data, spec)
    reveals = [complete]
    hidden = sorted((p, a) for p, atoms in masked.unknown_atoms.items() for a in atoms)
    if hidden:
        pred, atom = data.draw(st.sampled_from(hidden), label="atom")
        reveals += [_revealed(masked, pred, atom, value) for value in (False, True)]
    (p_cost,), *p_bounds = _costs_and_bounds("partial", spec, masked, alpha)
    (s_cost,), *s_bounds = _costs_and_bounds("skeptical", spec, masked, alpha)
    for world in reveals:
        (cost_after,), *bounds = _costs_and_bounds("partial", spec, world, alpha)
        assert all(after >= before for after, before in zip(bounds, p_bounds))
        if p_cost is None:
            assert cost_after is None
        elif cost_after is not None:
            assert cost_after >= p_cost
        (cost_after,), *bounds = _costs_and_bounds("skeptical", spec, world, alpha)
        assert all(after <= before for after, before in zip(bounds, s_bounds))
        if s_cost is not None:
            assert cost_after is not None and cost_after <= s_cost


def _rewritten(f, node):
    """f with `node` applied bottom-up: to every subformula, after its children."""
    return node(rebuild(f, [_rewritten(c, node) for c in children(f)]))


def _renamed(f, names: dict):
    """f with every variable, bound or free, named names.get(name, name)."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(Variable(names.get(v.name, v.name)) for v in f.args))
    if isinstance(f, Equal):
        return Equal(*(Variable(names.get(v.name, v.name)) for v in (f.left, f.right)))
    if isinstance(f, (Forall, Exists)):
        return type(f)(Variable(names.get(f.var.name, f.var.name)), _renamed(f.body, names))
    return rebuild(f, [_renamed(c, names) for c in children(f)])


def _de_morgan(f):
    if isinstance(f, (And, Or)):
        return Not((Or if isinstance(f, And) else And)(tuple(Not(c) for c in f.children)))
    return f


def _quantifier_dual(f):
    if isinstance(f, (Forall, Exists)):
        return Not((Exists if isinstance(f, Forall) else Forall)(f.var, Not(f.body)))
    return f


def _as_implication(f):
    """An or (a, b, ...) as (implies not-a (or b ...)), where not-a of
    (not c) is c: (or (not c) b) becomes (implies c b)."""
    if not isinstance(f, Or):
        return f
    first, *rest = f.children
    return Implies(first.child if isinstance(first, Not) else Not(first), rest[0] if len(rest) == 1 else Or(rest))


def _reversed(f):
    return rebuild(f, f.children[::-1]) if isinstance(f, (And, Or)) else f


# Rewrites of one node, applied at every node by _rewritten.
NODE_REWRITES = {
    "de-morgan": _de_morgan,
    "quantifier-dual": _quantifier_dual,
    "double-negation": lambda f: Not(Not(f)),
    "reversed": _reversed,
    "implies": _as_implication,
}


@pytest.mark.parametrize("theory_id", THEORY_IDS)
@SCALE_SETTINGS
@given(data=st.data())
def test_rewriting_alpha_keeps_its_costs(theory_id, data):
    """Rewrites of alpha that keep its meaning keep world_costs in every
    regime: a bijective renaming of the bound names y, z and w, De Morgan at
    every junction, the forall / exists duals, double negation, reversed
    junction children, and (or (not a) b) as (implies a b)."""
    spec = builtin_theory(theory_id)
    complete, masked = data.draw(generated_worlds(), label="worlds")
    if data.draw(st.booleans(), label="pooled"):
        alpha = data.draw(st.sampled_from(tier1_formulas(spec) + tier2_formulas(spec)), label="alpha")
    else:
        alpha = _hypothesis(data, spec)
    names = dict(zip("yzw", data.draw(st.permutations("yzw"), label="names")))
    cases = (("full", complete), ("partial", masked), ("skeptical", masked))
    expected = [world_costs(regime, spec, [world], alpha) for regime, world in cases]
    rewrites = {"rename": _renamed(alpha.formula, names)}
    rewrites.update((name, _rewritten(alpha.formula, node)) for name, node in NODE_REWRITES.items())
    for name, formula in rewrites.items():
        # built directly: implies is no hypothesis syntax, and the rewrites grow the AST
        rewritten = Hypothesis(formula, alpha.allowed)
        assert [world_costs(regime, spec, [world], rewritten) for regime, world in cases] == expected, name
