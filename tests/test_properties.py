"""Property-based differential tests: engine against the naive oracle.

Hypothesis draws small worlds (n <= 4, at most 6 unknown atoms), a theory
and an in-scope hypothesis, so a disagreement shrinks to a minimal world
and formula.  The fixed-seed sweep of acceptance Criterion 1 stays as it is;
this test adds shrinking and a different distribution.  A second test pins
the engine's three-valued pre-pass to the grounding it stands in for.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from abduce import engine, oracle
from abduce.engine import cost, opt_cost, validity
from abduce.formula import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    Not,
    Or,
    Variable,
    free_variables,
    validate_hypothesis,
)
from abduce.theory import THEORY_IDS, builtin_theory
from abduce.world import World, enumerate_completions, eval_formula

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
