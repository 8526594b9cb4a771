import dataclasses
import pickle
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from abduce.formula import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    FormulaSyntaxError,
    Hypothesis,
    HypothesisError,
    Implies,
    Not,
    Or,
    Variable,
    children,
    contains_implies,
    formula_metrics,
    free_variables,
    parse_formula,
    parse_hypothesis,
    predicates_used,
    render_formula,
    validate_hypothesis,
)
from abduce.generator import gold_mutants
from abduce.theory import THEORY_IDS, builtin_theory, custom_theory

from conftest import random_formula
from test_properties import formulas


def v(name):
    return Variable(name)


class TestParse:
    def test_basic_conjunction(self):
        f = parse_formula("(and (P x) (not (Q x)))")
        assert f == And((Atom("P", (v("x"),)), Not(Atom("Q", (v("x"),)))))

    def test_whitespace_normalization(self):
        f = parse_formula("  (and\n  (P   x)\t(not (Q x)))  ")
        assert render_formula(f) == "(and (P x) (not (Q x)))"

    def test_and_arity_error(self):
        with pytest.raises(FormulaSyntaxError, match="at least 2"):
            parse_formula("(and (P x))")

    def test_or_arity_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(or (P x))")

    def test_nary_and(self):
        f = parse_formula("(and (P x) (Q x) (R x x))")
        assert isinstance(f, And) and len(f.children) == 3

    def test_implies_gated(self):
        with pytest.raises(FormulaSyntaxError, match="implies"):
            parse_formula("(implies (P x) (Q x))")
        f = parse_formula("(implies (P x) (Q x))", allow_implies=True)
        assert render_formula(f) == "(implies (P x) (Q x))"

    def test_malformed_parens(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(and (P x) (Q x)")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(P x))")

    def test_unknown_operator(self):
        with pytest.raises(FormulaSyntaxError, match="unknown"):
            parse_formula("(xor (P x) (Q x))")

    def test_wrong_atom_arity(self):
        with pytest.raises(FormulaSyntaxError, match="argument"):
            parse_formula("(P x y)")
        with pytest.raises(FormulaSyntaxError, match="argument"):
            parse_formula("(R x)")

    def test_constant_token_rejected(self):
        with pytest.raises(FormulaSyntaxError, match="object-constant"):
            parse_formula("(P a0)")

    def test_variable_outside_grammar_rejected(self):
        with pytest.raises(FormulaSyntaxError, match="outside"):
            parse_formula("(P v)")

    def test_equality(self):
        assert parse_formula("(= x y)") == Equal(v("x"), v("y"))

    def test_empty_and_trailing(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("")
        with pytest.raises(FormulaSyntaxError, match="trailing"):
            parse_formula("(P x) (Q x)")


class TestRender:
    def test_canonical_examples(self):
        assert render_formula(And((Atom("P", (v("x"),)), Not(Atom("Q", (v("x"),)))))) == "(and (P x) (not (Q x)))"
        assert render_formula(Equal(v("x"), v("y"))) == "(= x y)"
        f = Exists(v("y"), And((Atom("R", (v("x"), v("y"))), Atom("P", (v("y"),)))))
        assert render_formula(f) == "(exists y (and (R x y) (P y)))"

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(10_000):
            f = random_formula(rng, ("P", "Q", "R", "S"), max_depth=3)
            assert parse_formula(render_formula(f)) == f

    def test_round_trip_axioms(self):
        for t in ("T1", "T2", "T3", "T4", "T5", "T6", "T7"):
            ax = builtin_theory(t).axiom
            assert parse_formula(render_formula(ax), allow_implies=True) == ax


def independent_size(f):
    # transcription of the size bullets, written against the node kinds only
    if isinstance(f, Atom):
        return 1 + len(f.args)
    if isinstance(f, Equal):
        return 1 + 2
    if isinstance(f, Not):
        return 1 + independent_size(f.child)
    if hasattr(f, "children"):
        total = 1
        for c in f.children:
            total += independent_size(c)
        return total
    if hasattr(f, "lhs"):
        return 1 + independent_size(f.lhs) + independent_size(f.rhs)
    return 1 + 1 + independent_size(f.body)


def independent_depth(f):
    if isinstance(f, (Atom, Equal)):
        return 0
    if isinstance(f, Not):
        return independent_depth(f.child)
    if hasattr(f, "children"):
        return max(independent_depth(c) for c in f.children)
    if hasattr(f, "lhs"):
        return max(independent_depth(f.lhs), independent_depth(f.rhs))
    return 1 + independent_depth(f.body)


class TestMetrics:
    def test_worked_values(self):
        m = formula_metrics(parse_formula("(exists y (and (R x y) (P y)))"))
        assert m.ast_size == 8 and m.quantifier_depth == 1
        m = formula_metrics(parse_formula("(P x)"))
        assert m.ast_size == 2 and m.quantifier_depth == 0
        assert formula_metrics(parse_formula("(exists y (R x y))")).quantifier_depth == 1
        assert formula_metrics(parse_formula("(forall y (exists z (R y z)))")).quantifier_depth == 2
        assert formula_metrics(parse_formula("(= x y)")).ast_size == 3

    def test_matches_independent_count(self):
        rng = random.Random(11)
        for _ in range(2_000):
            f = random_formula(rng, ("P", "Q", "R", "S"), max_depth=3)
            m = formula_metrics(f)
            assert m.ast_size == independent_size(f)
            assert m.quantifier_depth == independent_depth(f)


class TestFreeVariables:
    def test_shadowing_innermost(self):
        f = parse_formula("(exists y (exists y (P y)))")
        assert free_variables(f) == frozenset()
        f = parse_formula("(and (P x) (exists y (exists y (R x y))))")
        assert free_variables(f) == {"x"}

    def test_free_y(self):
        assert free_variables(parse_formula("(P y)")) == {"y"}


class TestValidateHypothesis:
    def test_forbidden_predicate_t1(self):
        t1 = builtin_theory("T1")
        with pytest.raises(HypothesisError, match="forbidden"):
            parse_hypothesis("(not (Q x))", t1.allowed, t1.forbidden)

    def test_free_variable_not_x(self):
        with pytest.raises(HypothesisError, match="free-variable"):
            parse_hypothesis("(P y)", {"P"})

    def test_no_free_variable(self):
        with pytest.raises(HypothesisError, match="free-variable"):
            parse_hypothesis("(forall y (P y))", {"P"})

    def test_valid_under_t1(self):
        t1 = builtin_theory("T1")
        h = parse_hypothesis("(and (P x) (exists y (R x y)))", t1.allowed, t1.forbidden)
        assert h.formula == parse_formula("(and (P x) (exists y (R x y)))")

    def test_ab_rejected(self):
        f = parse_formula("(Ab x)")
        with pytest.raises(HypothesisError, match="Ab"):
            validate_hypothesis(f, {"P", "Q", "R", "S", "Ab"})

    def test_implies_rejected(self):
        f = parse_formula("(implies (P x) (P x))", allow_implies=True)
        assert contains_implies(f)
        with pytest.raises(HypothesisError, match="implication"):
            validate_hypothesis(f, {"P"})

    def test_prompt_example_formulas_accepted(self):
        # the syntactic illustrations shipped in the task prompts
        examples = [
            "(P x)",
            "(and (P x) (not (Q x)))",
            "(exists y (and (R x y) (not (P y))))",
            "(not (exists y (R x y)))",
            "(forall y (or (not (R x y)) (Q y)))",
            "(exists y (exists z (and (R x y) (R x z) (not (= y z)))))",
        ]
        for text in examples:
            h = parse_hypothesis(text, {"P", "Q", "R", "S"})
            assert free_variables(h.formula) == {"x"}


class TestTraversal:
    def test_rebuild_from_children_is_identity(self, rng):
        from abduce.formula import children, rebuild

        for _ in range(200):
            f = random_formula(rng, ("P", "Q", "R", "S"), max_depth=3)
            assert rebuild(f, children(f)) == f

    def test_subformulas_pre_order_with_paths(self):
        from abduce.formula import subformulas

        f = parse_formula("(and (P x) (not (exists y (R x y))))")
        got = [(path, render_formula(g)) for path, g in subformulas(f)]
        assert got == [
            ((), render_formula(f)),
            ((0,), "(P x)"),
            ((1,), "(not (exists y (R x y)))"),
            ((1, 0), "(exists y (R x y))"),
            ((1, 0, 0), "(R x y)"),
        ]

    def test_implies_children(self):
        from abduce.formula import children

        f = parse_formula("(implies (P x) (Q x))", allow_implies=True)
        assert [render_formula(c) for c in children(f)] == ["(P x)", "(Q x)"]
        assert formula_metrics(f).ast_size == 5 and contains_implies(f)


class TestNestingCap:
    def test_cap_is_exact(self):
        from abduce.formula import MAX_NESTING

        def nested(depth):
            return "(not " * (depth - 1) + "(P x)" + ")" * (depth - 1)

        assert formula_metrics(parse_formula(nested(MAX_NESTING))).ast_size == MAX_NESTING + 1
        with pytest.raises(FormulaSyntaxError, match="nests deeper"):
            parse_formula(nested(MAX_NESTING + 1))

    def test_very_deep_line_is_a_syntax_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(not " * 3000 + "(P x)" + ")" * 3000)


class TestHashMemo:
    def test_equal_formulas_built_separately_hash_alike(self, rng):
        for _ in range(50):
            f = random_formula(rng, {"P", "Q", "R", "S"}, max_depth=4)
            g = parse_formula(render_formula(f))
            assert f is not g and f == g and hash(f) == hash(g)

    def test_replace_carries_no_stale_hash(self):
        f = parse_formula("(exists y (and (R x y) (P y)))")
        hash(f)
        g = dataclasses.replace(f, body=parse_formula("(S x y)"))
        assert g == parse_formula("(exists y (S x y))")
        assert hash(g) == hash(parse_formula("(exists y (S x y))"))
        assert hash(g) != hash(f)
        assert dataclasses.asdict(g) == dataclasses.asdict(parse_formula("(exists y (S x y))"))

    def test_pickle_drops_the_memo(self):
        f = parse_formula("(forall y (or (R x y) (P y)))")
        hash(f)
        g = pickle.loads(pickle.dumps(f))
        assert "_hash" not in vars(g) and g == f and hash(g) == hash(f)

    def test_equal_theory_specs_hash_alike(self):
        t1, t2 = builtin_theory("T1"), builtin_theory("T2")
        again = dataclasses.replace(t1, description=t1.description)
        assert again is not t1 and again == t1 and hash(again) == hash(t1)
        c1, c2 = (custom_theory("(exists y (R x y))", "(Q x)", {"P", "R"}) for _ in range(2))
        assert c1 is not c2 and c1 == c2 and hash(c1) == hash(c2)
        assert t1 != t2


# ---------------------------------------------------------------------------
# The per-node facts memo against plain recursion


def _reference(f):
    """(size, quantifier depth, predicates, free variables, implication
    present) by plain recursion over the node types."""
    if isinstance(f, Atom):
        return 1 + len(f.args), 0, {f.pred}, {a.name for a in f.args}, False
    if isinstance(f, Equal):
        return 3, 0, set(), {f.left.name, f.right.name}, False
    if isinstance(f, (Forall, Exists)):
        size, depth, preds, free, implies = _reference(f.body)
        return size + 2, depth + 1, preds, free - {f.var.name}, implies
    if isinstance(f, Not):
        kids = [f.child]
    else:
        kids = [f.lhs, f.rhs] if isinstance(f, Implies) else list(f.children)
    refs = [_reference(k) for k in kids]
    return (
        1 + sum(r[0] for r in refs),
        max(r[1] for r in refs),
        set().union(*(r[2] for r in refs)),
        set().union(*(r[3] for r in refs)),
        isinstance(f, Implies) or any(r[4] for r in refs),
    )


def _reference_verdict(f, allowed, forbidden):
    """The HypothesisError message validate_hypothesis should raise, or None."""
    _, _, used, free, implies = _reference(f)
    if implies:
        return "implication is not allowed in a hypothesis"
    if "Ab" in used:
        return "hypothesis must not mention Ab (it defines Ab)"
    bad = sorted((used & forbidden) | (used - allowed))
    if bad:
        return f"forbidden predicate(s) used: {', '.join(bad)}"
    if free != {"x"}:
        return "free-variable set must be exactly {x}, got {" + ", ".join(sorted(free)) + "}"
    return None


def _assert_facts(f, spec):
    size, depth, preds, free, implies = _reference(f)
    metrics = formula_metrics(f)
    assert (metrics.ast_size, metrics.quantifier_depth) == (size, depth)
    assert free_variables(f) == free and predicates_used(f) == preds and contains_implies(f) == implies
    expected = _reference_verdict(f, spec.allowed, spec.forbidden)
    try:
        got = validate_hypothesis(f, spec.allowed, spec.forbidden)
    except HypothesisError as exc:
        assert str(exc) == expected
    else:
        assert expected is None and got == Hypothesis(f, spec.allowed)


@st.composite
def _any_formulas(draw):
    """test_properties.formulas over a random scope and free variables, now
    and then with an implication at the root or below it, or beside an Ab
    atom."""
    preds = sorted(draw(st.sets(st.sampled_from(("P", "Q", "R", "S")), min_size=1)))
    env = draw(st.sampled_from((("x",), ("x", "y"), ("y",))))
    f = draw(formulas(preds, env, depth=draw(st.integers(0, 4))))
    kind = draw(st.sampled_from(("plain", "plain", "implies", "nested implies", "ab")))
    if kind == "implies":
        return Implies(f, draw(formulas(preds, env, depth=2)))
    if kind == "nested implies":
        return Exists(Variable("y"), Not(And((f, Implies(f, draw(formulas(preds, env, depth=2)))))))
    if kind == "ab":
        return Or((Atom("Ab", (Variable("x"),)), f))
    return f


FACTS_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@FACTS_SETTINGS
@given(f=_any_formulas(), theory=st.sampled_from(THEORY_IDS))
def test_facts_memo_matches_plain_recursion(f, theory):
    spec = builtin_theory(theory)
    fresh = parse_formula(render_formula(f), allow_implies=True)
    _assert_facts(f, spec)
    # the memo sits beside the fields, on every node but a leaf: equality,
    # hash, repr, replace and pickle see the same node as a copy that has none
    assert ("_facts" in vars(f)) == bool(children(f)) and "_facts" not in vars(fresh)
    assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
    assert dataclasses.asdict(f) == dataclasses.asdict(fresh)
    again = dataclasses.replace(f)
    assert "_facts" not in vars(again) and again == f and hash(again) == hash(f)
    thawed = pickle.loads(pickle.dumps(f))
    assert "_facts" not in vars(thawed) and "_hash" not in vars(thawed)
    assert thawed == f and hash(thawed) == hash(f)
    _assert_facts(thawed, spec)
    _assert_facts(fresh, spec)


@FACTS_SETTINGS
@given(data=st.data())
def test_facts_memo_on_mutants_that_share_subtrees(data):
    spec = builtin_theory(data.draw(st.sampled_from(THEORY_IDS), label="theory"))
    f = data.draw(formulas(sorted(spec.allowed), depth=4), label="gold")
    assume(_reference(f)[3] == {"x"})
    _assert_facts(f, spec)  # every inner node of the gold now holds its record
    gold = validate_hypothesis(f, spec.allowed, spec.forbidden)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    for mutant in gold_mutants(gold, spec, random.Random(seed), count=10):
        _assert_facts(mutant.formula, spec)
        _assert_facts(parse_formula(render_formula(mutant.formula)), spec)
