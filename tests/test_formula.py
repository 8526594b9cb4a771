import dataclasses
import pickle
import random

import pytest

from abduce.formula import (
    And,
    Atom,
    Equal,
    Exists,
    FormulaSyntaxError,
    HypothesisError,
    Not,
    Variable,
    contains_implies,
    formula_metrics,
    free_variables,
    parse_formula,
    parse_hypothesis,
    render_formula,
    validate_hypothesis,
)
from abduce.theory import builtin_theory, custom_theory

from conftest import random_formula


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
