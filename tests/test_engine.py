import random

import pytest

from abduce import oracle
from abduce.engine import (
    InvalidHypothesisError,
    Regime,
    RegimeMismatchError,
    ScopeError,
    cost,
    gaps,
    opt_cost,
    opt_costs,
    validity,
)
from abduce.formula import parse_hypothesis, validate_hypothesis
from abduce.theory import THEORY_IDS, builtin_theory, custom_theory
from abduce.world import EnumerationCapError, World, eval_formula

from conftest import random_hypothesis_formula, random_world

PQ = custom_theory("(P x)", "(Q x)", allowed={"P", "Q"})
ALPHA_PNQ = parse_hypothesis("(and (P x) (not (Q x)))", {"P", "Q"})
ALPHA_P = parse_hypothesis("(P x)", {"P", "Q"})
TOP = parse_hypothesis("(or (P x) (not (P x)))", {"P", "Q"})
BOT = parse_hypothesis("(and (P x) (not (P x)))", {"P", "Q"})

FULL_WORLD = World(2, {"P": {0, 1}, "Q": {1}})
PARTIAL_WORLD = World(2, {"P": {0, 1}}, {"Q": {1}})


class TestWorkedExamples:
    def test_full_validity_and_cost(self):
        v = validity(Regime.FULL, PQ, [FULL_WORLD], ALPHA_PNQ)
        assert v.valid and v.per_world_valid == (True,)
        assert cost(Regime.FULL, PQ, [FULL_WORLD], ALPHA_PNQ).total == 1

    def test_partial_best_case_cost(self):
        v = validity(Regime.PARTIAL, PQ, [PARTIAL_WORLD], ALPHA_PNQ)
        assert v.valid
        assert cost(Regime.PARTIAL, PQ, [PARTIAL_WORLD], ALPHA_PNQ).total == 1

    def test_partial_witness_satisfies(self):
        v = validity(Regime.PARTIAL, PQ, [PARTIAL_WORLD], ALPHA_PNQ)
        assert v.witness is not None and v.witness_world == 0
        assert eval_formula(PARTIAL_WORLD, v.witness, {}, PQ.axiom, ab_rule=ALPHA_PNQ)

    def test_skeptical_validity_and_worst_case(self):
        v = validity(Regime.SKEPTICAL, PQ, [PARTIAL_WORLD], ALPHA_P)
        assert v.valid and v.witness is None
        assert cost(Regime.SKEPTICAL, PQ, [PARTIAL_WORLD], ALPHA_P).total == 2
        assert cost(Regime.SKEPTICAL, PQ, [PARTIAL_WORLD], ALPHA_PNQ).total == 2

    def test_skeptical_counterexample_witness(self):
        # empty alpha is skeptically invalid here: completion Q(a1)=F breaks a1
        v = validity(Regime.SKEPTICAL, PQ, [PARTIAL_WORLD], BOT)
        assert not v.valid and v.witness is not None
        assert not eval_formula(PARTIAL_WORLD, v.witness, {}, PQ.axiom, ab_rule=BOT)

    def test_opt_costs(self):
        assert opt_cost(Regime.FULL, PQ, FULL_WORLD) == 1
        assert opt_cost(Regime.PARTIAL, PQ, PARTIAL_WORLD) == 1
        assert opt_cost(Regime.SKEPTICAL, PQ, PARTIAL_WORLD) == 2
        assert opt_cost(Regime.SKEPTICAL, PQ, PARTIAL_WORLD, variant="uniform") == 2

    def test_vacuous_antecedent_opt_zero(self):
        w = World(3, {"Q": {0}})
        assert opt_cost(Regime.FULL, PQ, w) == 0


class TestContracts:
    def test_cost_requires_validity(self):
        with pytest.raises(InvalidHypothesisError):
            cost(Regime.FULL, PQ, [FULL_WORLD], BOT)

    def test_scope_enforced(self):
        t1 = builtin_theory("T1")
        stray = validate_hypothesis(
            parse_hypothesis("(Q x)", {"Q"}).formula, allowed={"Q"}
        )
        with pytest.raises(ScopeError):
            validity(Regime.FULL, t1, [World(3, {"Q": {0}})], stray)

    def test_full_requires_observed_world(self):
        with pytest.raises(ValueError, match="fully observed"):
            validity(Regime.FULL, PQ, [PARTIAL_WORLD], ALPHA_P)

    def test_cap(self):
        w = World(6, {}, {"R": {(i, j) for i in range(5) for j in range(5)}})
        with pytest.raises(EnumerationCapError):
            validity(Regime.PARTIAL, PQ, [w], ALPHA_P, cap=24)

    def test_gaps_regime_mismatch(self):
        c = cost(Regime.FULL, PQ, [FULL_WORLD], ALPHA_PNQ)
        o = opt_costs(Regime.PARTIAL, PQ, [PARTIAL_WORLD])
        with pytest.raises(RegimeMismatchError):
            gaps(c, o)


class TestGaps:
    def test_normalization_worked_value(self):
        from abduce.engine import CostReport, OptReport

        c = CostReport(Regime.FULL, (1,) * 10, 13)
        o = OptReport(Regime.FULL, (1,) * 10, 12)
        report = gaps(c, o)
        assert report.gap_total == 1
        assert report.gap_normalized == pytest.approx(0.10)

    def test_gold_margins(self):
        from abduce.engine import CostReport, OptReport

        c = CostReport(Regime.FULL, (12,), 12)
        o = OptReport(Regime.FULL, (10,), 10)
        report = gaps(c, o, gold_costs=[19])
        assert report.total - report.gold_cost == -7
        c = CostReport(Regime.FULL, (7,), 7)
        report = gaps(c, o, gold_costs=[21])
        assert report.total - report.gold_cost == -14
        assert report.gap_gold_normalized == pytest.approx(-14.0)

    def test_zero_gap(self):
        from abduce.engine import CostReport, OptReport

        report = gaps(CostReport(Regime.FULL, (3,), 3), OptReport(Regime.FULL, (3,), 3))
        assert report.gap_total == 0 and report.gap_normalized == 0.0

    def test_gold_via_engine(self):
        c = cost(Regime.FULL, PQ, [FULL_WORLD], TOP)
        o = opt_costs(Regime.FULL, PQ, [FULL_WORLD])
        report = gaps(c, o, gold=ALPHA_PNQ, theory=PQ, worlds=[FULL_WORLD])
        assert report.gold_cost == 1
        assert report.gap_gold_normalized == pytest.approx(1.0)


class TestStructuralProperties:
    def test_top_always_valid_cost_is_domain_size(self, rng):
        for _ in range(30):
            w = random_world(rng, max_unknowns=6, allow_unary_unknowns=False)
            for tid in ("T1", "T4", "T7"):
                spec = builtin_theory(tid)
                top = parse_hypothesis("(or (P x) (not (P x)))", spec.allowed, spec.forbidden)
                assert validity(Regime.PARTIAL, spec, [w], top).valid
                assert validity(Regime.SKEPTICAL, spec, [w], top).valid
                assert cost(Regime.SKEPTICAL, spec, [w], top).total == w.n
                if w.num_unknowns() == 0:
                    assert cost(Regime.FULL, spec, [w], top).total == w.n

    def test_bottom_valid_iff_unrepaired_theory_holds(self, rng):
        spec = builtin_theory("T1")
        bot = parse_hypothesis("(and (P x) (not (P x)))", spec.allowed, spec.forbidden)
        for _ in range(40):
            w = random_world(rng, max_unknowns=0)
            v = validity(Regime.FULL, spec, [w], bot)
            unrepaired = opt_cost(Regime.FULL, spec, w) == 0
            assert v.valid == unrepaired
            if v.valid:
                assert cost(Regime.FULL, spec, [w], bot).total == 0

    def test_cost_at_least_opt(self, rng):
        for _ in range(60):
            w = random_world(rng, max_unknowns=0)
            for tid in ("T1", "T2", "T5"):
                spec = builtin_theory(tid)
                f = random_hypothesis_formula(rng, sorted(spec.allowed))
                alpha = validate_hypothesis(f, spec.allowed, spec.forbidden)
                if validity(Regime.FULL, spec, [w], alpha).valid:
                    assert cost(Regime.FULL, spec, [w], alpha).total >= opt_cost(Regime.FULL, spec, w)

    def test_regime_ordering(self, rng):
        for _ in range(60):
            w = random_world(rng, max_unknowns=6)
            for tid in ("T1", "T6"):
                spec = builtin_theory(tid)
                f = random_hypothesis_formula(rng, sorted(spec.allowed))
                alpha = validate_hypothesis(f, spec.allowed, spec.forbidden)
                if validity(Regime.SKEPTICAL, spec, [w], alpha).valid:
                    assert validity(Regime.PARTIAL, spec, [w], alpha).valid
                    worst = cost(Regime.SKEPTICAL, spec, [w], alpha).total
                    best = cost(Regime.PARTIAL, spec, [w], alpha).total
                    assert worst >= best

    def test_pointwise_at_most_uniform(self, rng):
        for _ in range(60):
            w = random_world(rng, max_unknowns=8)
            for tid in THEORY_IDS:
                spec = builtin_theory(tid)
                pw = opt_cost(Regime.SKEPTICAL, spec, w, variant="pointwise")
                un = opt_cost(Regime.SKEPTICAL, spec, w, variant="uniform")
                assert pw <= un


class TestOracleAgreement:
    """Unit-scale differential check; the acceptance suite runs 500 triples."""

    def test_small_differential(self):
        rng = random.Random(424242)
        checked = 0
        for _ in range(120):
            w = random_world(rng, n_range=(2, 5), max_unknowns=6)
            tid = rng.choice(THEORY_IDS)
            spec = builtin_theory(tid)
            alpha = validate_hypothesis(
                random_hypothesis_formula(rng, sorted(spec.allowed)), spec.allowed, spec.forbidden
            )
            regimes = ["partial", "skeptical"] + (["full"] if w.num_unknowns() == 0 else [])
            for regime in regimes:
                ev = validity(regime, spec, [w], alpha)
                ov = oracle.world_valid(regime, spec, w, alpha)
                assert ev.valid == ov, (regime, tid, alpha.formula)
                if ev.valid:
                    assert cost(regime, spec, [w], alpha).total == oracle.world_cost(regime, spec, w, alpha)
                assert opt_cost(regime, spec, w) == oracle.world_opt_cost(regime, spec, w)
                if regime == "skeptical":
                    assert opt_cost(regime, spec, w, variant="uniform") == oracle.world_opt_cost(
                        regime, spec, w, variant="uniform"
                    )
                checked += 1
        assert checked > 150


class TestKleeneIncompleteness:
    """Strong Kleene logic cannot see that (or A (not A)) holds when A is
    unknown, so the pre-pass must leave such elements to the exact path."""

    T1 = builtin_theory("T1")
    # R(0, 1), R(2, 2) and R(2, 0) are unknown; every R(1, y) is known.
    WORLD = World(3, {"P": {0, 1, 2}, "Q": {1}, "R": {(0, 0), (1, 2)}}, {"R": {(0, 1), (2, 2), (2, 0)}})
    ALPHA = parse_hypothesis("(forall y (or (R x y) (not (R x y))))", T1.allowed, T1.forbidden)

    def test_tautology_left_undecided(self):
        from abduce import engine

        must, may = engine._extension(self.WORLD, self.ALPHA.formula)
        assert must.tolist() == [False, True, False]
        assert may.tolist() == [True, True, True]
        grounded = engine._alpha_grounding(self.WORLD, self.ALPHA.formula)
        assert grounded[1] is engine._GTRUE
        assert not isinstance(grounded[0], engine._GConst)
        assert not isinstance(grounded[2], engine._GConst)

    @pytest.mark.parametrize("regime", ["partial", "skeptical"])
    def test_exact_path_agrees_with_oracle(self, regime):
        spec, world, alpha = self.T1, self.WORLD, self.ALPHA
        assert validity(regime, spec, [world], alpha).valid
        assert oracle.world_valid(regime, spec, world, alpha)
        assert cost(regime, spec, [world], alpha).total == oracle.world_cost(regime, spec, world, alpha) == 3
        for variant in ("pointwise", "uniform"):
            assert opt_cost(regime, spec, world, variant=variant) == oracle.world_opt_cost(
                regime, spec, world, variant=variant
            )


def _exists_chain(variables: str, body: str) -> str:
    for v in reversed(variables):
        body = f"(exists {v} {body})"
    return body


class TestQuantifierDepth:
    """Cost must not grow with quantifier depth: the grammar has four
    variable names, so evaluation and grounding stay within n^4."""

    T1 = builtin_theory("T1")
    # n = 11; the violations of T1 all fall on P = {0..5}, so the hypothesis
    # below is valid in every regime.  In the masked world P(6), P(7) and six
    # R atoms are unknown, which makes partial and skeptical costs differ.
    P = set(range(6))
    R = {(i, j) for i in range(6) for j in range(11) if (i + j) % 3 == 0}
    COMPLETE = World(11, {"P": P, "R": R})
    MASKED = World(11, {"P": P, "R": R}, {"P": {6, 7}, "R": {(i, (2 * i + 1) % 11) for i in range(6)} - R})
    BODY = "(and (P x) (or (R x y) (P y)))"
    SHALLOW = f"(exists y {BODY})"
    DEEP = _exists_chain("yzwyzw", BODY)

    def hyp(self, text):
        return parse_hypothesis(text, self.T1.allowed, self.T1.forbidden)

    def test_full_validity_memory(self):
        import tracemalloc

        from abduce.engine import clear_caches

        deep = self.hyp(self.DEEP)
        clear_caches()
        tracemalloc.start()
        try:
            validity(Regime.FULL, self.T1, [self.COMPLETE], deep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize("regime", [Regime.PARTIAL, Regime.SKEPTICAL])
    def test_masked_validity_time(self, regime):
        import time

        from abduce.engine import clear_caches

        deep = self.hyp(self.DEEP)
        clear_caches()
        start = time.perf_counter()
        assert validity(regime, self.T1, [self.MASKED], deep).valid
        assert time.perf_counter() - start < 2.0

    def test_same_values_as_shallow(self):
        deep, shallow = self.hyp(self.DEEP), self.hyp(self.SHALLOW)
        costs = {}
        for regime, world in (
            (Regime.FULL, self.COMPLETE),
            (Regime.PARTIAL, self.MASKED),
            (Regime.SKEPTICAL, self.MASKED),
        ):
            d, s = validity(regime, self.T1, [world], deep), validity(regime, self.T1, [world], shallow)
            assert (d.valid, d.per_world_valid, d.witness) == (s.valid, s.per_world_valid, s.witness)
            costs[regime] = cost(regime, self.T1, [world], deep).total
            assert costs[regime] == cost(regime, self.T1, [world], shallow).total
        assert costs == {Regime.FULL: 6, Regime.PARTIAL: 6, Regime.SKEPTICAL: 8}
