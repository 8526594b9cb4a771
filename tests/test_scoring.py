import json

import pytest

from abduce.generator import InstanceRecord
from abduce.scoring import (
    FAILURE_CLASSES,
    Prediction,
    aggregate_report,
    classify_failure,
    parse_prediction_line,
    render_report,
    score_batch,
    score_prediction,
)
from abduce.world import World


def w(P=(), Q=(), R=(), S=(), n=5):
    return World(n, {"P": P, "Q": Q, "R": R, "S": S})


def t1_instance(iid, trains, opt, gold_costs, holdouts=(), hopt=(), hgold=(), gold=None):
    from abduce.formula import parse_hypothesis
    from abduce.theory import builtin_theory

    spec = builtin_theory("T1")
    gold = gold or "(exists y (and (R x y) (P y)))"
    return InstanceRecord(
        id=iid,
        scenario="full",
        theory_id="T1",
        train_worlds=tuple(trains),
        gold=parse_hypothesis(gold, spec.allowed, spec.forbidden),
        train_opt_costs=tuple(opt),
        train_gold_costs=tuple(gold_costs),
        holdout_worlds=tuple(holdouts),
        holdout_available=bool(holdouts),
        holdout_opt_costs=tuple(hopt),
        holdout_gold_costs=tuple(hgold),
    )


# Instance 1: one train world where a0 violates the default (R(0,1), P(1),
# not Q(0)); five holdouts varying the self-loop structure so brittleness
# is controllable.
I1 = t1_instance(
    "fix_1",
    trains=[w(P={1}, R={(0, 1), (0, 0)})],
    opt=[1],
    gold_costs=[1],
    holdouts=[
        w(P={1}, R={(0, 1), (0, 0)}),
        w(P={1}, R={(0, 1), (0, 0)}, S={(4, 4)}),
        w(P={1}, R={(0, 1)}, S={(0, 0)}),
        w(P={1}, R={(0, 1)}, S={(1, 1)}),
        w(P={1}, R={(0, 1)}),
    ],
    hopt=[1] * 5,
    hgold=[1] * 5,
)

# Instance 2: two train worlds (violations {0} and {0, 2}) plus two
# P-heavy holdouts that inflate any alpha carrying a bare (P x) disjunct.
I2 = t1_instance(
    "fix_2",
    trains=[
        w(P={1}, R={(0, 1), (0, 0)}),
        w(P={1}, R={(0, 1), (2, 1), (0, 0)}),
    ],
    opt=[1, 2],
    gold_costs=[1, 2],
    holdouts=[
        w(P={1, 2, 3, 4}, R={(0, 1)}),
        w(P={1, 2, 3, 4}, R={(0, 1)}, S={(3, 3)}),
    ],
    hopt=[1, 1],
    hgold=[1, 1],
)

INSTANCES = {"fix_1": I1, "fix_2": I2}

GOLD = "(exists y (and (R x y) (P y)))"

FIXTURE = [
    # (model, instance, line, expected class, expected catastrophic)
    ("mA", "fix_1", json.dumps({"formula": GOLD, "description": "gold"}), "Success", False),
    ("mB", "fix_1", '```json {"formula": "(P x)"}```', "ParseError", False),
    ("mC", "fix_1", json.dumps({"formula": "(S x x)", "description": "empty"}), "AllInvalidTrain", False),
    ("mD", "fix_1", json.dumps({"formula": f"(or {GOLD} (S x x))", "description": "or self-loop"}), "Success", False),
    ("mE", "fix_1", json.dumps({"formula": "(R x x)", "description": "self loop"}), "Brittle", True),
    ("mF", "fix_1", json.dumps({"formula": "(or (R x x) (S x x))", "description": "loops"}), "Brittle", False),
    ("mG", "fix_2", json.dumps({"formula": "(R x x)", "description": "self loop"}), "PartialInvalidTrain", False),
    ("mH", "fix_2", json.dumps({"formula": f"(or {GOLD} (P x))", "description": "padded"}), "ParsimonyInflation", False),
    ("mI", "fix_2", json.dumps({"formula": GOLD, "description": "gold"}), "Success", False),
]


def fixture_records():
    preds = [
        parse_prediction_line(line, instance_id=iid, model_id=model)
        for model, iid, line, _, _ in FIXTURE
    ]
    return score_batch(preds, INSTANCES)


class TestParsePrediction:
    def test_valid_line(self):
        p = parse_prediction_line('{"formula":"(P x)","description":"d"}')
        assert p.formula_text == "(P x)" and p.parse_error is None

    def test_code_fence(self):
        p = parse_prediction_line('```json {"formula":"(P x)","description":"d"}```')
        assert p.formula_text is None and p.parse_error

    def test_two_objects(self):
        p = parse_prediction_line('{"formula":"(P x)","description":"d"} {"formula":"(Q x)","description":"d"}')
        assert p.formula_text is None

    def test_missing_key(self):
        p = parse_prediction_line('{"formula":"(P x)"}')
        assert p.parse_error and "exactly" in p.parse_error

    def test_extra_key(self):
        p = parse_prediction_line('{"formula":"(P x)","description":"d","note":"x"}')
        assert p.formula_text is None

    def test_non_object(self):
        assert parse_prediction_line('["(P x)"]').formula_text is None


class TestScorePrediction:
    def test_scope_violation_scores_invalid(self):
        p = Prediction("fix_1", "m", "(Q x)")
        rec = score_prediction(p, I1)
        assert rec.parse_ok and rec.scope_error
        assert rec.failure_class == "AllInvalidTrain"
        assert rec.train_cost is None

    def test_free_variable_violation_scores_invalid(self):
        rec = score_prediction(Prediction("fix_1", "m", "(P y)"), I1)
        assert rec.parse_ok and rec.scope_error and not rec.train_valid

    def test_malformed_sexpr_is_parse_error(self):
        rec = score_prediction(Prediction("fix_1", "m", "(and (P x))"), I1)
        assert not rec.parse_ok and rec.failure_class == "ParseError"

    def test_unknown_instance(self):
        with pytest.raises(KeyError):
            score_batch([Prediction("nope", "m", "(P x)")], INSTANCES)

    def test_gold_scores_clean(self):
        rec = score_prediction(Prediction("fix_1", "mA", GOLD), I1)
        assert rec.train_valid and rec.train_cost == 1 and rec.train_gap == 0.0
        assert rec.holdout_valid and rec.holdout_cost == 5 and rec.holdout_gap == 0.0
        assert rec.survivor and rec.delta_gap == 0.0
        assert not rec.beats_gold and rec.gold_margin == 0

    def test_inflation_numbers(self):
        rec = score_prediction(Prediction("fix_2", "mH", f"(or {GOLD} (P x))"), I2)
        # train: {0,1} and {0,1,2} -> 5 total; opt 3 -> gap 1.0/world
        assert rec.train_cost == 5 and rec.train_gap == pytest.approx(1.0)
        # holdout: {0,1,2,3,4} twice -> 10; opt 2 -> gap 4.0/world
        assert rec.holdout_cost == 10 and rec.holdout_gap == pytest.approx(4.0)
        assert rec.delta_gap == pytest.approx(3.0)
        assert rec.failure_class == "ParsimonyInflation"


class TestClassification:
    def test_fixture_classes(self):
        records = fixture_records()
        for (model, iid, _, expected, expected_cat), rec in zip(FIXTURE, records):
            assert rec.failure_class == expected, (model, rec.failure_class)
            assert rec.catastrophic == expected_cat, model

    def test_catastrophic_threshold(self):
        records = {r.model_id: r for r in fixture_records()}
        assert records["mE"].holdout_valid_fraction == pytest.approx(0.4)
        assert records["mF"].holdout_valid_fraction == pytest.approx(0.6)

    def test_partition(self):
        records = fixture_records()
        counts = {cls: 0 for cls in FAILURE_CLASSES}
        for r in records:
            counts[r.failure_class] += 1
        assert sum(counts.values()) == len(records) == len(FIXTURE)
        assert counts == {
            "ParseError": 1,
            "AllInvalidTrain": 1,
            "PartialInvalidTrain": 1,
            "Brittle": 2,
            "ParsimonyInflation": 1,
            "Success": 3,
        }

    def test_no_holdout_stops_at_train_level(self):
        bare = t1_instance("nh", [w(P={1}, R={(0, 1)})], [1], [1])
        rec = score_prediction(Prediction("nh", "m", GOLD), bare)
        assert rec.train_valid and not rec.holdout_available
        assert rec.failure_class == "Success" and not rec.survivor


class TestAggregates:
    def test_conditional_validity_identity(self):
        report = aggregate_report(fixture_records())
        rows = {r["model"]: r for r in report["holdout_conditional"]}
        assert rows["mA"] == {
            "model": "mA",
            "train_valid": 1,
            "train_valid_with_holdout": 1,
            "holdout_valid_given_train": 1,
            "holdout_pct_given_train": 100.0,
        }
        assert rows["mE"]["holdout_valid_given_train"] == 0
        assert rows["mE"]["holdout_pct_given_train"] == 0.0
        for row in rows.values():
            assert row["holdout_valid_given_train"] <= row["train_valid"]

    def test_survivor_delta_gap(self):
        report = aggregate_report(fixture_records())
        rows = {r["model"]: r for r in report["holdout_summary"]}
        assert rows["mH"]["delta_gap"] == pytest.approx(3.0)
        assert rows["mA"]["delta_gap"] == pytest.approx(0.0)
        assert rows["mD"]["delta_gap"] == pytest.approx(0.4)
        assert rows["mE"]["delta_gap"] is None

    def test_failure_mode_table(self):
        report = aggregate_report(fixture_records())
        row = report["failure_modes"][0]
        assert row["scenario"] == "full"
        assert row["Brittle"] == 2 and row["BrittleCatastrophic"] == 1
        assert row["total"] == len(FIXTURE)

    def test_ast_bins(self):
        report = aggregate_report(fixture_records())
        cells = {
            (r["model"], r["bin"]): r
            for r in report["complexity_bins"]
            if r["scenario"] == "full"
        }
        # mE: AST 3 in [0,15), train-valid, holdout invalid
        assert cells[("mE", "[0,15)")]["holdout_valid_pct"] == 0.0
        # mA: AST 8 in [0,15), survivor with delta 0
        assert cells[("mA", "[0,15)")]["holdout_valid_pct"] == 100.0
        assert cells[("mA", "[0,15)")]["delta_gap"] == pytest.approx(0.0)

    def test_shorter_vs_longer_hand_values(self):
        report = aggregate_report(fixture_records())
        rows = {r["scenario"]: r for r in report["shorter_vs_longer"]}
        # only fix_1 has both buckets: shorter = {mE(3), mF(7)}, both holdout-
        # invalid; longer = {mD(12)}, holdout-valid with delta 0.4; gold-AST
        # predictions (mA at 8) are excluded.
        row = rows["full"]
        assert row["n_problems"] == 1
        assert row["shorter"]["holdout_valid_pct"] == pytest.approx(0.0)
        assert row["shorter"]["delta_gap"] is None
        assert row["longer"]["holdout_valid_pct"] == pytest.approx(100.0)
        assert row["longer"]["delta_gap"] == pytest.approx(0.4)
        assert rows["overall"]["n_problems"] == 1

    def test_macro_averaging_weights_problems_equally(self):
        # fix_1: three shorter predictions, all holdout-invalid (per-problem
        # shorter V% = 0); fix_2: one shorter prediction, holdout-valid
        # (per-problem shorter V% = 100).  Macro = (0 + 100) / 2 = 50, while
        # a pooled mean would be 25, so the problem weighting is visible.
        preds = [Prediction("fix_1", m, "(R x x)") for m in ("a", "b", "c")]
        preds.append(Prediction("fix_1", "d", f"(or {GOLD} (S x x))"))  # longer, valid
        preds.append(Prediction("fix_2", "e", "(exists y (R x y))"))  # shorter, valid
        preds.append(Prediction("fix_2", "f", f"(or {GOLD} (P x))"))  # longer, valid
        records = score_batch(preds, INSTANCES)
        by_model = {r.model_id: r for r in records}
        assert all(by_model[m].train_valid and not by_model[m].holdout_valid for m in "abc")
        assert by_model["e"].train_valid and by_model["e"].holdout_valid
        report = aggregate_report(records)
        row = {r["scenario"]: r for r in report["shorter_vs_longer"]}["full"]
        assert row["n_problems"] == 2
        assert row["shorter"]["holdout_valid_pct"] == pytest.approx(50.0)
        assert row["longer"]["holdout_valid_pct"] == pytest.approx(100.0)

    def test_survivor_delta_two_pass_identity(self):
        # record-wise mean of (holdout gap - train gap) over survivors must
        # equal the difference of the separately averaged gaps on that set
        records = [r for r in fixture_records() if r.survivor]
        assert records
        first_pass = sum(r.delta_gap for r in records) / len(records)
        second_pass = sum(r.holdout_gap for r in records) / len(records) - sum(
            r.train_gap for r in records
        ) / len(records)
        assert first_pass == pytest.approx(second_pass)

    def test_beats_gold_antisymmetry(self):
        for rec in fixture_records():
            if rec.gap_gold is not None and rec.gap_gold >= 0:
                assert not rec.beats_gold

    def test_gap_distribution(self):
        report = aggregate_report(fixture_records())
        rows = {r["model"]: r for r in report["gap_distribution"]}
        assert rows["mH"]["mean"] == pytest.approx(1.0)
        assert rows["mH"]["n"] == 1
        assert rows["mA"]["pct_gt3"] == 0.0

    def test_train_summary_macro_micro(self):
        report = aggregate_report(fixture_records())
        rows = {r["model"]: r for r in report["train_summary"]}
        assert rows["mC"]["full"]["validity_pct"] == 0.0
        assert rows["mA"]["overall_micro"]["gap"] == pytest.approx(0.0)

    def test_render_smoke(self):
        text = render_report(aggregate_report(fixture_records()))
        assert "train_summary" in text and "failure_modes" in text

    def test_empty_records(self):
        with pytest.raises(ValueError):
            aggregate_report([])


class TestHostileLines:
    def test_deep_nesting_scores_as_parse_error(self):
        deep = "(not " * 3000 + "(P x)" + ")" * 3000
        rec = score_prediction(Prediction("fix_1", "m", deep), I1)
        assert not rec.parse_ok and rec.failure_class == "ParseError"


class TestDeepQuantifierChains:
    """A 12-deep quantifier chain scores in bounded time in every regime and
    gets the failure class of its shallow equivalent."""

    BODY = "(and (P x) (or (R x y) (P y)))"

    @staticmethod
    def instance(scenario, world):
        from dataclasses import replace

        from abduce.engine import cost, opt_cost

        inst = t1_instance(f"deep_{scenario}", [world], [0], [0], [world], [0], [0])
        opt = (opt_cost(scenario, inst.theory, world),)
        gold = tuple(cost(scenario, inst.theory, [world], inst.gold).per_world_cost)
        return replace(inst, scenario=scenario, train_opt_costs=opt, train_gold_costs=gold,
                       holdout_opt_costs=opt, holdout_gold_costs=gold)

    @pytest.mark.parametrize("scenario", ["full", "partial", "skeptical"])
    def test_twelve_deep_chain(self, scenario):
        import time

        from abduce.engine import clear_caches

        P = set(range(6))
        R = {(i, j) for i in range(6) for j in range(11) if (i + j) % 3 == 0}
        unknown = {} if scenario == "full" else {"P": {6, 7}, "R": {(i, (2 * i + 1) % 11) for i in range(6)} - R}
        inst = self.instance(scenario, World(11, {"P": P, "R": R}, unknown))
        deep = self.BODY
        for v in reversed("yzw" * 4):
            deep = f"(exists {v} {deep})"
        clear_caches()
        start = time.perf_counter()
        rec = score_prediction(Prediction(inst.id, "m", deep), inst)
        assert time.perf_counter() - start < 1.0
        shallow = score_prediction(Prediction(inst.id, "m", f"(exists y {self.BODY})"), inst)
        assert rec.parse_ok and rec.failure_class == shallow.failure_class
        assert rec.train_cost == shallow.train_cost
