"""Score prediction files against instances and aggregate the metric suite.

A prediction line is one JSON object with exactly the keys "formula" and
"description".  Lines that fail that contract, or whose formula is not a
well-formed S-expression, classify as parse errors; formulas that parse
but break the hypothesis constraints (Ab mention, forbidden predicate,
free variable other than x) score as invalid on every training world.
Costs are reported only where validity holds; averages divide by the
respective valid counts.  classify_failure labels each record with the
first matching failure class; its two thresholds are the module constants
INFLATION_THRESHOLD (holdout minus train gap) and CATASTROPHIC_THRESHOLD
(holdout valid fraction).

Scoring of distinct predictions is independent.  score_prediction fills
one dict with every field, labels it by the rules classify_failure applies
to a finished record, and builds the ScoreRecord once from it.
Aggregation builds each report table from one grouping pass over the
completed records.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from operator import attrgetter
from typing import Mapping, Optional, Sequence

import numpy as np

from .engine import world_costs
# validity and cost stay importable from here: the benchmark's tracer
# patches them by name in this module.
from .engine import cost, validity  # noqa: F401
from .formula import (
    FormulaSyntaxError,
    Hypothesis,
    HypothesisError,
    formula_metrics,
    parse_formula,
    validate_hypothesis,
)
from .generator import InstanceRecord

# First-match-wins classification thresholds.
INFLATION_THRESHOLD = 2.0
CATASTROPHIC_THRESHOLD = 0.5

FAILURE_CLASSES = (
    "ParseError",
    "AllInvalidTrain",
    "PartialInvalidTrain",
    "Brittle",
    "ParsimonyInflation",
    "Success",
)

AST_BINS = ((0, 15), (15, 30), (30, None))


@dataclass(frozen=True)
class Prediction:
    instance_id: str
    model_id: str
    formula_text: Optional[str]
    description: str = ""
    parse_error: Optional[str] = None


@dataclass(frozen=True)
class ScoreRecord:
    instance_id: str
    model_id: str
    scenario: str
    theory_id: str
    parse_ok: bool
    parse_error: Optional[str] = None
    scope_error: Optional[str] = None
    formula_text: Optional[str] = None
    ast_size: Optional[int] = None
    quantifier_depth: Optional[int] = None
    train_world_valid: tuple[bool, ...] = ()
    train_valid: bool = False
    train_cost: Optional[int] = None
    train_opt: Optional[int] = None
    train_gap: Optional[float] = None
    gold_cost: Optional[int] = None
    gold_ast: Optional[int] = None
    gap_gold: Optional[float] = None
    beats_gold: bool = False
    gold_margin: Optional[int] = None
    holdout_available: bool = False
    holdout_world_valid: tuple[bool, ...] = ()
    holdout_valid: Optional[bool] = None
    holdout_valid_fraction: Optional[float] = None
    holdout_cost: Optional[int] = None
    holdout_opt: Optional[int] = None
    holdout_gap: Optional[float] = None
    survivor: bool = False
    delta_gap: Optional[float] = None
    failure_class: str = "ParseError"
    catastrophic: bool = False


# Every ScoreRecord field that has a default, with it.
_DEFAULTS = {f.name: f.default for f in fields(ScoreRecord) if f.default is not MISSING}


def parse_prediction_line(line: str, instance_id: str = "", model_id: str = "") -> Prediction:
    """Strict one-line parse: a single JSON object with exactly the keys
    formula and description.  Fences, prefixes, extra objects, an integer
    past int's digit limit or nesting past the recursion limit record a
    parse error without aborting the batch."""
    text = line.strip()
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        return Prediction(instance_id, model_id, None, parse_error=f"not a single JSON object: {reason}")
    if not isinstance(obj, dict):
        return Prediction(instance_id, model_id, None, parse_error="JSON value is not an object")
    if set(obj.keys()) != {"formula", "description"}:
        return Prediction(
            instance_id, model_id, None,
            parse_error="object keys must be exactly {formula, description}",
        )
    if not isinstance(obj["formula"], str) or not isinstance(obj["description"], str):
        return Prediction(instance_id, model_id, None, parse_error="formula and description must be strings")
    return Prediction(instance_id, model_id, obj["formula"], obj["description"])


def score_prediction(pred: Prediction, inst: InstanceRecord) -> ScoreRecord:
    """Full per-prediction evaluation against one instance.

    Uses the instance's cached OptCost and gold baselines; costs are left
    absent wherever validity fails.  _score_split scores the train worlds
    and, for a train-valid rule with holdouts, the holdout worlds; the gold
    fields stay train-only, the valid fraction and delta_gap holdout-only.
    Every outcome fills one dict of all the fields, which _failure labels
    before the one ScoreRecord is built.
    """
    theory = inst.theory
    regime = inst.regime
    n_train = len(inst.train_worlds)
    gold_train_total = sum(inst.train_gold_costs)
    rec = dict(
        _DEFAULTS,
        instance_id=inst.id,
        model_id=pred.model_id,
        scenario=inst.scenario,
        theory_id=inst.theory_id,
        gold_cost=gold_train_total,
        gold_ast=inst.gold_ast,
        holdout_available=inst.holdout_available,
        formula_text=pred.formula_text,
        parse_ok=False,
        parse_error=pred.parse_error,
    )

    alpha = None
    if pred.formula_text is not None:
        try:
            formula = parse_formula(pred.formula_text)
        except FormulaSyntaxError as exc:
            rec["parse_error"] = str(exc)
        else:
            metrics = formula_metrics(formula)
            rec.update(parse_ok=True, ast_size=metrics.ast_size, quantifier_depth=metrics.quantifier_depth,
                       train_world_valid=(False,) * n_train)
            try:
                alpha = validate_hypothesis(formula, theory.allowed, theory.forbidden)
            except HypothesisError as exc:
                # parses fine but breaks the hypothesis contract: invalid everywhere
                rec["scope_error"] = str(exc)

    if alpha is not None:
        rec["train_world_valid"], train = _score_split(regime, theory, inst.train_worlds, inst.train_opt_costs, alpha)
        rec["train_valid"] = train is not None
        if train is not None:
            margin = train[0] - gold_train_total
            rec.update(zip(("train_cost", "train_opt", "train_gap"), train),
                       gap_gold=margin / n_train, gold_margin=margin, beats_gold=margin < 0)
            if inst.holdout_available:
                hold_valid, hold = _score_split(regime, theory, inst.holdout_worlds, inst.holdout_opt_costs, alpha)
                rec.update(holdout_world_valid=hold_valid, holdout_valid=hold is not None,
                           holdout_valid_fraction=sum(hold_valid) / len(hold_valid))
                if hold is not None:
                    rec.update(zip(("holdout_cost", "holdout_opt", "holdout_gap"), hold),
                               survivor=True, delta_gap=hold[2] - rec["train_gap"])
    rec["failure_class"], rec["catastrophic"] = _failure(rec)
    return ScoreRecord(**rec)


def _score_split(regime, theory, worlds, opt_costs, alpha) -> tuple[tuple[bool, ...], Optional[tuple]]:
    """One split's per-world validity of alpha and, when alpha is valid on
    every world, its (total cost, total OptCost bound, gap per world);
    otherwise None in their place."""
    costs = world_costs(regime, theory, worlds, alpha)
    valid = tuple(c is not None for c in costs)
    if not all(valid):
        return valid, None
    total, bound = sum(costs), sum(opt_costs)
    return valid, (total, bound, (total - bound) / len(worlds))


def classify_failure(rec: ScoreRecord) -> tuple[str, bool]:
    """First matching category, in fixed order; the boolean flags the
    catastrophic sub-case of Brittle (under half the holdout worlds valid)."""
    return _failure(vars(rec))


def _failure(rec: Mapping) -> tuple[str, bool]:
    """classify_failure's rules over a mapping of every ScoreRecord field."""
    if not rec["parse_ok"]:
        return "ParseError", False
    if not any(rec["train_world_valid"]):
        return "AllInvalidTrain", False
    if not rec["train_valid"]:
        return "PartialInvalidTrain", False
    if rec["holdout_available"] and rec["holdout_valid"] is False:
        return "Brittle", rec["holdout_valid_fraction"] < CATASTROPHIC_THRESHOLD
    if rec["survivor"] and rec["delta_gap"] is not None and rec["delta_gap"] > INFLATION_THRESHOLD:
        return "ParsimonyInflation", False
    # train-valid with no holdout data stops at the train-level outcome
    return "Success", False


def score_batch(predictions: Sequence[Prediction], instances: Mapping[str, InstanceRecord]) -> list[ScoreRecord]:
    records = []
    for pred in predictions:
        inst = instances.get(pred.instance_id)
        if inst is None:
            raise KeyError(f"unknown instance_id {pred.instance_id!r}")
        records.append(score_prediction(pred, inst))
    return records


# ---------------------------------------------------------------------------
# Aggregation
#
# Each table groups the records in one pass with _groups: keys in sorted
# order, and a group exists only where some record falls into it.  The
# rows keep that key order, and each row's keys are its columns, in order.


def _groups(records, *fields) -> list[tuple]:
    """(key, records) pairs for the records grouped by the values of
    `fields`, in sorted key order; records keep their order in a group.
    The key is the field's value, or the tuple of values for several."""
    key = attrgetter(*fields)
    groups: dict = {}
    for r in records:
        groups.setdefault(key(r), []).append(r)
    return sorted(groups.items())


def _pct(part, whole) -> Optional[float]:
    return 100.0 * len(part) / len(whole) if whole else None


def _mean(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _fmt(value, digits=2):
    if value is None:
        return "---"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _train_cell(sub):
    valid = [r for r in sub if r.train_valid]
    return {
        "n": len(sub),
        "validity_pct": _pct(valid, sub),
        "gap": _mean([r.train_gap for r in valid]),
        "gap_gold": _mean([r.gap_gold for r in valid]),
    }


def _train_summary_rows(records):
    scenarios = sorted({r.scenario for r in records})
    cells = dict(_groups(records, "model_id", "scenario"))
    rows = []
    for model, mine in _groups(records, "model_id"):
        row = {"model": model}
        for scen in scenarios:
            row[scen] = _train_cell(cells.get((model, scen), []))
        parts = [row[scen] for scen in scenarios if (model, scen) in cells]
        row["overall_micro"] = _train_cell(mine)
        row["overall_macro"] = {
            "n": len(mine),
            **{k: _mean([c[k] for c in parts]) for k in ("validity_pct", "gap", "gap_gold")},
        }
        rows.append(row)
    return rows


def _theory_rows(records):
    return [
        {"theory": theory, "model": model, **{k: v for k, v in _train_cell(sub).items() if k != "gap"}}
        for (theory, model), sub in _groups(records, "theory_id", "model_id")
    ]


def _holdout_valid(sub):
    """The train-valid records of `sub`, those of them with holdouts, and
    those of these that are holdout-valid."""
    train_valid = [r for r in sub if r.train_valid]
    with_h = [r for r in train_valid if r.holdout_available]
    return train_valid, with_h, [r for r in with_h if r.holdout_valid]


def _holdout_summary_rows(records):
    rows = []
    for model, sub in _groups(records, "model_id"):
        train_valid, _, holdout_valid = _holdout_valid(sub)
        rows.append(
            {
                "model": model,
                "n": len(sub),
                "train_valid_pct": _pct(train_valid, sub),
                "holdout_valid_pct": _pct(holdout_valid, [r for r in sub if r.holdout_available]),
                "train_gap": _mean([r.train_gap for r in train_valid]),
                "holdout_gap": _mean([r.holdout_gap for r in holdout_valid]),
                "delta_gap": _mean([r.delta_gap for r in sub if r.survivor]),
                "ast": _mean([float(r.ast_size) for r in sub if r.ast_size is not None]),
            }
        )
    return rows


def _holdout_conditional_rows(records):
    rows = []
    for model, sub in _groups(records, "model_id"):
        t_val, t_and_h, h_given_t = _holdout_valid(sub)
        rows.append(
            {
                "model": model,
                "train_valid": len(t_val),
                "train_valid_with_holdout": len(t_and_h),
                "holdout_valid_given_train": len(h_given_t),
                "holdout_pct_given_train": _pct(h_given_t, t_and_h),
            }
        )
    return rows


def _complexity_rows(records):
    rows = []
    eligible = [r for r in records if r.train_valid and r.holdout_available and r.ast_size is not None]
    for (scen, model), group in _groups(eligible, "scenario", "model_id"):
        for lo, hi in AST_BINS:
            sub = [r for r in group if r.ast_size >= lo and (hi is None or r.ast_size < hi)]
            if not sub:
                continue
            rows.append(
                {
                    "scenario": scen,
                    "model": model,
                    "bin": f"[{lo},{hi if hi is not None else 'inf'})",
                    "n": len(sub),
                    "holdout_valid_pct": _pct([r for r in sub if r.holdout_valid], sub),
                    "delta_gap": _mean([r.delta_gap for r in sub if r.survivor]),
                }
            )
    return rows


def _shorter_longer_rows(records):
    """Shorter (AST < gold) vs longer (AST > gold) on problems where both
    occur; predictions whose AST equals the gold's are excluded, metrics
    are macro-averaged across problems."""
    rows = []
    eligible = [
        r for r in records
        if r.train_valid and r.holdout_available and r.ast_size is not None
        and r.gold_ast is not None and r.ast_size != r.gold_ast
    ]
    for scen, pool in _groups(eligible, "scenario") + [("overall", eligible)]:
        # problems in first-seen order, so the macro means add up in record order
        by_problem: dict[str, dict[str, list[ScoreRecord]]] = {}
        for r in pool:
            bucket = "shorter" if r.ast_size < r.gold_ast else "longer"
            by_problem.setdefault(r.instance_id, {"shorter": [], "longer": []})[bucket].append(r)
        paired = [v for v in by_problem.values() if v["shorter"] and v["longer"]]
        if not paired:
            continue
        row = {"scenario": scen, "n_problems": len(paired)}
        for bucket in ("shorter", "longer"):
            groups = [problem[bucket] for problem in paired]
            row[bucket] = {
                "holdout_valid_pct": _mean([_pct([r for r in g if r.holdout_valid], g) for g in groups]),
                "delta_gap": _mean([_mean([r.delta_gap for r in g if r.survivor]) for g in groups]),
            }
        rows.append(row)
    return rows


def _beats_gold_rows(records):
    rows = []
    for model, sub in _groups(records, "model_id"):
        valid = [r for r in sub if r.train_valid]
        beaters = [r for r in valid if r.beats_gold]
        rows.append(
            {
                "model": model,
                "beats_gold_pct": _pct(beaters, valid),
                # the gold's cost minus the rule's, per training world
                "avg_improvement": _mean([-r.gap_gold for r in beaters if r.gap_gold is not None]),
                "avg_ast": _mean([r.ast_size for r in beaters]),
                "n": len(beaters),
            }
        )
    return rows


def _gap_distribution_rows(records):
    rows = []
    # a loaded score line may leave a train-valid rule's gap null
    gaps = [r for r in records if r.train_valid and r.train_gap is not None]
    for (scen, model), sub in _groups(gaps, "scenario", "model_id"):
        arr = np.array([r.train_gap for r in sub], dtype=float)
        rows.append(
            {
                "scenario": scen,
                "model": model,
                "n": len(sub),
                "mean": float(arr.mean()),
                "median": float(np.median(arr)),
                "p90": float(np.percentile(arr, 90)),
                "max": float(arr.max()),
                "pct_gt3": 100.0 * float((arr > 3).mean()),
                "pct_gt5": 100.0 * float((arr > 5).mean()),
            }
        )
    return rows


def _failure_mode_rows(records):
    rows = []
    for scen, sub in _groups(records, "scenario"):
        counts = {cls: 0 for cls in FAILURE_CLASSES}
        for r in sub:
            counts[r.failure_class] += 1
        catastrophic = sum(1 for r in sub if r.catastrophic)
        rows.append({"scenario": scen, **counts, "BrittleCatastrophic": catastrophic, "total": len(sub)})
    return rows


def aggregate_report(records: Sequence[ScoreRecord]) -> dict:
    """Every report family, as named tables of plain rows."""
    if not records:
        raise ValueError("no score records to aggregate")
    return {
        "train_summary": _train_summary_rows(records),
        "theory_breakdown": _theory_rows(records),
        "holdout_summary": _holdout_summary_rows(records),
        "holdout_by_scenario": [
            dict(row, scenario=scen)
            for scen, sub in _groups(records, "scenario")
            for row in _holdout_summary_rows(sub)
        ],
        "holdout_conditional": _holdout_conditional_rows(records),
        "complexity_bins": _complexity_rows(records),
        "shorter_vs_longer": _shorter_longer_rows(records),
        "beats_gold": _beats_gold_rows(records),
        "gap_distribution": _gap_distribution_rows(records),
        "failure_modes": _failure_mode_rows(records),
    }


def render_table(name: str, rows: Sequence[dict]) -> str:
    """Plain-text table; nested cells flatten into dotted columns."""
    if not rows:
        return f"== {name} ==\n(no rows)\n"
    flat_rows = []
    for row in rows:
        flat = {}
        for k, v in row.items():
            if isinstance(v, dict):
                flat.update((f"{k}.{k2}", v2) for k2, v2 in v.items())
            else:
                flat[k] = v
        flat_rows.append(flat)
    cols = list(dict.fromkeys(k for flat in flat_rows for k in flat))
    table = [cols] + [[_fmt(flat.get(c)) for c in cols] for flat in flat_rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(cols))]
    lines = [f"== {name} =="] + ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in table]
    return "\n".join(lines) + "\n"


def render_report(report: dict) -> str:
    return "\n".join(render_table(name, rows) for name, rows in report.items())
