"""Score prediction files against instances and aggregate the metric suite.

A prediction line is one JSON object with exactly the keys "formula" and
"description".  Lines that fail that contract, or whose formula is not a
well-formed S-expression, classify as parse errors; formulas that parse
but break the hypothesis constraints (Ab mention, forbidden predicate,
free variable other than x) score as invalid on every training world.
Costs are reported only where validity holds; averages divide by the
respective valid counts.

Scoring of distinct predictions is independent; aggregation is a single
fold over completed records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .engine import DEFAULT_ENUMERATION_CAP, Regime, world_costs
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


def parse_prediction_line(line: str, instance_id: str = "", model_id: str = "") -> Prediction:
    """Strict one-line parse: a single JSON object with exactly the keys
    formula and description.  Fences, prefixes, or extra objects record a
    parse error without aborting the batch."""
    text = line.strip()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return Prediction(instance_id, model_id, None, parse_error=f"not a single JSON object: {exc.msg}")
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


def score_prediction(
    pred: Prediction,
    inst: InstanceRecord,
    cap: int = DEFAULT_ENUMERATION_CAP,
    inflation_threshold: float = INFLATION_THRESHOLD,
    catastrophic_threshold: float = CATASTROPHIC_THRESHOLD,
) -> ScoreRecord:
    """Full per-prediction evaluation against one instance.

    Uses the instance's cached OptCost and gold baselines; costs are left
    absent wherever validity fails.
    """
    theory = inst.theory
    regime = inst.regime
    n_train = len(inst.train_worlds)
    gold_train_total = sum(inst.train_gold_costs)
    gold_ast = formula_metrics(inst.gold.formula).ast_size

    base = dict(
        instance_id=inst.id,
        model_id=pred.model_id,
        scenario=inst.scenario,
        theory_id=inst.theory_id,
        gold_cost=gold_train_total,
        gold_ast=gold_ast,
        holdout_available=inst.holdout_available,
    )

    if pred.formula_text is None:
        return _classify(ScoreRecord(parse_ok=False, parse_error=pred.parse_error, **base),
                         inflation_threshold, catastrophic_threshold)
    try:
        formula = parse_formula(pred.formula_text)
    except FormulaSyntaxError as exc:
        return _classify(
            ScoreRecord(parse_ok=False, parse_error=str(exc), formula_text=pred.formula_text, **base),
            inflation_threshold, catastrophic_threshold,
        )

    metrics = formula_metrics(formula)
    base.update(formula_text=pred.formula_text, ast_size=metrics.ast_size,
                quantifier_depth=metrics.quantifier_depth)
    try:
        alpha = validate_hypothesis(formula, theory.allowed, theory.forbidden)
    except HypothesisError as exc:
        # parses fine but breaks the hypothesis contract: invalid everywhere
        return _classify(
            ScoreRecord(
                parse_ok=True,
                scope_error=str(exc),
                train_world_valid=(False,) * n_train,
                train_valid=False,
                **base,
            ),
            inflation_threshold, catastrophic_threshold,
        )

    train_costs = world_costs(regime, theory, inst.train_worlds, alpha, cap=cap)
    train_valid = tuple(c is not None for c in train_costs)
    rec = dict(base, parse_ok=True, train_world_valid=train_valid, train_valid=all(train_valid))
    if all(train_valid):
        train_cost = sum(train_costs)
        train_opt = sum(inst.train_opt_costs)
        rec.update(
            train_cost=train_cost,
            train_opt=train_opt,
            train_gap=(train_cost - train_opt) / n_train,
            gap_gold=(train_cost - gold_train_total) / n_train,
            gold_margin=train_cost - gold_train_total,
            beats_gold=train_cost < gold_train_total,
        )
        if inst.holdout_available:
            hold_costs = world_costs(regime, theory, inst.holdout_worlds, alpha, cap=cap)
            hold_valid = tuple(c is not None for c in hold_costs)
            k = len(inst.holdout_worlds)
            rec.update(
                holdout_world_valid=hold_valid,
                holdout_valid=all(hold_valid),
                holdout_valid_fraction=sum(hold_valid) / k,
            )
            if all(hold_valid):
                hold_cost = sum(hold_costs)
                hold_opt = sum(inst.holdout_opt_costs)
                hold_gap = (hold_cost - hold_opt) / k
                rec.update(
                    holdout_cost=hold_cost,
                    holdout_opt=hold_opt,
                    holdout_gap=hold_gap,
                    survivor=True,
                    delta_gap=hold_gap - rec["train_gap"],
                )
    return _classify(ScoreRecord(**rec), inflation_threshold, catastrophic_threshold)


def classify_failure(
    rec: ScoreRecord,
    inflation_threshold: float = INFLATION_THRESHOLD,
    catastrophic_threshold: float = CATASTROPHIC_THRESHOLD,
) -> tuple[str, bool]:
    """First matching category, in fixed order; the boolean flags the
    catastrophic sub-case of Brittle (under half the holdout worlds valid)."""
    if not rec.parse_ok:
        return "ParseError", False
    if not any(rec.train_world_valid):
        return "AllInvalidTrain", False
    if not rec.train_valid:
        return "PartialInvalidTrain", False
    if rec.holdout_available and rec.holdout_valid is False:
        return "Brittle", rec.holdout_valid_fraction < catastrophic_threshold
    if rec.survivor and rec.delta_gap is not None and rec.delta_gap > inflation_threshold:
        return "ParsimonyInflation", False
    # train-valid with no holdout data stops at the train-level outcome
    return "Success", False


def _classify(rec: ScoreRecord, inflation_threshold, catastrophic_threshold) -> ScoreRecord:
    cls, catastrophic = classify_failure(rec, inflation_threshold, catastrophic_threshold)
    return ScoreRecord(**{**rec.__dict__, "failure_class": cls, "catastrophic": catastrophic})


def score_batch(
    predictions: Sequence[Prediction],
    instances: Mapping[str, InstanceRecord],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[ScoreRecord]:
    records = []
    for pred in predictions:
        inst = instances.get(pred.instance_id)
        if inst is None:
            raise KeyError(f"unknown instance_id {pred.instance_id!r}")
        records.append(score_prediction(pred, inst, cap=cap))
    return records


# ---------------------------------------------------------------------------
# Aggregation


def _mean(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _fmt(value, digits=2):
    if value is None:
        return "---"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _models(records):
    return sorted({r.model_id for r in records})


def _train_summary_rows(records):
    rows = []
    scenarios = sorted({r.scenario for r in records})
    for model in _models(records):
        mine = [r for r in records if r.model_id == model]
        row = {"model": model}
        overall_parts = []
        for scen in scenarios:
            sub = [r for r in mine if r.scenario == scen]
            valid = [r for r in sub if r.train_valid]
            cell = {
                "n": len(sub),
                "validity_pct": 100.0 * len(valid) / len(sub) if sub else None,
                "gap": _mean([r.train_gap for r in valid]),
                "gap_gold": _mean([r.gap_gold for r in valid]),
            }
            row[scen] = cell
            if sub:
                overall_parts.append(cell)
        valid_all = [r for r in mine if r.train_valid]
        row["overall_micro"] = {
            "n": len(mine),
            "validity_pct": 100.0 * len(valid_all) / len(mine) if mine else None,
            "gap": _mean([r.train_gap for r in valid_all]),
            "gap_gold": _mean([r.gap_gold for r in valid_all]),
        }
        row["overall_macro"] = {
            "n": len(mine),
            "validity_pct": _mean([c["validity_pct"] for c in overall_parts]),
            "gap": _mean([c["gap"] for c in overall_parts]),
            "gap_gold": _mean([c["gap_gold"] for c in overall_parts]),
        }
        rows.append(row)
    return rows


def _theory_rows(records):
    rows = []
    for theory in sorted({r.theory_id for r in records}):
        for model in _models(records):
            sub = [r for r in records if r.theory_id == theory and r.model_id == model]
            if not sub:
                continue
            valid = [r for r in sub if r.train_valid]
            rows.append(
                {
                    "theory": theory,
                    "model": model,
                    "n": len(sub),
                    "validity_pct": 100.0 * len(valid) / len(sub),
                    "gap_gold": _mean([r.gap_gold for r in valid]),
                }
            )
    return rows


def _holdout_summary_rows(records, scenario=None):
    rows = []
    for model in _models(records):
        sub = [r for r in records if r.model_id == model]
        if scenario is not None:
            sub = [r for r in sub if r.scenario == scenario]
        if not sub:
            continue
        with_h = [r for r in sub if r.holdout_available]
        train_valid = [r for r in sub if r.train_valid]
        holdout_valid = [r for r in with_h if r.train_valid and r.holdout_valid]
        survivors = [r for r in sub if r.survivor]
        rows.append(
            {
                "model": model,
                "n": len(sub),
                "train_valid_pct": 100.0 * len(train_valid) / len(sub),
                "holdout_valid_pct": 100.0 * len(holdout_valid) / len(with_h) if with_h else None,
                "train_gap": _mean([r.train_gap for r in train_valid]),
                "holdout_gap": _mean([r.holdout_gap for r in holdout_valid]),
                "delta_gap": _mean([r.delta_gap for r in survivors]),
                "ast": _mean([float(r.ast_size) for r in sub if r.ast_size is not None]),
            }
        )
    return rows


def _holdout_conditional_rows(records):
    rows = []
    for model in _models(records):
        sub = [r for r in records if r.model_id == model]
        t_val = [r for r in sub if r.train_valid]
        t_and_h = [r for r in t_val if r.holdout_available]
        h_given_t = [r for r in t_and_h if r.holdout_valid]
        rows.append(
            {
                "model": model,
                "train_valid": len(t_val),
                "train_valid_with_holdout": len(t_and_h),
                "holdout_valid_given_train": len(h_given_t),
                "holdout_pct_given_train": 100.0 * len(h_given_t) / len(t_and_h) if t_and_h else None,
            }
        )
    return rows


def _complexity_rows(records):
    rows = []
    for scen in sorted({r.scenario for r in records}):
        for model in _models(records):
            for lo, hi in AST_BINS:
                label = f"[{lo},{hi if hi is not None else 'inf'})"
                sub = [
                    r
                    for r in records
                    if r.scenario == scen
                    and r.model_id == model
                    and r.train_valid
                    and r.holdout_available
                    and r.ast_size is not None
                    and r.ast_size >= lo
                    and (hi is None or r.ast_size < hi)
                ]
                if not sub:
                    continue
                valid = [r for r in sub if r.holdout_valid]
                survivors = [r for r in sub if r.survivor]
                rows.append(
                    {
                        "scenario": scen,
                        "model": model,
                        "bin": label,
                        "n": len(sub),
                        "holdout_valid_pct": 100.0 * len(valid) / len(sub),
                        "delta_gap": _mean([r.delta_gap for r in survivors]),
                    }
                )
    return rows


def _shorter_longer_rows(records):
    """Shorter (AST < gold) vs longer (AST > gold) on problems where both
    occur; predictions whose AST equals the gold's are excluded, metrics
    are macro-averaged across problems."""
    rows = []
    scenarios = sorted({r.scenario for r in records})
    for scen in scenarios + ["overall"]:
        pool = records if scen == "overall" else [r for r in records if r.scenario == scen]
        by_problem: dict[str, dict[str, list[ScoreRecord]]] = {}
        for r in pool:
            if not (r.train_valid and r.holdout_available and r.ast_size is not None):
                continue
            if r.gold_ast is None or r.ast_size == r.gold_ast:
                continue
            bucket = "shorter" if r.ast_size < r.gold_ast else "longer"
            by_problem.setdefault(r.instance_id, {"shorter": [], "longer": []})[bucket].append(r)
        paired = {k: v for k, v in by_problem.items() if v["shorter"] and v["longer"]}
        if not paired:
            continue
        row = {"scenario": scen, "n_problems": len(paired)}
        for bucket in ("shorter", "longer"):
            vals = []
            dgaps = []
            for groups in paired.values():
                grp = groups[bucket]
                vals.append(100.0 * sum(1 for r in grp if r.holdout_valid) / len(grp))
                ds = [r.delta_gap for r in grp if r.survivor and r.delta_gap is not None]
                if ds:
                    dgaps.append(float(np.mean(ds)))
            row[bucket] = {
                "holdout_valid_pct": _mean(vals),
                "delta_gap": _mean(dgaps),
            }
        rows.append(row)
    return rows


def _beats_gold_rows(records):
    rows = []
    for model in _models(records):
        sub = [r for r in records if r.model_id == model and r.train_valid]
        beaters = [r for r in sub if r.beats_gold]
        improvements = []
        for r in beaters:
            worlds = len(r.train_world_valid)
            improvements.append((r.gold_cost - r.train_cost) / worlds)
        rows.append(
            {
                "model": model,
                "beats_gold_pct": 100.0 * len(beaters) / len(sub) if sub else None,
                "avg_improvement": _mean(improvements),
                "avg_ast": _mean([float(r.ast_size) for r in beaters]),
                "n": len(beaters),
            }
        )
    return rows


def _gap_distribution_rows(records):
    rows = []
    for scen in sorted({r.scenario for r in records}):
        for model in _models(records):
            gaps = [
                r.train_gap
                for r in records
                if r.scenario == scen and r.model_id == model and r.train_valid
            ]
            if not gaps:
                continue
            arr = np.array(gaps, dtype=float)
            rows.append(
                {
                    "scenario": scen,
                    "model": model,
                    "n": len(gaps),
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
    for scen in sorted({r.scenario for r in records}):
        sub = [r for r in records if r.scenario == scen]
        counts = {cls: 0 for cls in FAILURE_CLASSES}
        catastrophic = 0
        for r in sub:
            counts[r.failure_class] += 1
            if r.catastrophic:
                catastrophic += 1
        rows.append({"scenario": scen, **counts, "BrittleCatastrophic": catastrophic, "total": len(sub)})
    return rows


def aggregate_report(records: Sequence[ScoreRecord]) -> dict:
    """Every report family, as named tables of plain rows."""
    if not records:
        raise ValueError("no score records to aggregate")
    report = {
        "train_summary": _train_summary_rows(records),
        "theory_breakdown": _theory_rows(records),
        "holdout_summary": _holdout_summary_rows(records),
        "holdout_by_scenario": [
            dict(row, scenario=scen)
            for scen in sorted({r.scenario for r in records})
            for row in _holdout_summary_rows(records, scenario=scen)
        ],
        "holdout_conditional": _holdout_conditional_rows(records),
        "complexity_bins": _complexity_rows(records),
        "shorter_vs_longer": _shorter_longer_rows(records),
        "beats_gold": _beats_gold_rows(records),
        "gap_distribution": _gap_distribution_rows(records),
        "failure_modes": _failure_mode_rows(records),
    }
    return report


def render_table(name: str, rows: Sequence[dict]) -> str:
    """Plain-text table; nested cells flatten into dotted columns."""
    if not rows:
        return f"== {name} ==\n(no rows)\n"
    flat_rows = []
    for row in rows:
        flat = {}
        for k, v in row.items():
            if isinstance(v, dict):
                for k2, v2 in v.items():
                    flat[f"{k}.{k2}"] = v2
            else:
                flat[k] = v
        flat_rows.append(flat)
    cols = []
    for fr in flat_rows:
        for k in fr:
            if k not in cols:
                cols.append(k)
    widths = {c: len(c) for c in cols}
    rendered = []
    for fr in flat_rows:
        cells = {c: _fmt(fr.get(c)) for c in cols}
        for c in cols:
            widths[c] = max(widths[c], len(cells[c]))
        rendered.append(cells)
    lines = [f"== {name} =="]
    lines.append("  ".join(c.ljust(widths[c]) for c in cols))
    for cells in rendered:
        lines.append("  ".join(cells[c].ljust(widths[c]) for c in cols))
    return "\n".join(lines) + "\n"


def render_report(report: dict) -> str:
    return "\n".join(render_table(name, rows) for name, rows in report.items())
