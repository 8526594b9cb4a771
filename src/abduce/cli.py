"""Command-line surface: generate, verify, optcost, score, report, prompt.

Every command exits 0 only when zero errors occurred.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import oracle
from .dataset import (
    DatasetError,
    load_dataset,
    load_predictions,
    load_score_records,
    save_dataset,
    save_generation_log,
    save_score_records,
)
from .engine import Regime, cost, opt_cost, validity
from .formula import parse_formula, validate_hypothesis
from .generator import GenerationError, GenParams, audit_instance, generate_batch
from .prompts import render_prompt
from .scoring import aggregate_report, render_report, render_table, score_batch
from .theory import THEORY_IDS


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="abduce", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset with holdouts and a log sidecar")
    gen.add_argument("--scenario", required=True, choices=("full", "partial", "skeptical"))
    gen.add_argument("--theory", required=True, choices=THEORY_IDS)
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--world-budget", type=int, default=12)
    gen.add_argument("--margin", type=int, default=2)
    gen.add_argument("--holdouts", type=_non_negative, default=5)
    gen.add_argument("--world-attempts", type=int, default=200)
    gen.add_argument("--refine", action="store_true", help="enable gold refinement")
    gen.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="re-run the full filter audit on a dataset")
    ver.add_argument("--dataset", required=True)
    ver.add_argument("--oracle", action="store_true", help="also diff gold metrics against the naive oracle")
    ver.add_argument("--oracle-max-unknowns", type=int, default=10)

    opt = sub.add_parser("optcost", help="print the per-world lower-bound baseline table")
    opt.add_argument("--dataset", required=True)
    opt.add_argument("--out", help="also write the table as JSONL")

    sco = sub.add_parser("score", help="score a prediction file against a dataset")
    sco.add_argument("--dataset", required=True)
    sco.add_argument("--predictions", required=True, help="one raw model output line per prediction")
    sco.add_argument("--manifest", required=True, help="JSONL: {model_id, instance_id} per line")
    sco.add_argument("--out", required=True, help="score records JSONL")
    sco.add_argument("--oracle", action="store_true")
    sco.add_argument("--oracle-max-unknowns", type=int, default=10)

    rep = sub.add_parser("report", help="aggregate score records into the metric tables")
    rep.add_argument("--scores", required=True)
    rep.add_argument("--out", help="directory for one JSON file per table")

    pro = sub.add_parser("prompt", help="render prompt bundles for each instance")
    pro.add_argument("--dataset", required=True)
    pro.add_argument("--out", required=True, help="bundles JSONL: {id, system, user}")
    return top


def cmd_generate(args) -> int:
    params = GenParams(
        scenario=args.scenario,
        theory_id=args.theory,
        world_budget=args.world_budget,
        margin=args.margin,
        holdout_count=args.holdouts,
        global_seed=args.seed,
        world_attempts=args.world_attempts,
        refine=args.refine,
    )
    records = generate_batch(params, args.count, dataset_path=args.out)
    save_dataset(records, args.out, [params], global_seed=args.seed)
    save_generation_log(records, args.out + ".log.jsonl")
    with_holdouts = sum(r.holdout_available for r in records)
    print(
        f"wrote {len(records)} instances ({with_holdouts} with holdouts) to {args.out}; "
        f"log sidecar at {args.out}.log.jsonl"
    )
    return 0


def _oracle_gold_diff(rec, max_unknowns: int) -> tuple[list[str], int]:
    """Diff the instance's gold metrics against the naive oracle; worlds
    over the unknown cap are skipped (counted, not flagged)."""
    problems = []
    skipped = 0
    regime = rec.regime
    theory = rec.theory
    for i, world in enumerate(rec.train_worlds):
        if world.num_unknowns() > max_unknowns:
            skipped += 1
            continue
        o_valid = oracle.world_valid(regime, theory, world, rec.gold)
        e_valid = validity(regime, theory, [world], rec.gold).valid
        if o_valid != e_valid:
            problems.append(f"{rec.id}: world{i} validity engine={e_valid} oracle={o_valid}")
            continue
        if e_valid:
            e_cost = cost(regime, theory, [world], rec.gold).total
            o_cost = oracle.world_cost(regime, theory, world, rec.gold)
            if e_cost != o_cost:
                problems.append(f"{rec.id}: world{i} cost engine={e_cost} oracle={o_cost}")
        e_opt = opt_cost(regime, theory, world)
        o_opt = oracle.world_opt_cost(regime, theory, world)
        if e_opt != o_opt:
            problems.append(f"{rec.id}: world{i} opt engine={e_opt} oracle={o_opt}")
    return problems, skipped


def cmd_verify(args) -> int:
    records = load_dataset(args.dataset, check=False)
    violations = 0
    skipped_notes = 0
    for rec in records:
        errs = audit_instance(rec)
        for e in errs:
            print(f"{rec.id}: {e}")
        violations += len(errs)
        if args.oracle:
            diffs, skipped = _oracle_gold_diff(rec, args.oracle_max_unknowns)
            for d in diffs:
                print(d)
            violations += len(diffs)
            skipped_notes += skipped
    note = f" ({skipped_notes} oracle checks skipped over the unknown cap)" if skipped_notes else ""
    print(f"verified {len(records)} instances: {violations} violation(s){note}")
    return 0 if violations == 0 else 1


def cmd_optcost(args) -> int:
    records = load_dataset(args.dataset, check=False)
    rows = []
    for rec in records:
        for i, (o, g) in enumerate(zip(rec.train_opt_costs, rec.train_gold_costs)):
            rows.append(
                {"id": rec.id, "split": "train", "world": i, "opt_cost": o, "gold_cost": g}
            )
        for i, (o, g) in enumerate(zip(rec.holdout_opt_costs, rec.holdout_gold_costs)):
            rows.append(
                {"id": rec.id, "split": "holdout", "world": i, "opt_cost": o, "gold_cost": g}
            )
    print(render_table("opt_cost baselines", rows), end="")
    if args.out:
        with open(args.out, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


def cmd_score(args) -> int:
    records = load_dataset(args.dataset, check=False)
    instances = {r.id: r for r in records}
    predictions = load_predictions(args.predictions, args.manifest, known_ids=instances)
    scores = score_batch(predictions, instances)
    save_score_records(scores, args.out)
    n_parse = sum(1 for s in scores if not s.parse_ok)
    n_valid = sum(1 for s in scores if s.train_valid)
    mismatches = 0
    if args.oracle:
        for pred, score in zip(predictions, scores):
            if not score.parse_ok or score.scope_error:
                continue
            inst = instances[pred.instance_id]
            theory = inst.theory
            alpha = validate_hypothesis(
                parse_formula(score.formula_text), theory.allowed, theory.forbidden
            )
            for world, engine_ok in zip(inst.train_worlds, score.train_world_valid):
                if world.num_unknowns() > args.oracle_max_unknowns:
                    continue
                if oracle.world_valid(inst.regime, theory, world, alpha) != engine_ok:
                    print(f"{inst.id}/{score.model_id}: oracle validity mismatch")
                    mismatches += 1
    print(
        f"scored {len(scores)} predictions: {n_valid} train-valid, {n_parse} parse errors"
        + (f", {mismatches} oracle mismatches" if args.oracle else "")
    )
    return 0 if mismatches == 0 else 1


def cmd_report(args) -> int:
    records = load_score_records(args.scores)
    report = aggregate_report(records)
    print(render_report(report), end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, rows in report.items():
            with open(os.path.join(args.out, f"{name}.json"), "w") as fh:
                json.dump(rows, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return 0


def cmd_prompt(args) -> int:
    records = load_dataset(args.dataset, check=False)
    with open(args.out, "w") as fh:
        for rec in records:
            bundle = render_prompt(rec)
            fh.write(
                json.dumps(
                    {"id": rec.id, "system": bundle.system_prompt, "user": bundle.user_prompt},
                    sort_keys=True,
                )
                + "\n"
            )
    print(f"wrote {len(records)} prompt bundles to {args.out}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "verify": cmd_verify,
    "optcost": cmd_optcost,
    "score": cmd_score,
    "report": cmd_report,
    "prompt": cmd_prompt,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (DatasetError, GenerationError) as exc:
        print(f"abduce {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
