"""Command-line surface: generate, verify, optcost, score, report, prompt.

Every command exits 0 only when zero errors occurred.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields
from typing import Optional

from . import oracle
from .dataset import (
    DatasetError,
    load_dataset,
    load_predictions,
    load_score_records,
    save_dataset,
    save_generation_log,
    save_jsonl,
    save_score_records,
)
from .engine import opt_cost, world_costs
from .formula import parse_hypothesis
from .generator import GenerationError, GenParams, audit_instance, baseline_shape_problems, generate_batch
from .prompts import render_prompt
from .scoring import aggregate_report, render_report, render_table, score_batch
from .theory import SCENARIOS, THEORY_IDS, builtin_theory, check_scenario


def _int_in(minimum: int, maximum: Optional[int] = None):
    """An argparse type: an integer no smaller than `minimum` and, if
    `maximum` is given, no larger than it."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return parse


_non_negative = _int_in(0)
_positive = _int_in(1)
# Worlds the oracle may check: it enumerates at most ORACLE_MAX_UNKNOWNS.
_oracle_unknowns = _int_in(0, oracle.ORACLE_MAX_UNKNOWNS)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="abduce", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    # Each GenParams setting a flag leaves out keeps its GenParams default.
    gen = sub.add_parser("generate", help="generate a dataset with holdouts and a log sidecar",
                         argument_default=argparse.SUPPRESS)
    gen.add_argument("--scenario", required=True, choices=SCENARIOS)
    gen.add_argument("--theory", dest="theory_id", required=True, choices=THEORY_IDS)
    gen.add_argument("--count", type=_non_negative, default=10)
    gen.add_argument("--seed", dest="global_seed", metavar="SEED", type=int)
    gen.add_argument("--world-budget", type=_positive)
    gen.add_argument("--margin", type=_positive)
    gen.add_argument("--holdouts", dest="holdout_count", metavar="HOLDOUTS", type=_non_negative)
    gen.add_argument("--world-attempts", type=_positive)
    gen.add_argument("--refine", action="store_true", help="enable gold refinement")
    gen.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="re-run the full filter audit on a dataset")
    ver.add_argument("--dataset", required=True)
    ver.add_argument("--oracle", action="store_true", help="also diff gold metrics against the naive oracle")
    ver.add_argument("--oracle-max-unknowns", type=_oracle_unknowns, default=10)

    opt = sub.add_parser("optcost", help="print the per-world lower-bound baseline table")
    opt.add_argument("--dataset", required=True)
    opt.add_argument("--out", help="also write the table as JSONL")

    sco = sub.add_parser("score", help="score a prediction file against a dataset")
    sco.add_argument("--dataset", required=True)
    sco.add_argument("--predictions", required=True, help="one raw model output line per prediction")
    sco.add_argument("--manifest", required=True, help="JSONL: {model_id, instance_id} per line")
    sco.add_argument("--out", required=True, help="score records JSONL")
    sco.add_argument("--oracle", action="store_true")
    sco.add_argument("--oracle-max-unknowns", type=_oracle_unknowns, default=10)

    rep = sub.add_parser("report", help="aggregate score records into the metric tables")
    rep.add_argument("--scores", required=True)
    rep.add_argument("--out", help="directory for one JSON file per table")

    pro = sub.add_parser("prompt", help="render prompt bundles for each instance")
    pro.add_argument("--dataset", required=True)
    pro.add_argument("--out", required=True, help="bundles JSONL: {id, system, user}")
    return top


def _check_out(path: str) -> None:
    """Fail before any work when `path` cannot be opened for writing: its
    directory is missing, or it is a directory.  The error reads as the one
    open() would raise."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_generate(args) -> int:
    check_scenario(builtin_theory(args.theory_id), args.scenario, DatasetError)
    _check_out(args.out)
    params = GenParams(**{f.name: getattr(args, f.name) for f in fields(GenParams) if hasattr(args, f.name)})
    # holdout seeds hash the file name alone, however the directory is spelled
    records = generate_batch(params, args.count, dataset_path=os.path.basename(args.out))
    save_dataset(records, args.out, [params], global_seed=params.global_seed)
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
        e_cost = world_costs(regime, theory, [world], rec.gold)[0]
        e_valid = e_cost is not None
        if o_valid != e_valid:
            problems.append(f"{rec.id}: world{i} validity engine={e_valid} oracle={o_valid}")
            continue
        if e_valid:
            o_cost = oracle.world_cost(regime, theory, world, rec.gold)
            if e_cost != o_cost:
                problems.append(f"{rec.id}: world{i} cost engine={e_cost} oracle={o_cost}")
        e_opt = opt_cost(regime, theory, world)
        o_opt = oracle.world_opt_cost(regime, theory, world)
        if e_opt != o_opt:
            problems.append(f"{rec.id}: world{i} opt engine={e_opt} oracle={o_opt}")
    return problems, skipped


def _skip_note(skipped: int) -> str:
    """The summary suffix for world checks the oracle skipped over the cap."""
    return f" ({skipped} oracle checks skipped over the unknown cap)" if skipped else ""


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
    print(f"verified {len(records)} instances: {violations} violation(s){_skip_note(skipped_notes)}")
    return 0 if violations == 0 else 1


def _load_scorable(path: str) -> list:
    """The dataset's instances without the audit, but with the shape checks
    scoring and the baseline table rely on (baseline_shape_problems): a
    DatasetError names the first instance that fails them."""
    records = load_dataset(path, check=False)
    for rec in records:
        problems = baseline_shape_problems(rec)
        if problems:
            raise DatasetError(f"{path}: instance {rec.id}: " + "; ".join(problems))
    return records


def cmd_optcost(args) -> int:
    records = _load_scorable(args.dataset)
    rows = [
        {"id": rec.id, "split": split, "world": i, "opt_cost": o, "gold_cost": g}
        for rec in records
        for split, _, opts, golds in rec.splits()
        for i, (o, g) in enumerate(zip(opts, golds))
    ]
    # --out is written first, so a command that fails on it prints nothing
    if args.out:
        save_jsonl(rows, args.out)
    print(render_table("opt_cost baselines", rows), end="")
    return 0


def cmd_score(args) -> int:
    _check_out(args.out)
    records = _load_scorable(args.dataset)
    instances = {r.id: r for r in records}
    predictions = load_predictions(args.predictions, args.manifest, known_ids=instances)
    scores = score_batch(predictions, instances)
    save_score_records(scores, args.out)
    n_parse = sum(1 for s in scores if not s.parse_ok)
    n_valid = sum(1 for s in scores if s.train_valid)
    mismatches = skipped = 0
    if args.oracle:
        for pred, score in zip(predictions, scores):
            if not score.parse_ok or score.scope_error:
                continue
            inst = instances[pred.instance_id]
            theory = inst.theory
            alpha = parse_hypothesis(score.formula_text, theory.allowed, theory.forbidden)
            checks = (*zip(inst.train_worlds, score.train_world_valid),
                      *zip(inst.holdout_worlds, score.holdout_world_valid))
            for world, engine_ok in checks:
                if world.num_unknowns() > args.oracle_max_unknowns:
                    skipped += 1
                    continue
                if oracle.world_valid(inst.regime, theory, world, alpha) != engine_ok:
                    print(f"{inst.id}/{score.model_id}: oracle validity mismatch")
                    mismatches += 1
    print(
        f"scored {len(scores)} predictions: {n_valid} train-valid, {n_parse} parse errors"
        + (f", {mismatches} oracle mismatches{_skip_note(skipped)}" if args.oracle else "")
    )
    return 0 if mismatches == 0 else 1


def cmd_report(args) -> int:
    records = load_score_records(args.scores)
    if not records:
        raise DatasetError(f"{args.scores}: no score records")
    report = aggregate_report(records)
    # as in optcost, --out is written before anything is printed
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, rows in report.items():
            with open(os.path.join(args.out, f"{name}.json"), "w") as fh:
                json.dump(rows, fh, indent=2, sort_keys=True)
                fh.write("\n")
    print(render_report(report), end="")
    return 0


def cmd_prompt(args) -> int:
    records = load_dataset(args.dataset, check=False)
    prompts = map(render_prompt, records)
    save_jsonl(({"id": rec.id, "system": p.system_prompt, "user": p.user_prompt}
                for rec, p in zip(records, prompts)), args.out)
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
    except (DatasetError, GenerationError, OSError) as exc:
        print(f"abduce {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
