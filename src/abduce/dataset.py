"""Line-delimited dataset files and prediction-file ingestion.

A dataset file is one JSON header line followed by one JSON instance per
line.  Serialization is canonical (sorted keys, no extra whitespace,
sorted atom arrays), so loading and re-saving a dataset is byte-identical
and regeneration with equal seeds reproduces files exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Iterable, Optional, Sequence

from .formula import formula_metrics, parse_formula, render_formula, validate_hypothesis
from .generator import GenParams, InstanceRecord, audit_instance
from .scoring import Prediction
from .theory import builtin_theory
from .world import World, OBSERVABLE_PREDICATES

FORMAT_NAME = "abduce-dataset"
FORMAT_VERSION = 1


class DatasetError(ValueError):
    pass


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def world_to_json(world: World) -> dict:
    out = {"n": world.n, "true": {}, "unknown": {}}
    for p in OBSERVABLE_PREDICATES:
        for key, atoms in (("true", world.true_atoms[p]), ("unknown", world.unknown_atoms[p])):
            if all(isinstance(a, int) for a in atoms):
                vals = sorted(atoms)
            else:
                vals = sorted([list(a) for a in atoms])
            out[key][p] = vals
    return out


def world_from_json(data: dict) -> World:
    return World(int(data["n"]), data.get("true", {}), data.get("unknown", {}))


def instance_to_json(rec: InstanceRecord) -> dict:
    gold_metrics = formula_metrics(rec.gold.formula)
    return {
        "id": rec.id,
        "scenario": rec.scenario,
        "theory": rec.theory_id,
        "theory_internal": rec.internal_id,
        "gold": {
            "formula": render_formula(rec.gold.formula),
            "ast_size": gold_metrics.ast_size,
            "quantifier_depth": gold_metrics.quantifier_depth,
        },
        "train_worlds": [world_to_json(w) for w in rec.train_worlds],
        "baselines": {
            "train": {
                "opt_costs": list(rec.train_opt_costs),
                "gold_costs": list(rec.train_gold_costs),
            },
            "holdout": {
                "opt_costs": list(rec.holdout_opt_costs),
                "gold_costs": list(rec.holdout_gold_costs),
            },
        },
        "holdout_available": rec.holdout_available,
        "holdout_worlds": [world_to_json(w) for w in rec.holdout_worlds],
        "provenance": rec.provenance,
    }


def instance_from_json(data: dict) -> InstanceRecord:
    theory = builtin_theory(data["theory"])
    gold = validate_hypothesis(
        parse_formula(data["gold"]["formula"]), theory.allowed, theory.forbidden
    )
    return InstanceRecord(
        id=data["id"],
        scenario=data["scenario"],
        theory_id=data["theory"],
        internal_id=data["theory_internal"],
        train_worlds=tuple(world_from_json(w) for w in data["train_worlds"]),
        gold=gold,
        train_opt_costs=tuple(data["baselines"]["train"]["opt_costs"]),
        train_gold_costs=tuple(data["baselines"]["train"]["gold_costs"]),
        holdout_worlds=tuple(world_from_json(w) for w in data["holdout_worlds"]),
        holdout_available=bool(data["holdout_available"]),
        holdout_opt_costs=tuple(data["baselines"]["holdout"]["opt_costs"]),
        holdout_gold_costs=tuple(data["baselines"]["holdout"]["gold_costs"]),
        provenance=data.get("provenance", {}),
    )


def params_digest(params_list: Sequence[GenParams]) -> str:
    payload = _dump([{**asdict(p), "densities": p.densities.ranges} for p in params_list])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def save_dataset(
    records: Sequence[InstanceRecord],
    path: str,
    params_list: Sequence[GenParams] = (),
    global_seed: Optional[int] = None,
) -> None:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "count": len(records),
        "scenarios": sorted({r.scenario for r in records}),
        "theories": sorted({r.theory_id for r in records}),
        "global_seed": global_seed,
        "params_digest": params_digest(params_list) if params_list else None,
    }
    with open(path, "w") as fh:
        fh.write(_dump(header) + "\n")
        for rec in records:
            fh.write(_dump(instance_to_json(rec)) + "\n")


def load_dataset(path: str, check: bool = True) -> list[InstanceRecord]:
    """Load instances; with check on, every record re-validates its world
    and filter invariants (pool/cheater re-verification is `verify`'s job)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise DatasetError(f"{path}:1: bad header line: {exc}") from exc
    if not isinstance(header, dict):
        raise DatasetError(f"{path}:1: bad header line: not a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise DatasetError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise DatasetError(f"{path}: unsupported version {header.get('version')}")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = instance_from_json(json.loads(line))
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            # a missing field, a bad value, or a field of the wrong JSON type
            raise DatasetError(f"{path}:{i}: bad instance line: {exc}") from exc
        if check:
            violations = audit_instance(rec, pools=False)
            if violations:
                raise DatasetError(f"{path}:{i}: invariant violations: {violations}")
        records.append(rec)
    if header.get("count") is not None and header["count"] != len(records):
        raise DatasetError(f"{path}: header count {header['count']} != {len(records)} records")
    return records


def save_generation_log(records: Sequence[InstanceRecord], path: str) -> None:
    """Sidecar log: per instance, seeds, attempts, eliminated competitors,
    and filter outcomes."""
    with open(path, "w") as fh:
        for rec in records:
            prov = rec.provenance
            fh.write(
                _dump(
                    {
                        "id": rec.id,
                        "global_seed": prov.get("global_seed"),
                        "index": prov.get("index"),
                        "accepted_attempt": prov.get("attempt"),
                        "pool_seed": prov.get("pool_seed"),
                        "gold_template": prov.get("gold_template"),
                        "worlds": len(rec.train_worlds),
                        "cheater_margin": prov.get("cheater_margin"),
                        "elimination_log": prov.get("elimination_log"),
                        "holdout_available": rec.holdout_available,
                    }
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# Prediction files: one raw model-output line each, with a manifest mapping
# line numbers to (model_id, instance_id).


def load_predictions(predictions_path: str, manifest_path: str) -> list[Prediction]:
    from .scoring import parse_prediction_line

    with open(predictions_path) as fh:
        lines = fh.read().splitlines()
    with open(manifest_path) as fh:
        manifest = [_manifest_entry(manifest_path, i, line)
                    for i, line in enumerate(fh.read().splitlines(), start=1) if line.strip()]
    if len(manifest) != len(lines):
        raise DatasetError(
            f"manifest has {len(manifest)} entries but predictions file has {len(lines)} lines"
        )
    return [
        parse_prediction_line(line, instance_id=instance_id, model_id=model_id)
        for line, (instance_id, model_id) in zip(lines, manifest)
    ]


def _manifest_entry(path: str, lineno: int, line: str) -> tuple[str, str]:
    """(instance_id, model_id) of one manifest line; DatasetError naming the
    line when it is not a JSON object with both keys as strings."""
    try:
        meta = json.loads(line)
    except ValueError as exc:
        raise DatasetError(f"{path}:{lineno}: bad manifest line: {exc}") from exc
    if not isinstance(meta, dict):
        raise DatasetError(f"{path}:{lineno}: bad manifest line: not a JSON object")
    ids = meta.get("instance_id"), meta.get("model_id")
    if not all(isinstance(v, str) for v in ids):
        raise DatasetError(f"{path}:{lineno}: bad manifest line: instance_id and model_id must be strings")
    return ids


def save_score_records(records, path: str) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(_dump(asdict(rec)) + "\n")


def load_score_records(path: str):
    from .scoring import ScoreRecord

    out = []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if not line.strip():
                continue
            data = json.loads(line)
            for key in ("train_world_valid", "holdout_world_valid"):
                data[key] = tuple(bool(v) for v in data.get(key, ()))
            out.append(ScoreRecord(**data))
    return out
