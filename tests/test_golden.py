"""Golden-file tests: a pinned generated dataset, its rendered prompts, the
engine's outputs over a fixed-seed sweep, and the aggregated report.

The hashes pin generation (gold sampling, mutation order, world sampling,
holdout search) and rendering (formulas, worlds, prompt templates) byte for
byte.  A change that alters either must do so on purpose: bump
FORMAT_VERSION, regenerate, and update the hashes here.  The engine hash
pins what the oracle tests do not compare: which completion each verdict
names as its witness.  The report hash pins every table's rows, column
order and values, and their rendering.  The score hash pins every field of
the records score_prediction makes for a fixed set of prediction lines
against real instances, from the gold replay to hostile input.  The
template hash pins every gold template's output and its use of the random
generator, which the gold sampler's draws, and so every dataset, rest on.
The refine hashes pin gold refinement, which reads each accepted world's
pre-mask world, on masked worlds.
"""

import hashlib
import itertools
import json
import random
from dataclasses import asdict, replace

import pytest

from abduce import generator
from abduce.dataset import FORMAT_VERSION, save_dataset
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
    parse_formula,
    render_formula,
    validate_hypothesis,
)
from abduce.generator import (
    GOLD_TEMPLATES,
    GenParams,
    _applicable_templates,
    _try_instantiate,
    generate_batch,
    gold_mutants,
    tier1_formulas,
    tier2_formulas,
)
from abduce.prompts import render_prompt
from abduce.scoring import (
    ScoreRecord,
    aggregate_report,
    classify_failure,
    parse_prediction_line,
    render_report,
    score_prediction,
)
from abduce.theory import THEORY_IDS, builtin_theory

from conftest import random_hypothesis_formula, random_world
from test_scoring import fixture_records

GOLDEN_MIX = (("full", "T1", 2), ("partial", "T2", 2), ("skeptical", "T6", 1))
GOLDEN_SEED = 7
DATASET_SHA256 = "df5fc1df786d0058817d26bcabde47ba0b4ab9c67b6c20e716479a0f8d4fbf23"
PROMPTS_SHA256 = "65db8cc0b87aa536b4fd30e32d18ca95fd13b23119286225c31102143b7fc325"
# One full and one partial instance whose every holdout slot succeeds, so
# the holdout search and the masking of holdout worlds are pinned too.
HOLDOUT_MIX = (("full", "T1", 1774141687), ("partial", "T2", 1368756048))
HOLDOUT_SHA256 = "c2385dfa60172452c9261aaf68caed6dc83cdfb10fc65e582b4e8d5ba7b7c420"
ENGINE_SEED = 20261018
ENGINE_CASES = 300
ENGINE_SHA256 = "5e9f2b2f63e3935ceb0a69a5a5d8e938cc2c1e1b6bc1d1fa7ce98eeb65dbc2eb"
REPORT_SEEDS = (3, 11, 29)
REPORT_SHA256 = "9483f86f928452f75c7f8b46990b25a46667264c084b4c658a3fbe0580729286"
# The holdout instances plus one skeptical instance (two worlds of 18
# unknown atoms, no holdouts), so every regime is scored.
SCORE_MIX = HOLDOUT_MIX + (("skeptical", "T6", 1790208476),)
SCORE_SEED = 20261019
SCORE_SHA256 = "e2c0dd9c7500d1640570a75d8039e310488a4a8a806ec5981e56297a451907b8"
# The gold templates in library order: the gold sampler draws from lists in
# this order, so it is pinned as well.
TEMPLATE_NAMES = (
    "unary_pair", "unary_triple", "exists_witness", "no_successor", "unary_and_exists",
    "forall_successors", "self_loop", "two_hop", "exists_forall", "two_witnesses",
    "unique_witness", "negated_unary_with_exists", "guarded_deep",
)
TEMPLATE_SEEDS = 200
TEMPLATE_SHA256 = "4da9d0fac2702dc4c95f28cfe7baf0ba7612976f5476466cee373d374711a096"
# (scenario, theory, global seed, world attempts, count) -> dataset sha256 of
# refined instances with holdouts; refinement replaces the gold of partial T2
# seed 5's first instance and of skeptical T6 seed 23's only one.
REFINE_SHA256 = {
    ("partial", "T2", 5, 200, 2): "8b7892ceb1da00d9bb499afe9a33a4f1b0fee919f50cf4a54ad967193b2ce556",
    ("skeptical", "T6", 23, 1500, 1): "f4049a0b4f038ec4fa747de7588c1555e5e274f6e7698d329a91f18123c8612d",
}


def _golden(tmp_path):
    params_list = [
        GenParams(scenario=s, theory_id=t, global_seed=GOLDEN_SEED, world_attempts=1500)
        for s, t, _ in GOLDEN_MIX
    ]
    records = []
    for params, (_, _, count) in zip(params_list, GOLDEN_MIX):
        records.extend(generate_batch(params, count, dataset_path="golden.jsonl"))
    path = tmp_path / "golden.jsonl"
    save_dataset(records, str(path), params_list, global_seed=GOLDEN_SEED)
    return records, path.read_bytes()


def test_golden_dataset_and_prompts(tmp_path):
    records, data = _golden(tmp_path)
    assert FORMAT_VERSION == 1
    assert hashlib.sha256(data).hexdigest() == DATASET_SHA256
    prompts = hashlib.sha256()
    for rec in records:
        bundle = render_prompt(rec)
        prompts.update(bundle.system_prompt.encode() + b"\0" + bundle.user_prompt.encode() + b"\0")
    assert prompts.hexdigest() == PROMPTS_SHA256


def test_golden_holdout_dataset(tmp_path):
    params_list = [GenParams(scenario=s, theory_id=t, global_seed=seed) for s, t, seed in HOLDOUT_MIX]
    records = []
    for params in params_list:
        records.extend(generate_batch(params, 1, dataset_path="bench.jsonl"))
    assert all(rec.holdout_available and rec.holdout_worlds for rec in records)
    path = tmp_path / "holdouts.jsonl"
    save_dataset(records, str(path), params_list, global_seed=0)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == HOLDOUT_SHA256


@pytest.mark.parametrize("case", REFINE_SHA256)
def test_golden_refined_dataset(tmp_path, monkeypatch, case):
    scenario, theory_id, seed, attempts, count = case
    replaced = []
    refine_gold = generator.refine_gold

    def spy(accepted, seed_gold, *args):
        gold = refine_gold(accepted, seed_gold, *args)
        replaced.append(render_formula(gold.formula) != render_formula(seed_gold.formula))
        return gold

    monkeypatch.setattr(generator, "refine_gold", spy)
    params = GenParams(scenario=scenario, theory_id=theory_id, global_seed=seed, world_attempts=attempts,
                       refine=True)
    records = generate_batch(params, count, dataset_path="refined.jsonl")
    assert replaced[0] and all(rec.holdout_available for rec in records)
    path = tmp_path / "refined.jsonl"
    save_dataset(records, str(path), [params], global_seed=seed)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REFINE_SHA256[case]


def test_golden_gold_templates():
    """Every theory's applicable templates, and for every theory, template
    and seed the rendered instantiation (or None) and the generator state
    after it."""
    digest = hashlib.sha256()
    for tid in THEORY_IDS:
        theory = builtin_theory(tid)
        digest.update(json.dumps(_applicable_templates(theory)).encode())
        for name in TEMPLATE_NAMES:
            for seed in range(TEMPLATE_SEEDS):
                rng = random.Random(seed)
                hyp = _try_instantiate(name, theory, rng)
                text = render_formula(hyp.formula) if hyp is not None else None
                digest.update(json.dumps([text, rng.getstate()]).encode())
    assert digest.hexdigest() == TEMPLATE_SHA256


def test_gold_template_texts_are_canonical():
    """Each template writes the text render_formula would, over every scope
    that meets its needs: the static-pool check compares the text as it is."""
    assert tuple(GOLD_TEMPLATES) == TEMPLATE_NAMES
    scopes = lambda preds: [list(c) for k in range(len(preds) + 1) for c in itertools.combinations(preds, k)]
    for need_unary, need_binary, template in GOLD_TEMPLATES.values():
        for unary, binary in itertools.product(scopes(("P", "Q")), scopes(("R", "S"))):
            if len(unary) < need_unary or len(binary) < need_binary:
                continue
            for seed in range(50):
                text = template(random.Random(seed), unary, binary)
                assert render_formula(parse_formula(text)) == text


def _engine_sweep():
    """validity (per-world verdicts and witness), cost and both opt_cost
    variants over seeded cases: n 1-8, 1-3 worlds, up to 12 unknown atoms
    (unary ones included) outside the full regime, every theory."""
    rng = random.Random(ENGINE_SEED)
    rows = []
    for i in range(ENGINE_CASES):
        regime = ("full", "partial", "skeptical")[i % 3]
        spec = builtin_theory(rng.choice(THEORY_IDS))
        worlds = [
            random_world(rng, n_range=(1, 8), max_unknowns=0 if regime == "full" else 12)
            for _ in range(rng.randint(1, 3))
        ]
        alpha = validate_hypothesis(
            random_hypothesis_formula(rng, sorted(spec.allowed)), spec.allowed, spec.forbidden
        )
        verdict = validity(regime, spec, worlds, alpha)
        row = {"per_world": verdict.per_world_valid, "witness_world": verdict.witness_world, "witness": None}
        if verdict.witness is not None:
            order = worlds[verdict.witness_world].unknown_order()
            row["witness"] = [[p, a, verdict.witness.value(p, a)] for p, a in order]
        if verdict.valid:
            row["cost"] = cost(regime, spec, worlds, alpha).per_world_cost
        for variant in ("pointwise", "uniform"):
            row[variant] = [opt_cost(regime, spec, w, variant=variant) for w in worlds]
        rows.append(row)
    return rows


def test_golden_engine_outputs():
    rows = _engine_sweep()
    assert sum(row["witness"] is not None for row in rows) > 100
    data = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(data).hexdigest() == ENGINE_SHA256


def _synthetic_scores(seed, count=150):
    """Seeded score records over 3 scenarios, 4 theories and 5 models (m4
    never scores a skeptical instance, m2 never T6, m5 only fails to
    parse): parse errors, scope errors, partly and wholly train-invalid
    records, records without holdouts, brittle records and survivors, with
    AST sizes across every bin."""
    rng = random.Random(seed)
    gold_ast = {}
    out = []
    for _ in range(count):
        scen = rng.choice(("full", "partial", "skeptical"))
        model = rng.choice(("m1", "m2", "m3") if scen == "skeptical" else ("m1", "m2", "m3", "m4"))
        model = "m5" if rng.random() < 0.04 else model
        theory = rng.choice(("T1", "T2", "T4") if model == "m2" else ("T1", "T2", "T4", "T6"))
        iid = f"{scen}_{theory}_{rng.randrange(4)}"
        n_train = 1 + sum(map(ord, iid)) % 4
        gold_ast.setdefault(iid, rng.randint(6, 20))
        gold_cost = rng.randint(n_train, 3 * n_train)
        rec = dict(instance_id=iid, model_id=model, scenario=scen, theory_id=theory,
                   gold_cost=gold_cost, gold_ast=gold_ast[iid], holdout_available=rng.random() < 0.7)
        kind = 0.0 if model == "m5" else rng.random()
        if kind < 0.1:
            rec.update(parse_ok=False, parse_error="not a single JSON object")
        else:
            ast = rng.choice((rng.randint(1, 14), rng.randint(15, 29), rng.randint(30, 45), gold_ast[iid]))
            rec.update(parse_ok=True, formula_text="(P x)", ast_size=ast, quantifier_depth=rng.randint(0, 3))
            if kind < 0.15:
                rec.update(scope_error="forbidden predicate", train_world_valid=(False,) * n_train)
            else:
                per_world = tuple(rng.random() < 0.85 for _ in range(n_train))
                rec.update(train_world_valid=per_world, train_valid=all(per_world))
        if rec.get("train_valid"):
            train_cost = max(0, gold_cost + rng.randint(-2, 8))
            train_opt = max(0, gold_cost - rng.randint(0, 2))
            rec.update(train_cost=train_cost, train_opt=train_opt,
                       train_gap=(train_cost - train_opt) / n_train,
                       gap_gold=(train_cost - gold_cost) / n_train,
                       gold_margin=train_cost - gold_cost, beats_gold=train_cost < gold_cost)
            if rec["holdout_available"]:
                k = rng.randint(1, 5)
                hold = tuple(rng.random() < 0.8 for _ in range(k))
                rec.update(holdout_world_valid=hold, holdout_valid=all(hold),
                           holdout_valid_fraction=sum(hold) / k)
                if all(hold):
                    hold_opt = rng.randint(k, 3 * k)
                    hold_cost = hold_opt + rng.randint(0, 4 * k)
                    rec.update(holdout_cost=hold_cost, holdout_opt=hold_opt,
                               holdout_gap=(hold_cost - hold_opt) / k, survivor=True,
                               delta_gap=(hold_cost - hold_opt) / k - rec["train_gap"])
        record = ScoreRecord(**rec)
        cls, catastrophic = classify_failure(record)
        out.append(replace(record, failure_class=cls, catastrophic=catastrophic))
    return out


def test_golden_report():
    digest = hashlib.sha256()
    for records in [fixture_records()] + [_synthetic_scores(seed) for seed in REPORT_SEEDS]:
        report = aggregate_report(records)
        # no sort_keys: the hash pins each table's column order too
        digest.update(json.dumps(report).encode() + b"\0" + render_report(report).encode() + b"\0")
    assert digest.hexdigest() == REPORT_SHA256


def _score_formula(rng, allowed, depth):
    """An in-scope formula of quantifier depth exactly `depth`, tied to x by
    a unary conjunct when the theory has one."""
    unary = sorted(p for p in allowed if p in ("P", "Q"))
    binary = sorted(p for p in allowed if p in ("R", "S"))

    def leaf(env):
        kinds = ["unary"] * bool(unary) + ["binary"] * bool(binary) + ["equal"] * (len(env) > 1)
        kind = rng.choice(kinds)
        if kind == "unary":
            return Atom(rng.choice(unary), (Variable(rng.choice(env)),))
        if kind == "binary":
            return Atom(rng.choice(binary), (Variable(rng.choice(env)), Variable(rng.choice(env))))
        return Equal(*(Variable(v) for v in rng.sample(env, 2)))

    def build(depth, env):
        if depth == 0:
            kind = rng.choice(("leaf", "leaf", "not", "and", "or"))
            if kind == "leaf":
                return leaf(env)
            if kind == "not":
                return Not(leaf(env))
            return (And if kind == "and" else Or)((leaf(env), leaf(env)))
        var = rng.choice([v for v in ("y", "z", "w") if v != env[-1]])
        inner = tuple(v for v in env if v != var) + (var,)
        body = build(depth - 1, inner)
        if rng.random() < 0.5:
            body = (And if rng.random() < 0.5 else Or)((leaf(inner), body))
        return (Exists if rng.random() < 0.5 else Forall)(Variable(var), body)

    f = build(depth, ("x",))
    return And((Atom(unary[0], (Variable("x"),)), f)) if unary else f


def _score_lines(inst, rng):
    """The gold replay, up to 30 gold mutants, the tier-1 and tier-2 pools,
    the formula true of every element, eight random formulas per quantifier
    depth 0-4, scope errors, malformed lines and one line nested 3,000
    deep."""
    def line(text):
        return json.dumps({"formula": text, "description": "golden"})

    theory = inst.theory
    gold = render_formula(inst.gold.formula)
    texts = [gold]
    texts += [render_formula(h.formula) for h in gold_mutants(inst.gold, theory, rng, count=30)]
    texts += [render_formula(h.formula) for h in tier1_formulas(theory) + tier2_formulas(theory)]
    texts.append("(= x x)")
    texts += [render_formula(_score_formula(rng, theory.allowed, d)) for d in range(5) for _ in range(8)]
    forbidden = sorted(theory.forbidden - {"Ab"})
    texts += ["(Ab x)", "(exists y (P y))", "(and (P x) (P y))", "(P z)", "(implies (P x) (Q x))", "(P a1)"]
    texts += [f"({p} x)" if p in ("P", "Q") else f"({p} x x)" for p in forbidden]
    lines = [line(t) for t in texts]
    lines += [
        "```json " + line(gold) + " ```",
        json.dumps({"formula": gold}),
        json.dumps({"formula": gold, "description": "x", "confidence": 0.9}),
        line(gold)[:-3],
        json.dumps([gold, "golden"]),
        json.dumps({"formula": 3, "description": "golden"}),
        "Answer: " + gold,
        line("(P x"),
        line("(and (P x))"),
        line(""),
    ]
    lines.append(line("(not " * 3000 + "(P x)" + ")" * 3000))
    return lines


def test_golden_score_records():
    instances = []
    for s, t, seed in SCORE_MIX:
        extra = {"world_attempts": 1500} if s == "skeptical" else {}
        params = GenParams(scenario=s, theory_id=t, global_seed=seed, **extra)
        instances.extend(generate_batch(params, 1, dataset_path="bench.jsonl"))
    assert sum(inst.holdout_available for inst in instances) == 2
    rng = random.Random(SCORE_SEED)
    records = []
    for inst in instances:
        for i, line in enumerate(_score_lines(inst, rng)):
            pred = parse_prediction_line(line, inst.id, f"m{i % 3}")
            records.append(score_prediction(pred, inst))
    classes = {r.failure_class for r in records}
    assert {"ParseError", "AllInvalidTrain", "PartialInvalidTrain", "Brittle", "Success"} <= classes
    data = json.dumps([asdict(r) for r in records], sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(data).hexdigest() == SCORE_SHA256
