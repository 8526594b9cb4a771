"""Seeded inputs: the datasets the score and verify workloads start from,
and the prediction file the score workload reads.

Everything here is a pure function of the seed, so two runs with the same
seed read byte-identical files (their sha256 digests are reported).
"""

from __future__ import annotations

import hashlib
import json
from random import Random

from abduce.formula import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    Not,
    Or,
    Variable,
    render_formula,
)
from abduce.generator import (
    InstanceRecord,
    gold_mutants,
    tier1_formulas,
    tier2_formulas,
)

# Scenario x theory mix of the generate workload, one pinned global seed
# each.  The skeptical pair runs with the world budget the acceptance corpus
# uses.  The seeds are chosen so the holdout search succeeds about as often
# as it does over many seeds (out of ten seeds: full T1 4, partial T2 7,
# skeptical T4 0, skeptical T6 1): the full and partial instances get
# holdouts, the skeptical ones do not.
GENERATE_MIX = (
    ("full", "T1", {}, 1774141687),  # holdouts
    ("partial", "T2", {}, 1368756048),  # holdouts
    ("skeptical", "T4", {"world_attempts": 1500}, 20714571),  # no holdouts
    ("skeptical", "T6", {"world_attempts": 1500}, 1790208476),  # no holdouts
)

# The datasets score and verify start from: every regime, cheap theories,
# holdouts on.
DATASET_MIX = (
    ("full", "T1", {}),
    ("partial", "T2", {}),
    ("skeptical", "T6", {"world_attempts": 1500}),
)

# Per instance in the prediction file.
RANDOM_PER_DEPTH = (4, 4, 4, 3, 2)  # in-scope random formulas at quantifier depth 0..4
OUT_OF_SCOPE = 4
MALFORMED = 4
DEEP_LINES = 1
DEEP_NESTING = 3000  # past the interpreter's default recursion limit of 1000

VARS = ("x", "y", "z", "w")


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()
    return int(digest, 16) % (1 << 31)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Random in-scope formulas


def random_formula(rng: Random, allowed, depth: int):
    """A formula over `allowed` whose only free variable is x and whose
    quantifier depth is exactly `depth`.  Quantifiers are guarded by a
    binary atom from the bound variable's parent about half the time; the
    unguarded ones are what makes masked-world scoring expensive."""
    unary = sorted(p for p in allowed if p in ("P", "Q"))
    binary = sorted(p for p in allowed if p in ("R", "S"))

    def leaf(env):
        kinds = (["unary"] if unary else []) + (["binary"] if binary else [])
        if len(env) > 1:
            kinds.append("equal")
        kind = rng.choice(kinds)
        if kind == "unary":
            return Atom(rng.choice(unary), (Variable(rng.choice(env)),))
        if kind == "binary":
            return Atom(rng.choice(binary), (Variable(rng.choice(env)), Variable(rng.choice(env))))
        a, b = rng.sample(env, 2)
        return Equal(Variable(a), Variable(b))

    def build(depth, env, size):
        if depth == 0:
            if size <= 1 or rng.random() < 0.4:
                return leaf(env)
            op = rng.choice((And, Or, Not))
            if op is Not:
                return Not(build(0, env, size - 1))
            return op((build(0, env, size // 2), build(0, env, size // 2)))
        parent = env[-1]
        var = rng.choice([v for v in VARS if v != parent and v != "x"])
        inner_env = tuple(v for v in env if v != var) + (var,)
        body = build(depth - 1, inner_env, size)
        if binary and rng.random() < 0.5:
            guard = Atom(rng.choice(binary), (Variable(parent), Variable(var)))
            if rng.random() < 0.5:
                return Exists(Variable(var), And((guard, body)))
            return Forall(Variable(var), Or((Not(guard), body)))
        quant = rng.choice((Exists, Forall))
        if rng.random() < 0.5:
            body = And((leaf(inner_env), body))
        return quant(Variable(var), body)

    f = build(depth, ("x",), rng.choice((2, 3, 4)))
    # tie the formula to x when the quantifiers dropped it
    return And((Atom(unary[0], (Variable("x"),)), f)) if unary else f


# ---------------------------------------------------------------------------
# Prediction file


def _line(formula_text: str, description: str = "benchmark prediction") -> str:
    return json.dumps({"formula": formula_text, "description": description})


def _malformed(rng: Random, formula_text: str) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return "```json " + _line(formula_text) + " ```"
    if kind == 1:
        return json.dumps({"formula": formula_text})
    if kind == 2:
        return json.dumps({"formula": formula_text, "description": "x", "confidence": 0.9})
    if kind == 3:
        return _line(formula_text)[:-3]
    if kind == 4:
        return json.dumps([formula_text, "description"])
    return "Answer: " + formula_text


def prediction_lines(instances: list[InstanceRecord], seed: int) -> list[tuple[str, str, str]]:
    """(instance_id, kind, raw line) triples, shuffled per instance.

    Kinds: gold (replay of the planted rule), mutant, pool (tier-1/tier-2
    competitors), random (in-scope, quantifier depth 0-4), scope (parses,
    breaks the hypothesis contract), malformed (breaks the one-line JSON
    contract), deep (nested past the recursion limit).  The random formulas
    are pinned per instance: one costs up to 100 times another, so seeded
    ones made throughput depend on the seed more than on the program.
    """
    out = []
    for inst in instances:
        rng = Random(derive_seed("predictions", seed, inst.id))
        theory = inst.theory
        rows = [("gold", _line(render_formula(inst.gold.formula), "the planted rule"))]
        for h in gold_mutants(inst.gold, theory, rng, count=10):
            rows.append(("mutant", _line(render_formula(h.formula))))
        for h in tier1_formulas(theory) + tier2_formulas(theory):
            rows.append(("pool", _line(render_formula(h.formula))))
        pinned = Random(derive_seed("random-formulas", inst.id))
        for depth, count in enumerate(RANDOM_PER_DEPTH):
            for _ in range(count):
                rows.append(("random", _line(render_formula(random_formula(pinned, theory.allowed, depth)))))
        forbidden = sorted(theory.forbidden - {"Ab"}) or ["Ab"]
        scope_texts = [
            "(Ab x)",
            f"({forbidden[0]} x)" if forbidden[0] in ("P", "Q", "Ab") else f"({forbidden[0]} x x)",
            "(exists y (P y))",
            "(and (P x) (P y))",
        ]
        for text in scope_texts[:OUT_OF_SCOPE]:
            rows.append(("scope", _line(text)))
        for _ in range(MALFORMED):
            rows.append(("malformed", _malformed(rng, render_formula(inst.gold.formula))))
        deep = "(not " * DEEP_NESTING + "(P x)" + ")" * DEEP_NESTING
        for _ in range(DEEP_LINES):
            rows.append(("deep", _line(deep, "deeply nested")))
        rng.shuffle(rows)
        out.extend((inst.id, kind, line) for kind, line in rows)
    return out
