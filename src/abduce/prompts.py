"""Render benchmark instances into model-ready prompt text.

One fixed system prompt plus one user-prompt skeleton.  The skeleton holds
the text every scenario shares; a table keyed by scenario (full / partial /
skeptical) supplies each scenario's sections: title, world description,
goal, scoring, extra examples, evaluation, task and its "Important" lines.
Partial and skeptical share their observation text.  The skeleton is filled
with the instance's predicate scope, axioms and training worlds, and ends in
the one-line JSON output contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .formula import render_formula
from .generator import InstanceRecord
from .world import OBSERVABLE_PREDICATES, World

SYSTEM_PROMPT = (
    "You are an expert in first-order logic and abductive reasoning. \n"
    "Your task is to find concise formulas that explain abnormal behavior in logical systems.\n"
    "Always output valid JSON with the required fields."
)

_GRAMMAR_BLOCK = """\
You must output your formula in S-expression syntax. The grammar is:

```
alpha ::= (P x)              -- unary predicate applied to variable
    | (R x y)            -- binary predicate applied to two variables
    | (= x y)            -- equality of two variables
    | (not alpha)            -- negation
    | (and alpha_1 alpha_2 ...)    -- conjunction (2 or more arguments)
    | (or alpha_1 alpha_2 ...)     -- disjunction (2 or more arguments)
    | (forall v alpha)       -- universal quantification
    | (exists v alpha)       -- existential quantification
```
"""

_CONSTRAINTS_BLOCK = """\
**Important constraints:**
- Your formula must have exactly one free variable: x
- All other variables must be bound by quantifiers (forall or exists)
- Variable names should be: x (free), y, z, w (bound by quantifiers)
- **Do NOT mention Ab in your formula.**
- **Use ONLY the predicate symbols listed in AllowedAlphaPredicates for this instance.**
- **If your formula uses any predicate in ForbiddenAlphaPredicates, it is invalid.**
- **Do NOT use object names like a0, a1, ... inside alpha(x). Use variables only.**
- Prefer simpler formulas; aim for minimal abnormal set
- **No implication or biconditional**: Express these using other connectives:
  - "A implies B" should be written as `(or (not A) B)`
  - "A if and only if B" should be written as `(and (or (not A) B) (or (not B) A))`
"""

_EXAMPLES_BLOCK = """\
## Examples of Valid Formulas

**Note**: Examples below are syntactic illustrations; only use predicates that appear in AllowedAlphaPredicates for THIS instance.

- `(P x)` -- "x is abnormal if x satisfies P"
- `(and (P x) (not (Q x)))` -- "x is abnormal if x has P but not Q"
- `(exists y (and (R x y) (not (P y))))` -- "x is abnormal if x has an R-successor without P"
- `(not (exists y (R x y)))` -- "x is abnormal if x has no R-successors"
- `(forall y (or (not (R x y)) (Q y)))` -- "x is abnormal if all R-successors of x have Q"
"""

_OUTPUT_BLOCK = """\
---

## Output

Your output must be exactly ONE LINE containing ONLY valid JSON with exactly these keys:
- "formula": a single S-expression formula string with one free variable x
- "description": a short plain-English description (one sentence)

Do NOT include code fences, prefixes, or any other text.

Example of correct output:
{"formula":"(and (P x) (not (Q x)))","description":"Objects with P but not Q are abnormal."}
"""


@dataclass(frozen=True)
class PromptBundle:
    system_prompt: str
    user_prompt: str


def _element(i: int) -> str:
    return f"a{i}"


def _atom_set(atoms) -> str:
    items = [_element(a) if isinstance(a, int) else f"({', '.join(map(_element, a))})" for a in sorted(atoms)]
    return "{" + ", ".join(items) + "}"


def _world_block(idx: int, world: World, partial: bool) -> str:
    lines = [f"### World W{idx}"]
    lines.append("Domain: {" + ", ".join(_element(i) for i in range(world.n)) + "}")
    lines.append("")
    if partial:
        lines.append("**Known Facts** (unlisted atoms that are not Unknown are known FALSE):")
    else:
        lines.append("**Predicates** (Closed World Assumption: unlisted atoms are false):")
    for p in OBSERVABLE_PREDICATES:
        lines.append(f"- {p}: {_atom_set(world.true_atoms[p])}")
    if partial:
        lines.append("")
        lines.append("**Unknown Atoms** (truth value not observed, can be completed either way):")
        for p in OBSERVABLE_PREDICATES:
            if world.unknown_atoms[p]:
                lines.append(f"- {p}: {_atom_set(world.unknown_atoms[p])}")
    return "\n".join(lines)


def _instance_block(inst: InstanceRecord, with_description: bool) -> str:
    theory = inst.theory
    allowed = json.dumps(sorted(theory.allowed))
    forbidden = json.dumps(sorted(theory.forbidden, key=lambda p: (p != "Ab", p)))
    lines = [
        "## Problem Instance",
        "",
        "",
        f"**AllowedAlphaPredicates**: {allowed}",
        f"**ForbiddenAlphaPredicates**: {forbidden}",
        "",
        f"**Theory ID**: {inst.internal_id}",
    ]
    if with_description:
        lines.append(f"**Description**: {theory.description}")
    lines += ["", "**Axioms**:", f"1. `{render_formula(theory.axiom)}`"]
    return "\n".join(lines)


def _worlds_block(inst: InstanceRecord, partial: bool) -> str:
    blocks = [_world_block(i, w, partial) for i, w in enumerate(inst.train_worlds)]
    return "## Training Worlds\n\n" + "\n\n".join(blocks)


@dataclass(frozen=True)
class _Sections:
    """The text one scenario puts into the shared prompt skeleton."""

    title: str
    overview: str  # the world bullets of the task overview
    world: str  # what each world lists, and how to read it
    goal: str
    scoring: str
    evaluation: str
    task: str
    steps: str  # solve-method steps after the first
    insight: str
    important: str  # the scenario's own "Important" lines
    example: str = ""  # appended to the abnormality semantics
    examples: str = ""  # extra formula examples


# Partial and skeptical observation read the same worlds; they differ in
# how the completions of the unknown atoms are quantified.
_PARTIAL_OVERVIEW = """- Multiple worlds, each with a finite domain and partially observed predicate interpretations
- Some predicate facts are **unknown** (not observed)"""

_PARTIAL_WORLD = """- Known facts: predicates whose truth values have been observed
- Unknown atoms: predicates whose truth values are hidden

**Observation Rules**:
- Atoms listed under "Known Facts" with TRUE values are TRUE
- Atoms listed under "Unknown Atoms" have unknown truth values
- Any atom NOT listed as TRUE or Unknown is FALSE"""


def _completion_scoring(per_world: str, validity: str, primary: str, case: str, favor: str) -> str:
    return f"""\
## Scoring / tie-breaks (important)

- alpha(x) is a SINGLE global formula shared across all worlds.
- **Completions are per-world**: each world {per_world}.
- Primary objective: **{validity}** (for every training world, {primary}).
- Secondary objective: **Parsimony** -- for each world, we consider the {case}-case completion ({favor}) and count abnormal objects under that completion.
  Total cost is the sum of these per-world {case}-case abnormal counts."""


_SECTIONS = {
    "full": _Sections(
        title="Full Observation",
        overview="- Multiple worlds, each with a finite domain and complete predicate interpretations",
        world="""- Complete interpretations of predicates P(x), Q(x), R(x,y), S(x,y)

**Closed World Assumption**: Only the facts explicitly listed as TRUE are true. Any predicate application not listed should be assumed FALSE.""",
        example=""" For example:
- "P(x) AND NOT Ab(x) -> Q(x)" means: normally, P-objects have Q, unless they are abnormal""",
        goal="""**Your goal**: Find a formula alpha(x) such that:
1. **Validity**: When Ab(x) is defined as alpha(x), all theory axioms are satisfied in every training world
2. **Parsimony**: Among valid formulas, prefer those that minimize the number of abnormal objects""",
        scoring="""## Scoring / Tie-breaks (important)

- alpha(x) is a SINGLE global formula shared across all worlds.
- Primary objective: **Validity** (must satisfy all axioms in every training world).
- Secondary objective: **Parsimony** -- minimize the total number of abnormal objects across training worlds:
  cost = SUM_world |{ a in Domain_world : alpha(a) is TRUE }|""",
        evaluation="""1. **Validity**: Does defining Ab(x) <-> alpha(x) satisfy all theory axioms in every world?
2. **Parsimony**: How many objects are marked as abnormal? (fewer is better)
3. **Generalization**: Does the formula also work on held-out test worlds?

**Note**: A trivially true formula like `(or (P x) (not (P x)))` makes everything abnormal (valid but not parsimonious). A trivially false formula makes nothing abnormal (may violate axioms).""",
        task="Analyze the theory axioms and training worlds carefully. Find a formula alpha(x) that defines abnormality such that all axioms are satisfied.",
        steps="""2. For each world, identify which objects would violate an axiom if they were NOT abnormal
3. Look for a pattern: What property characterizes objects that MUST be abnormal?
4. Check for parsimony: Is there a simpler formula that still satisfies all axioms?
5. Formulate your hypothesis as an S-expression formula
6. **Verify**: For each world, check that defining Ab(x) <-> alpha(x) makes all axioms true""",
        insight="**Reminder**: Validity comes first. Only after you have a valid alpha(x), optimize parsimony (fewer abnormal objects), then simplify the formula.",
        important="""- Your formula must make the axioms true in ALL training worlds
- Minimize the number of abnormal objects when possible""",
    ),
    "partial": _Sections(
        title="Partial Observation",
        overview=_PARTIAL_OVERVIEW,
        world=_PARTIAL_WORLD,
        goal="""**Your goal**: Find a formula alpha(x) such that:
1. **Validity**: For each world, there EXISTS a completion of unknown atoms such that all theory axioms are satisfied when Ab(x) <-> alpha(x)
2. **Parsimony**: Among valid formulas, prefer those that minimize the number of abnormal objects in the best-case completion""",
        scoring=_completion_scoring(
            "may use a different completion of its unknown atoms",
            "Validity",
            "there exists at least one completion that makes all axioms true",
            "best",
            "most favorable",
        ),
        evaluation="""1. **Validity**: For each world, does there exist a completion of unknowns such that Ab(x) <-> alpha(x) satisfies all axioms?
2. **Parsimony**: In the best-case completion, how many objects are abnormal? (fewer is better)
3. **Generalization**: Does the formula work on held-out test worlds?

**Key insight**: Unknown atoms can be assigned TRUE or FALSE to help satisfy the axioms. Your formula should work with the known facts while allowing unknowns to be completed favorably.""",
        task="Analyze the theory axioms and training worlds carefully, keeping in mind that some facts are unknown.",
        steps="""2. For each world, note which predicate facts are known vs. unknown
3. Identify which objects would violate an axiom based on KNOWN facts alone
4. Consider how unknown atoms might be completed to satisfy axioms
5. Look for a pattern: Which objects are **forced** to be abnormal by the KNOWN facts (i.e., no completion can make them normal while keeping axioms true)?
6. Formulate your hypothesis as an S-expression formula
7. **Verify**: For each world, check that there exists some completion of unknowns such that Ab(x) <-> alpha(x) satisfies all axioms""",
        insight="""**Key insight**: Focus on patterns in the KNOWN facts: those listed to be true, or
those not listed to be true or unknown, and therefore known to be false.
Unknown atoms provide flexibility and can be completed to help satisfy axioms and reduce unnecessary abnormality -- but they cannot override known TRUE/FALSE facts.""",
        important="""- Your formula must allow axioms to be satisfied in ALL training worlds (for some completion)
- Minimize the number of abnormal objects when possible""",
    ),
    "skeptical": _Sections(
        title="Skeptical/Universal Completion",
        overview=_PARTIAL_OVERVIEW,
        world=_PARTIAL_WORLD,
        goal="""## SKEPTICAL Validity (IMPORTANT DIFFERENCE)

Unlike partial observation with existential completion, this task uses **skeptical (universal) completion**:

**Your goal**: Find a formula alpha(x) such that:
1. **Skeptical Validity**: For each world, **FOR ALL completions** of unknown atoms, the theory axioms are satisfied when Ab(x) <-> alpha(x)
2. **Parsimony**: Among valid formulas, prefer those that minimize the **WORST-CASE** number of abnormal objects

Your formula must be **robust** -- it must ensure the axioms hold regardless of how the unknown atoms are resolved.""",
        scoring=_completion_scoring(
            "considers ALL possible completions of its unknown atoms",
            "Skeptical Validity",
            "ALL completions must satisfy all axioms",
            "worst",
            "least favorable",
        ),
        examples='- `(exists y (exists z (and (R x y) (R x z) (not (= y z)))))` -- "x has at least two distinct R-successors"\n',
        evaluation="""1. **Skeptical Validity**: For each world, do ALL completions of unknowns lead to Ab(x) <-> alpha(x) satisfying all axioms?
2. **Parsimony**: In the worst-case completion, how many objects are abnormal? (fewer is better)
3. **Generalization**: Does the formula work on held-out test worlds?

**Key insight**: Your formula must be robust enough that no matter how the unknown atoms are resolved, the axioms still hold. This is more demanding than existential completion -- you cannot rely on a "helpful" assignment of unknowns.""",
        task="Analyze the theory axioms and training worlds carefully. Remember: your formula must work for ALL possible completions of unknown atoms, not just some favorable completion.",
        steps="""2. For each world, note which predicate facts are known vs. unknown
3. Identify which objects would violate an axiom in ANY completion
4. Consider the WORST-CASE completion: which objects might be forced abnormal when unknowns are resolved unfavorably?
5. Look for a pattern: Which objects must be abnormal to ensure axioms hold NO MATTER HOW unknowns are completed?
6. Formulate your hypothesis as an S-expression formula
7. **Verify**: For each world, check that for ALL completions of unknowns, Ab(x) <-> alpha(x) satisfies all axioms""",
        insight="""**Key insight**: Focus on what might go WRONG if unknowns are completed adversarially:
- An object with unknown predicates in the antecedent/consequent of a default might be forced abnormal to handle the worst case.
- You cannot assume a "helpful" completion of unknowns -- you must be prepared for the least favorable assignment.""",
        important="""- Your formula must make axioms satisfied in ALL training worlds for ALL completions
- Minimize the worst-case number of abnormal objects when possible""",
    ),
}


def _user_prompt(inst: InstanceRecord) -> str:
    s = _SECTIONS[inst.scenario]
    partial = inst.scenario != "full"
    return f"""# First-Order Logic Abduction ({s.title})

## Task Overview

You are given a **default reasoning theory** and several finite "worlds" with **{"partial" if partial else "full"} observation**:
- A set of theory axioms involving an abnormality predicate Ab(x)
{s.overview}
- Your task: find a formula alpha(x) that defines which objects are "abnormal"

Each world contains:
- A finite domain of objects (named a0, a1, a2, ...)
{s.world}

## Abnormality Semantics

The abnormality predicate Ab(x) is defined by your formula:
- **Ab(x) <-> alpha(x)**: An object a is abnormal if and only if alpha(a) evaluates to TRUE

The theory axioms use Ab(x) to express default rules with exceptions.{s.example}

{s.goal}

{s.scoring}
- Tertiary objective: **Simplicity** -- if multiple formulas have the same validity + cost, prefer smaller formulas (lower AST / fewer operators / fewer quantifiers).

## Output Format

{_GRAMMAR_BLOCK}
{_CONSTRAINTS_BLOCK}
{_EXAMPLES_BLOCK}{s.examples}
## Evaluation

Your formula will be evaluated on:
{s.evaluation}

---

{_instance_block(inst, with_description=inst.scenario == "skeptical")}

{_worlds_block(inst, partial)}

---

## Your Task

{s.task}

**Solve method (reason internally; do NOT output your reasoning):**
1. Understand the theory axioms: What do they require? When might they be violated?
{s.steps}

{s.insight}

**Important**:
{s.important}
- Do NOT mention Ab in your formula
- Use ONLY predicates from AllowedAlphaPredicates; using ForbiddenAlphaPredicates is invalid
- Do NOT use object names like a0, a1, ... inside alpha(x); use variables only

{_OUTPUT_BLOCK}"""


def render_prompt(inst: InstanceRecord) -> PromptBundle:
    """The prompt skeleton filled with the instance's scenario sections."""
    return PromptBundle(SYSTEM_PROMPT, _user_prompt(inst))
