"""The seven built-in default theories and their hypothesis scopes.

Every theory is one default rule: forall x (antecedent(x) and not Ab(x)
implies consequent(x)).  The predicates repaired by the consequent are
forbidden in hypotheses, alongside Ab itself.  Specs are immutable
constants, freely shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import (
    And,
    Atom,
    Forall,
    Formula,
    Implies,
    Not,
    Variable,
    free_variables,
    memoize_hash,
    parse_formula,
    predicates_used,
)

SCENARIOS = ("full", "partial", "skeptical")


@memoize_hash
@dataclass(frozen=True)
class TheorySpec:
    short_id: str
    internal_id: str
    antecedent: Formula
    consequent: Formula
    allowed: frozenset[str]
    forbidden: frozenset[str]
    scenarios: frozenset[str]
    description: str = ""
    axiom: Formula = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "allowed", frozenset(self.allowed))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        object.__setattr__(self, "scenarios", frozenset(self.scenarios))
        for part, name in ((self.antecedent, "antecedent"), (self.consequent, "consequent")):
            if free_variables(part) != {"x"}:
                raise ValueError(f"{name} must have exactly the free variable x")
            if "Ab" in predicates_used(part):
                raise ValueError(f"{name} must not mention Ab")
        if self.allowed & self.forbidden:
            raise ValueError("allowed and forbidden predicate sets overlap")
        if "Ab" not in self.forbidden:
            raise ValueError("Ab must be forbidden in hypotheses")
        x = Variable("x")
        axiom = Forall(
            x,
            Implies(And((self.antecedent, Not(Atom("Ab", (x,))))), self.consequent),
        )
        object.__setattr__(self, "axiom", axiom)


def _ante(text: str) -> Formula:
    return parse_formula(text, allow_implies=True)


_BUILTINS = {
    "T1": TheorySpec(
        "T1",
        "TH2",
        _ante("(exists y (and (R x y) (P y)))"),
        _ante("(Q x)"),
        allowed={"P", "R", "S"},
        forbidden={"Ab", "Q"},
        scenarios=SCENARIOS,
        description="relational antecedent, unary consequent",
    ),
    "T2": TheorySpec(
        "T2",
        "TH7",
        _ante("(exists y (and (R x y) (P y)))"),
        _ante("(exists z (and (S x z) (Q z)))"),
        allowed={"P", "R"},
        forbidden={"Ab", "S", "Q"},
        scenarios=SCENARIOS,
        description="relational antecedent, existential consequent",
    ),
    "T3": TheorySpec(
        "T3",
        "TH10",
        _ante("(exists y (and (S x y) (P y)))"),
        _ante("(exists z (and (R x z) (Q z)))"),
        allowed={"P", "S"},
        forbidden={"Ab", "R", "Q"},
        scenarios=SCENARIOS,
        description="swapped relations: S-antecedent, R-consequent",
    ),
    "T4": TheorySpec(
        "T4",
        "TH11",
        _ante("(exists y (and (R x y) (P y)))"),
        _ante("(exists z (and (S x z) (forall w (implies (R z w) (P w)))))"),
        allowed={"P", "Q", "R"},
        forbidden={"Ab", "S"},
        scenarios=SCENARIOS,
        description="nested universal in consequent",
    ),
    "T5": TheorySpec(
        "T5",
        "TH12",
        _ante("(exists y (and (R x y) (P y)))"),
        _ante("(forall z (implies (S x z) (Q z)))"),
        allowed={"P", "R", "S"},
        forbidden={"Ab", "Q"},
        scenarios=SCENARIOS,
        description="universal consequent over S",
    ),
    "T6": TheorySpec(
        "T6",
        "TH3",
        _ante("(P x)"),
        _ante("(exists y (R x y))"),
        allowed={"P", "Q", "S"},
        forbidden={"Ab", "R"},
        scenarios={"skeptical"},
        description="unary antecedent, existential consequent",
    ),
    "T7": TheorySpec(
        "T7",
        "TH5",
        _ante("(P x)"),
        _ante("(forall y (implies (R x y) (Q y)))"),
        allowed={"P", "R", "S"},
        forbidden={"Ab", "Q"},
        scenarios={"skeptical"},
        description="unary antecedent, universal consequent",
    ),
}

THEORY_IDS = tuple(sorted(_BUILTINS))
_BY_INTERNAL = {spec.internal_id: spec for spec in _BUILTINS.values()}

# Fractions of binary atoms masked as unknown, per theory.  The partial
# scenario uses one default row; skeptical rates are theory-specific and
# smaller so that universal-completion checks stay tractable.
UNKNOWN_RATES = {
    "partial": {t: {"R": 0.20, "S": 0.10} for t in THEORY_IDS},
    "skeptical": {
        "T1": {"R": 0.05, "S": 0.08},
        "T2": {"R": 0.05, "S": 0.05},
        "T3": {"R": 0.05, "S": 0.05},
        "T4": {"R": 0.05, "S": 0.05},
        "T5": {"R": 0.05, "S": 0.05},
        "T6": {"R": 0.04, "S": 0.08},
        "T7": {"R": 0.05, "S": 0.08},
    },
    "full": {t: {} for t in THEORY_IDS},
}


def builtin_theory(theory_id: str) -> TheorySpec:
    """Look up T1..T7, or a TH-code internal id."""
    spec = _BUILTINS.get(theory_id) or _BY_INTERNAL.get(theory_id)
    if spec is None:
        raise KeyError(f"unknown theory id {theory_id!r}")
    return spec


def all_theories(scenario: str | None = None) -> list[TheorySpec]:
    specs = [_BUILTINS[t] for t in THEORY_IDS]
    if scenario is not None:
        specs = [s for s in specs if scenario in s.scenarios]
    return specs


def custom_theory(
    antecedent: str | Formula,
    consequent: str | Formula,
    allowed,
    forbidden=("Ab",),
    short_id: str = "custom",
) -> TheorySpec:
    """Build a one-rule theory from antecedent/consequent formulas.

    Experimental: custom theories are excluded from acceptance runs; the
    benchmark proper uses only the built-in constants.
    """
    if isinstance(antecedent, str):
        antecedent = parse_formula(antecedent, allow_implies=True)
    if isinstance(consequent, str):
        consequent = parse_formula(consequent, allow_implies=True)
    return TheorySpec(
        short_id,
        short_id,
        antecedent,
        consequent,
        allowed=frozenset(allowed),
        forbidden=frozenset(forbidden) | {"Ab"},
        scenarios=SCENARIOS,
        description="custom rule",
    )
