"""Default-exception abduction over finite first-order worlds.

Represent worlds and single-default theories with an abnormality predicate,
decide validity and exception costs exactly under closed-world, existential-
completion, and universal-completion semantics, generate difficulty-
controlled benchmark instances, and score prediction files.
"""

from .formula import (
    Formula,
    FormulaError,
    FormulaMetrics,
    FormulaSyntaxError,
    Hypothesis,
    HypothesisError,
    formula_metrics,
    parse_formula,
    parse_hypothesis,
    render_formula,
    validate_hypothesis,
)
from .world import (
    Completion,
    DensityRanges,
    EnumerationCapError,
    World,
    enumerate_completions,
    eval_formula,
    sample_world,
    worlds_equivalent,
)
from .theory import TheorySpec, all_theories, builtin_theory, custom_theory
from .engine import (
    CostReport,
    EngineVerdict,
    InvalidHypothesisError,
    OptReport,
    Regime,
    ScopeError,
    cost,
    gaps,
    opt_cost,
    opt_costs,
    validity,
    world_costs,
)

__version__ = "0.1.0"

__all__ = [
    "Completion",
    "CostReport",
    "DensityRanges",
    "EngineVerdict",
    "EnumerationCapError",
    "Formula",
    "FormulaError",
    "FormulaMetrics",
    "FormulaSyntaxError",
    "Hypothesis",
    "HypothesisError",
    "InvalidHypothesisError",
    "OptReport",
    "Regime",
    "ScopeError",
    "TheorySpec",
    "World",
    "all_theories",
    "builtin_theory",
    "cost",
    "custom_theory",
    "enumerate_completions",
    "eval_formula",
    "formula_metrics",
    "gaps",
    "opt_cost",
    "opt_costs",
    "parse_formula",
    "parse_hypothesis",
    "render_formula",
    "sample_world",
    "validate_hypothesis",
    "validity",
    "world_costs",
    "worlds_equivalent",
]
