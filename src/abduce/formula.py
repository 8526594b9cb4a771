"""First-order formulas in the benchmark's S-expression language.

Grammar (hypotheses)::

    alpha ::= atom
            | (not alpha)
            | (and alpha alpha+)
            | (or  alpha alpha+)
            | (forall var alpha)
            | (exists var alpha)
    atom  ::= (pred var) | (pred var var) | (= var var)
    pred  ::= P | Q | R | S          (plus Ab inside theory axioms)
    var   ::= x | y | z | w

Theory axioms additionally use ``(implies lhs rhs)``; the parser accepts it
only when ``allow_implies`` is set, and hypothesis validation always rejects
it.  Parenthesised expressions nest at most MAX_NESTING deep (``(P x)`` is 1,
``(not (P x))`` is 2); deeper input is a FormulaSyntaxError, so untrusted
text can never push this module's recursive walkers, or the evaluators'
recursion over the parsed tree, into the interpreter's recursion limit.
All values here are immutable and all functions are pure; each node
memoizes its hash and its facts record (size, depth, predicates, free
variables, implication) on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

VARIABLE_NAMES = ("x", "y", "z", "w")
MAX_NESTING = 100

_CONSTANT_RE = re.compile(r"^a\d+$")


class FormulaError(ValueError):
    """Base error for this module."""


class FormulaSyntaxError(FormulaError):
    """The text is not a well-formed formula of the grammar."""


class HypothesisError(FormulaError):
    """A parsed formula violates the hypothesis (abnormality-rule) constraints."""


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self):
        if self.name not in VARIABLE_NAMES:
            raise FormulaSyntaxError(
                f"variable token {self.name!r} outside {{x, y, z, w}}"
            )

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class PredicateSymbol:
    name: str
    arity: int


PREDICATES = {
    "P": PredicateSymbol("P", 1),
    "Q": PredicateSymbol("Q", 1),
    "R": PredicateSymbol("R", 2),
    "S": PredicateSymbol("S", 2),
    "Ab": PredicateSymbol("Ab", 1),
}

BINARY_PREDICATES = ("R", "S")


_MEMOS = ("_hash", "_facts")


def memoize_hash(cls):
    """Class decorator for a frozen dataclass: compute its field hash once
    per instance and keep it.

    The memo lives in the instance ``__dict__``, outside the dataclass
    fields, so ``__eq__``, ``repr``, ``asdict`` and ``replace`` (which builds
    a new instance) are unchanged; so does a formula node's facts record.
    Pickling drops both: string hashes differ between processes, and the
    facts are rebuilt on first use.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in _MEMOS}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


class Formula:
    """Marker base class for AST nodes; each caches its hash (memoize_hash)
    and its facts record (_facts)."""

    __slots__ = ()

    def __repr__(self):
        return render_formula(self)


@memoize_hash
@dataclass(frozen=True, repr=False)
class Atom(Formula):
    pred: str
    args: tuple[Variable, ...]

    def __post_init__(self):
        sym = PREDICATES.get(self.pred)
        if sym is None:
            raise FormulaSyntaxError(f"unknown predicate {self.pred!r}")
        if len(self.args) != sym.arity:
            raise FormulaSyntaxError(
                f"{self.pred} takes {sym.arity} argument(s), got {len(self.args)}"
            )
        object.__setattr__(self, "args", tuple(self.args))


@memoize_hash
@dataclass(frozen=True, repr=False)
class Equal(Formula):
    left: Variable
    right: Variable


@memoize_hash
@dataclass(frozen=True, repr=False)
class Not(Formula):
    child: Formula


@memoize_hash
@dataclass(frozen=True, repr=False)
class And(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise FormulaSyntaxError("and requires at least 2 arguments")


@memoize_hash
@dataclass(frozen=True, repr=False)
class Or(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise FormulaSyntaxError("or requires at least 2 arguments")


@memoize_hash
@dataclass(frozen=True, repr=False)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@memoize_hash
@dataclass(frozen=True, repr=False)
class Forall(Formula):
    var: Variable
    body: Formula


@memoize_hash
@dataclass(frozen=True, repr=False)
class Exists(Formula):
    var: Variable
    body: Formula


@dataclass(frozen=True)
class FormulaMetrics:
    ast_size: int
    quantifier_depth: int


@dataclass(frozen=True)
class Hypothesis:
    """A validated abnormality rule: one free variable x, scoped predicates."""

    formula: Formula
    allowed: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "allowed", frozenset(self.allowed))


# ---------------------------------------------------------------------------
# Parsing


def _tokenize(text: str) -> list[str]:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    return tokens


_VARIABLES = {name: Variable(name) for name in VARIABLE_NAMES}


def _parse_variable(token: str) -> Variable:
    var = _VARIABLES.get(token)
    if var is not None:
        return var
    if _CONSTANT_RE.match(token):
        raise FormulaSyntaxError(
            f"object-constant token {token!r} in argument position; use variables only"
        )
    raise FormulaSyntaxError(f"variable token {token!r} outside {{x, y, z, w}}")


def _close(tokens: list[str], pos: int) -> int:
    if tokens[pos] != ")":
        raise FormulaSyntaxError(f"expected ')', got {tokens[pos]!r}")
    return pos + 1


def _parse_expr(tokens: list[str], pos: int, allow_implies: bool, depth: int = 1) -> tuple[Formula, int]:
    """The formula that starts at tokens[pos], and the position after it.
    Reading past the last token raises IndexError, which parse_formula
    reports as the end of input."""
    if depth > MAX_NESTING:
        raise FormulaSyntaxError(f"formula nests deeper than {MAX_NESTING} levels")
    tok = tokens[pos]
    if tok != "(":
        raise FormulaSyntaxError(f"expected '(', got {tok!r}")
    head = tokens[pos + 1]
    pos += 2
    if head in ("(", ")"):
        raise FormulaSyntaxError(f"expected operator or predicate, got {head!r}")

    if head in PREDICATES:
        args = []
        while tokens[pos] != ")":
            args.append(_parse_variable(tokens[pos]))
            pos += 1
        return Atom(head, tuple(args)), pos + 1

    if head == "=":
        left = _parse_variable(tokens[pos])
        right = _parse_variable(tokens[pos + 1])
        return Equal(left, right), _close(tokens, pos + 2)

    if head == "not":
        child, pos = _parse_expr(tokens, pos, allow_implies, depth + 1)
        return Not(child), _close(tokens, pos)

    if head in ("and", "or"):
        children = []
        while tokens[pos] != ")":
            child, pos = _parse_expr(tokens, pos, allow_implies, depth + 1)
            children.append(child)
        if len(children) < 2:
            raise FormulaSyntaxError(f"{head} requires at least 2 arguments, got {len(children)}")
        return (And if head == "and" else Or)(tuple(children)), pos + 1

    if head == "implies":
        if not allow_implies:
            raise FormulaSyntaxError(
                "implies is not allowed here; encode A implies B as (or (not A) B)"
            )
        lhs, pos = _parse_expr(tokens, pos, allow_implies, depth + 1)
        rhs, pos = _parse_expr(tokens, pos, allow_implies, depth + 1)
        return Implies(lhs, rhs), _close(tokens, pos)

    if head in ("forall", "exists"):
        var = _parse_variable(tokens[pos])
        body, pos = _parse_expr(tokens, pos + 1, allow_implies, depth + 1)
        return (Forall if head == "forall" else Exists)(var, body), _close(tokens, pos)

    raise FormulaSyntaxError(f"unknown operator token {head!r}")


def parse_formula(text: str, allow_implies: bool = False) -> Formula:
    """Parse a single S-expression into a Formula AST.

    ``allow_implies`` admits the ``(implies ...)`` node used by theory axioms;
    leave it off for hypotheses, whose grammar has no implication.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty input")
    try:
        formula, pos = _parse_expr(tokens, 0, allow_implies)
    except IndexError:
        raise FormulaSyntaxError("unexpected end of input (unbalanced parentheses?)") from None
    if pos < len(tokens):
        raise FormulaSyntaxError(f"trailing tokens after formula: {' '.join(tokens[pos:])!r}")
    return formula


# ---------------------------------------------------------------------------
# Traversal: every structural walk goes through these per-type tables, and
# every structural measure through the one facts record (_facts) each node
# builds from its children's.  A value that is not a formula node fails
# the lookup with a KeyError.

# What a node prints before its children: operator or predicate, then the
# variables it names.
_HEAD = {
    Atom: lambda f: " ".join([f.pred, *[v.name for v in f.args]]),
    Equal: lambda f: f"= {f.left.name} {f.right.name}",
    Not: lambda f: "not",
    And: lambda f: "and",
    Or: lambda f: "or",
    Implies: lambda f: "implies",
    Forall: lambda f: "forall " + f.var.name,
    Exists: lambda f: "exists " + f.var.name,
}
_CHILDREN = {
    Atom: lambda f: (),
    Equal: lambda f: (),
    Not: lambda f: (f.child,),
    And: lambda f: f.children,
    Or: lambda f: f.children,
    Implies: lambda f: (f.lhs, f.rhs),
    Forall: lambda f: (f.body,),
    Exists: lambda f: (f.body,),
}
_REBUILD = {
    Atom: lambda f, kids: f,
    Equal: lambda f, kids: f,
    Not: lambda f, kids: Not(*kids),
    And: lambda f, kids: And(kids),
    Or: lambda f, kids: Or(kids),
    Implies: lambda f, kids: Implies(*kids),
    Forall: lambda f, kids: Forall(f.var, *kids),
    Exists: lambda f, kids: Exists(f.var, *kids),
}


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas, left to right."""
    return _CHILDREN[type(f)](f)


def rebuild(f: Formula, kids) -> Formula:
    """A node like ``f`` (same operator, predicate and variables) over ``kids``."""
    return _REBUILD[type(f)](f, tuple(kids))


def subformulas(f: Formula, path: tuple[int, ...] = ()):
    """Pre-order ``(path, subformula)`` pairs; a path lists child indices from ``f``."""
    yield path, f
    for i, child in enumerate(children(f)):
        yield from subformulas(child, path + (i,))


# ---------------------------------------------------------------------------
# Rendering


def render_formula(f: Formula) -> str:
    """Canonical S-expression: lowercase operators, single spaces.

    ``parse_formula(render_formula(f))`` is structurally equal to ``f``.
    """
    t = type(f)
    kids = _CHILDREN[t](f)
    if not kids:
        return "(" + _HEAD[t](f) + ")"
    return "(" + _HEAD[t](f) + " " + " ".join([render_formula(c) for c in kids]) + ")"


# ---------------------------------------------------------------------------
# Measures and structural queries


# Predicates and variable names as bits, so a node's facts are a few small
# ints: a union of children is an or, a binder clears its variable's bit.
_PREDICATE_NAMES = tuple(PREDICATES)
_PRED_BIT = {p: 1 << i for i, p in enumerate(_PREDICATE_NAMES)}
_VAR_BIT = {v: 1 << i for i, v in enumerate(VARIABLE_NAMES)}


@cache
def _names(bits: int, names: tuple[str, ...]) -> frozenset[str]:
    """The names whose bits are set, names[i] at bit i.  There are 48 such
    sets, so each is made once and shared."""
    return frozenset(n for i, n in enumerate(names) if bits >> i & 1)


def _var_bits(variables) -> int:
    bits = 0
    for v in variables:
        bits |= _VAR_BIT[v.name]
    return bits


class _Facts(NamedTuple):
    size: int
    depth: int
    predicates: int  # bits of _PRED_BIT
    free: int  # bits of _VAR_BIT
    implies: bool


def _join(f, kids: list[_Facts]) -> _Facts:
    """And, Or and Implies: 1 plus the children's sizes, their deepest depth,
    the union of their predicates and free variables."""
    size, depth, preds, free, implies = 1, 0, 0, 0, type(f) is Implies
    for k in kids:
        size += k.size
        depth = max(depth, k.depth)
        preds |= k.predicates
        free |= k.free
        implies = implies or k.implies
    return _Facts(size, depth, preds, free, implies)


def _bind(f, kids: list[_Facts]) -> _Facts:
    (body,) = kids
    free = body.free & ~_VAR_BIT[f.var.name]
    return _Facts(body.size + 2, body.depth + 1, body.predicates, free, body.implies)


# Per node type, its facts from its children's, in the order _CHILDREN gives.
_FACTS = {
    Atom: lambda f, kids: _Facts(1 + len(f.args), 0, _PRED_BIT[f.pred], _var_bits(f.args), False),
    Equal: lambda f, kids: _Facts(3, 0, 0, _var_bits((f.left, f.right)), False),
    Not: lambda f, kids: _Facts(kids[0].size + 1, *kids[0][1:]),
    And: _join,
    Or: _join,
    Implies: _join,
    Forall: _bind,
    Exists: _bind,
}


def _facts(f: Formula) -> _Facts:
    """The node's facts record, built once from its children's and kept on
    the node next to its hash.  Nodes shared between formulas (a mutant and
    its gold) share their records.  A leaf's record is rebuilt instead:
    only its parent asks for it, once, and keeping it would hold memory
    for every atom of every live formula."""
    facts = getattr(f, "_facts", None)
    if facts is None:
        t = type(f)
        kids = _CHILDREN[t](f)
        facts = _FACTS[t](f, [_facts(c) for c in kids])
        if kids:
            object.__setattr__(f, "_facts", facts)
    return facts


def formula_metrics(f: Formula) -> FormulaMetrics:
    """AST size and quantifier depth.

    Size: an atom counts 1 plus one per argument, equality counts 3, negation
    1 + child, and/or/implies 1 + sum of children, a quantifier 2 + child;
    that is, one per head token.  Depth: atoms 0, connectives take the max
    of their children, quantifiers add 1.
    """
    facts = _facts(f)
    return FormulaMetrics(facts.size, facts.depth)


def free_variables(f: Formula) -> frozenset[str]:
    """Free variable names; shadowed variables resolve to the innermost binder."""
    return _names(_facts(f).free, VARIABLE_NAMES)


def predicates_used(f: Formula) -> frozenset[str]:
    # a lookup once the node's record exists: the engine asks this on every
    # world_costs call
    return _names(_facts(f).predicates, _PREDICATE_NAMES)


def contains_implies(f: Formula) -> bool:
    return _facts(f).implies


# ---------------------------------------------------------------------------
# Hypothesis validation


def validate_hypothesis(
    f: Formula,
    allowed: frozenset[str] | set[str],
    forbidden: frozenset[str] | set[str] = frozenset(),
) -> Hypothesis:
    """Check the abnormality-rule constraints and wrap the formula.

    Raises HypothesisError naming the violated rule: Ab mentioned, forbidden
    predicate used, free-variable set != {x}, or implication present.
    """
    allowed = frozenset(allowed)
    forbidden = frozenset(forbidden)
    facts = _facts(f)
    used, free = _names(facts.predicates, _PREDICATE_NAMES), _names(facts.free, VARIABLE_NAMES)
    if facts.implies:
        raise HypothesisError("implication is not allowed in a hypothesis")
    if "Ab" in used:
        raise HypothesisError("hypothesis must not mention Ab (it defines Ab)")
    bad = sorted((used & forbidden) | (used - allowed))
    if bad:
        raise HypothesisError(f"forbidden predicate(s) used: {', '.join(bad)}")
    if free != {"x"}:
        got = "{" + ", ".join(sorted(free)) + "}"
        raise HypothesisError(f"free-variable set must be exactly {{x}}, got {got}")
    return Hypothesis(f, allowed)


def parse_hypothesis(
    text: str,
    allowed: frozenset[str] | set[str],
    forbidden: frozenset[str] | set[str] = frozenset(),
) -> Hypothesis:
    """parse_formula (no implies) followed by validate_hypothesis."""
    return validate_hypothesis(parse_formula(text, allow_implies=False), allowed, forbidden)
