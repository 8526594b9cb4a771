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
All values here are immutable and all functions are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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


def memoize_hash(cls):
    """Class decorator for a frozen dataclass: compute its field hash once
    per instance and keep it.

    The memo lives in the instance ``__dict__``, outside the dataclass
    fields, so ``__eq__``, ``repr``, ``asdict`` and ``replace`` (which builds
    a new instance) are unchanged.  Pickling drops it: string hashes differ
    between processes.
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
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


class Formula:
    """Marker base class for AST nodes; each caches its hash (memoize_hash)."""

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


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        if self.pos >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input (unbalanced parentheses?)")
        return self.tokens[self.pos]

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise FormulaSyntaxError(f"expected {tok!r}, got {got!r}")

    def done(self):
        return self.pos >= len(self.tokens)


def _parse_variable(token: str) -> Variable:
    if token in VARIABLE_NAMES:
        return Variable(token)
    if _CONSTANT_RE.match(token):
        raise FormulaSyntaxError(
            f"object-constant token {token!r} in argument position; use variables only"
        )
    raise FormulaSyntaxError(f"variable token {token!r} outside {{x, y, z, w}}")


def _parse_expr(stream: _TokenStream, allow_implies: bool, depth: int = 1) -> Formula:
    if depth > MAX_NESTING:
        raise FormulaSyntaxError(f"formula nests deeper than {MAX_NESTING} levels")
    tok = stream.next()
    if tok != "(":
        raise FormulaSyntaxError(f"expected '(', got {tok!r}")
    head = stream.next()
    if head in ("(", ")"):
        raise FormulaSyntaxError(f"expected operator or predicate, got {head!r}")

    if head in PREDICATES:
        args = []
        while stream.peek() != ")":
            args.append(_parse_variable(stream.next()))
        stream.expect(")")
        return Atom(head, tuple(args))

    if head == "=":
        left = _parse_variable(stream.next())
        right = _parse_variable(stream.next())
        stream.expect(")")
        return Equal(left, right)

    if head == "not":
        child = _parse_expr(stream, allow_implies, depth + 1)
        stream.expect(")")
        return Not(child)

    if head in ("and", "or"):
        children = []
        while stream.peek() != ")":
            children.append(_parse_expr(stream, allow_implies, depth + 1))
        stream.expect(")")
        if len(children) < 2:
            raise FormulaSyntaxError(f"{head} requires at least 2 arguments, got {len(children)}")
        return And(tuple(children)) if head == "and" else Or(tuple(children))

    if head == "implies":
        if not allow_implies:
            raise FormulaSyntaxError(
                "implies is not allowed here; encode A implies B as (or (not A) B)"
            )
        lhs = _parse_expr(stream, allow_implies, depth + 1)
        rhs = _parse_expr(stream, allow_implies, depth + 1)
        stream.expect(")")
        return Implies(lhs, rhs)

    if head in ("forall", "exists"):
        var = _parse_variable(stream.next())
        body = _parse_expr(stream, allow_implies, depth + 1)
        stream.expect(")")
        return Forall(var, body) if head == "forall" else Exists(var, body)

    raise FormulaSyntaxError(f"unknown operator token {head!r}")


def parse_formula(text: str, allow_implies: bool = False) -> Formula:
    """Parse a single S-expression into a Formula AST.

    ``allow_implies`` admits the ``(implies ...)`` node used by theory axioms;
    leave it off for hypotheses, whose grammar has no implication.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty input")
    stream = _TokenStream(tokens)
    formula = _parse_expr(stream, allow_implies)
    if not stream.done():
        raise FormulaSyntaxError(f"trailing tokens after formula: {' '.join(tokens[stream.pos:])!r}")
    return formula


# ---------------------------------------------------------------------------
# Traversal: every structural walk goes through these per-type tables.  A
# value that is not a formula node fails the lookup with a KeyError.

# What a node prints before its children: operator or predicate, then the
# variables it names.  Each head token counts 1 towards the AST size.
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
_BINDERS = (Forall, Exists)


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


def formula_metrics(f: Formula) -> FormulaMetrics:
    """AST size and quantifier depth.

    Size: an atom counts 1 plus one per argument, equality counts 3, negation
    1 + child, and/or/implies 1 + sum of children, a quantifier 2 + child;
    that is, one per head token.  Depth: atoms 0, connectives take the max
    of their children, quantifiers add 1.
    """
    return FormulaMetrics(*_size_depth(f))


def _size_depth(f: Formula) -> tuple[int, int]:
    t = type(f)
    size, depth = _HEAD[t](f).count(" ") + 1, 0
    for child in _CHILDREN[t](f):
        s, d = _size_depth(child)
        size += s
        if d > depth:
            depth = d
    return size, depth + (t in _BINDERS)


def _scope_facts(f: Formula) -> tuple[set[str], set[str], bool]:
    """(predicates used, free variable names, implication present), one pass.

    Shadowed variables resolve to the innermost binder.
    """
    t = type(f)
    kids = _CHILDREN[t](f)
    if not kids:
        tokens = _HEAD[t](f).split()
        return ({tokens[0]} if t is Atom else set()), set(tokens[1:]), False
    preds, free, implies = set(), set(), t is Implies
    for child in kids:
        p, v, i = _scope_facts(child)
        preds |= p
        free |= v
        implies = implies or i
    if t in _BINDERS:
        free.discard(f.var.name)
    return preds, free, implies


def free_variables(f: Formula) -> frozenset[str]:
    """Free variable names; shadowed variables resolve to the innermost binder."""
    return frozenset(_scope_facts(f)[1])


def predicates_used(f: Formula) -> frozenset[str]:
    # a plain loop: the engine asks this on every validity and cost call
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        if type(g) is Atom:
            out.add(g.pred)
        else:
            stack.extend(_CHILDREN[type(g)](g))
    return frozenset(out)


def contains_implies(f: Formula) -> bool:
    return any(type(g) is Implies for _, g in subformulas(f))


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
    used, free, implies = _scope_facts(f)
    if implies:
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
