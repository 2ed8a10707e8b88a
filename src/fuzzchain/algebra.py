"""Max-min scalar algebra and sum-of-products transmission expressions.

The scalar domain is the closed interval [0, 1] with ``max`` playing the
role of addition and ``min`` the role of multiplication.  Neither
operation ever manufactures a new number — every result is one of the
inputs — so exact float equality is sound everywhere in this package and
no tolerance is used.

A transmission expression (:class:`FtfExpr`) is a union (max) of terms;
a term (:class:`Term`) is a concatenation (min) of atoms.  An atom is
either a plain variable (:class:`Var`) or a budget-counted call to a
named system (:class:`Call`).  Terms keep construction order and
duplicate atoms — the "raw" form — so composed expressions can be shown
exactly as they were built (``xxzw`` stays ``xxzw``).  Comparisons use
the canonical form produced by :func:`canonicalize`: atoms sorted and
deduplicated within each term, terms sorted and deduplicated within the
expression.

The empty term denotes the constant 1; the empty expression denotes the
constant 0.  Those are also the units of concatenation and union.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Callable, Mapping, Union

from .errors import BindingError, ParseError

__all__ = [
    "Var",
    "Call",
    "Atom",
    "Term",
    "FtfExpr",
    "MultinomialEntry",
    "snorm_max",
    "tnorm_min",
    "check_grade",
    "eval_expr",
    "assignment_valuation",
    "canonicalize",
    "expr_power",
    "multinomial_expand",
    "parse_count",
    "parse_expr",
    "format_expr",
    "is_identifier",
]

MAX_EXPANSION = 2**20
"""Most flat terms, nested node occurrences, trace events or chains an
output may hold, and most atoms in a power or its table;
:func:`_check_size` is its one check."""


def _check_size(count: int, what: str) -> None:
    """Refuse an output of ``count`` ``what`` past :data:`MAX_EXPANSION`:
    the one check of the bound, made before any of the output is built,
    or, for a transmission function, one chain past the bound."""
    if count > MAX_EXPANSION:
        raise ValueError(f"expansion too large: over the cap of {MAX_EXPANSION} {what}")


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def is_identifier(name: str) -> bool:
    """True when ``name`` is a bare identifier: ``[A-Za-z_][A-Za-z0-9_]*``."""
    return bool(_IDENT_RE.match(name))


def snorm_max(a: float, b: float) -> float:
    """Union of two membership grades (the s-norm): ``max``."""
    return a if a >= b else b


def tnorm_min(a: float, b: float) -> float:
    """Concatenation of two membership grades (the t-norm): ``min``."""
    return a if a <= b else b


def check_grade(value: float, what: str = "membership") -> float:
    """Validate an int or float grade in [0, 1]; return ``value + 0.0``, a float, never ``-0.0``.

    A ``bool`` is an ``int`` but not a grade, so it is refused.  An exact
    ``float``, the common case, skips the type tests.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{what} is not a number: {value!r}")
    value = value + 0.0
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{what} out of range [0, 1]: {value!r}")
    return value


_set = object.__setattr__  # how a record's __init__ fills its fields


class _Record:
    """Base of the value classes: a subclass names its fields in ``_fields``,
    in constructor order, and its ``__init__`` fills them with ``_set``.  A
    record prints as ``Class(field=value, ...)``, equals only a record of its
    own class with equal fields, hashes as its field tuple and is read-only.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), self._values()


class Var(_Record):
    """A plain variable atom."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        if not is_identifier(name):
            raise ValueError(f"invalid variable name: {name!r}")
        _set(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name


class Call(_Record):
    """A call atom: evaluate system ``target`` with declared budget ``count``.

    ``count`` is how many nested call activations the atom is allowed to
    spend, not an exponent; a count of 0 means the call can never run.
    A ``bool`` is an ``int`` but not a count, so it is refused.
    """

    __slots__ = _fields = ("target", "count")

    def __init__(self, target: str, count: int) -> None:
        if not is_identifier(target):
            raise ValueError(f"invalid call target: {target!r}")
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(f"call count must be a non-negative integer: {count!r}")
        _set(self, "target", target)
        _set(self, "count", count)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.target == other.target and self.count == other.count
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.target, self.count))

    def __str__(self) -> str:
        return f"{self.target}^{self.count}"


Atom = Union[Var, Call]


def _atom_key(atom: Atom) -> tuple:
    # Variables sort before calls; within a kind, by name then count.
    if isinstance(atom, Var):
        return (0, atom.name, 0)
    return (1, atom.target, atom.count)


class Term(_Record):
    """A concatenation (min) of atoms, in construction order.

    Duplicates are preserved; ``canonical()`` sorts and deduplicates.
    The empty term is the constant 1.
    """

    __slots__ = _fields = ("atoms",)

    def __init__(self, atoms: tuple[Atom, ...] = ()) -> None:
        _set(self, "atoms", atoms)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.atoms == other.atoms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.atoms,))

    def canonical(self) -> "Term":
        return Term(tuple(sorted(set(self.atoms), key=_atom_key)))

    def __str__(self) -> str:
        return format_term(self, "raw")


class FtfExpr(_Record):
    """A union (max) of terms, in construction order.

    The empty expression is the constant 0.
    """

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[Term, ...] = ()) -> None:
        _set(self, "terms", terms)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.terms,))

    @staticmethod
    def zero() -> "FtfExpr":
        return FtfExpr(())

    @staticmethod
    def one() -> "FtfExpr":
        return FtfExpr((Term(()),))

    def __str__(self) -> str:
        return format_expr(self, "raw")


Valuation = Callable[[Atom], float]


def assignment_valuation(assignment: Mapping[str, float]) -> Valuation:
    """Valuation over plain variables; rejects call atoms and missing names."""

    def value_of(atom: Atom) -> float:
        if isinstance(atom, Call):
            raise BindingError(f"unresolved call atom: {atom}")
        try:
            return assignment[atom.name]
        except KeyError:
            raise BindingError(f"missing binding for variable {atom.name!r}") from None

    return value_of


def eval_expr(expr: FtfExpr, valuation: Valuation) -> float:
    """Max over terms of the min over each term's atom values.

    The empty expression evaluates to 0 and the empty term to 1.  The
    result is always one of the valuation's outputs, 0, or 1.
    """
    best = 0.0
    for term in expr.terms:
        value = 1.0
        for atom in term.atoms:
            value = tnorm_min(value, valuation(atom))
        best = snorm_max(best, value)
    return best


def canonicalize(expr: FtfExpr, simplify: bool = False) -> FtfExpr:
    """Sorted, deduplicated form of ``expr``; optionally absorption-simplified.

    Terms built from the same atom objects have one canonical form, so
    only one term per set of atom identities is canonicalized: an
    expansion that repeats a system's atoms in many orders is sorted
    once per distinct set, not once per term.

    With ``simplify`` every term whose atom set is a strict superset of
    another term's atom set is dropped (it can never win the max).
    Terms are visited smallest set first and tested only against the
    sets kept so far: a strict subset is smaller, and any dropped one
    holds a kept minimal set, so this drops exactly those terms.
    Simplification never changes the value of the expression.
    """
    by_identity = {frozenset(map(id, t.atoms)): t for t in expr.terms}
    terms = sorted(
        {t.canonical() for t in by_identity.values()}, key=lambda t: tuple(map(_atom_key, t.atoms))
    )
    if simplify:
        keep = [False] * len(terms)
        kept: list[frozenset[Atom]] = []
        for i in sorted(range(len(terms)), key=lambda i: len(terms[i].atoms)):
            atoms = frozenset(terms[i].atoms)
            if not any(map(atoms.__gt__, kept)):
                keep[i] = True
                kept.append(atoms)
        terms = list(itertools.compress(terms, keep))
    return FtfExpr(tuple(terms))


def expr_power(expr: FtfExpr, k: int) -> FtfExpr:
    """k-fold concatenation of ``expr`` with itself, canonicalized.

    ``k`` must be at least 1; the zeroth power is deliberately undefined
    in this algebra.

    A canonical term depends only on its atom set, so the power is the
    set of unions of k base terms, repeats allowed: each step unions
    every set so far with every base term.  A union with a term it
    already holds is itself, so the sets only grow, and the first step
    that adds none is a fixpoint.  That is at most 2ᵐ sets for m base
    terms, where concatenating first builds mᵏ raw terms.

    The power is refused with ``ValueError`` before any union is built
    when a bound on its atoms passes :data:`MAX_EXPANSION`: a union of
    at most k of the m base sets is one of the Σᵢ₌₁^min(k,m) C(m, i)
    choices and one of the 2ᴬ − 1 non-empty sets of the A atoms, and
    holds at most min(k·L, A) atoms, L the longest base set's.  That
    bound never passes :func:`multinomial_expand`'s.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"undefined power: k must be an integer >= 1, got {k!r}")
    base = {frozenset(t.atoms) for t in expr.terms}
    m, atoms = len(base), len(frozenset().union(*base))
    unions = min(2**atoms, sum(math.comb(m, i) for i in range(min(k, m) + 1))) - 1
    widest = min(k * max(map(len, base), default=0), atoms)
    _check_size(unions * widest, "atoms in the power")
    out = base
    for _ in range(k - 1):
        grown = {s | t for s in out for t in base}
        if grown == out:
            break
        out = grown
    return canonicalize(FtfExpr(tuple(Term(tuple(s)) for s in out)))


class MultinomialEntry(_Record):
    """One composition of the multinomial expansion of an expression power.

    ``term`` is the raw concatenation of the i-th base term repeated
    ``composition[i]`` times.  The coefficient is classical bookkeeping:
    it never changes a max-min value because union is idempotent.
    """

    __slots__ = _fields = ("composition", "coefficient", "term")

    def __init__(self, composition: tuple[int, ...], coefficient: int, term: Term) -> None:
        _set(self, "composition", composition)
        _set(self, "coefficient", coefficient)
        _set(self, "term", term)


def multinomial_expand(expr: FtfExpr, k: int) -> list[MultinomialEntry]:
    """All compositions (n1..nm) of k over the m terms of ``expr``.

    Entries are ordered with the leading part descending, so ``(k,0,..)``
    comes first and ``(0,..,k)`` last.  The list has C(k+m-1, m-1)
    entries, and its longest term is k times the longest base term (a row
    is built from a k-tuple of term indices, so a base term counts at
    least one atom).  When that term, or that many of it, passes
    :data:`MAX_EXPANSION` atoms, the power is refused with ``ValueError``
    before any row is built.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"undefined power: k must be an integer >= 1, got {k!r}")
    terms = expr.terms
    if not terms:
        return []  # no term to pick
    # a row holds k base terms, and a k-tuple of their indices while it is built
    row = k * max(1, *(len(t.atoms) for t in terms))
    _check_size(row, "atoms in one row")  # bounds k before the rows are counted
    _check_size(math.comb(k + len(terms) - 1, len(terms) - 1) * row, "atoms in the table")
    entries = []
    # each sorted multiset of k term indices is one composition, (k, 0, ..) first
    for pick in itertools.combinations_with_replacement(range(len(terms)), k):
        parts = [0] * len(terms)
        for i in pick:
            parts[i] += 1
        # k! / (n1! ... nm!) as C(k, n1) C(k - n1, n2) ..., with no factorial of k
        coefficient = 1
        rest = k
        for n in parts:
            coefficient *= math.comb(rest, n)
            rest -= n
        atoms = tuple(itertools.chain.from_iterable(t.atoms * n for t, n in zip(terms, parts)))
        entries.append(MultinomialEntry(tuple(parts), coefficient, Term(atoms)))
    return entries


# --- parsing -------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[+*^]|\S")


class _Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _tokenize_expr(text: str) -> list[_Token]:
    tokens = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        for match in _TOKEN_RE.finditer(line):
            tokens.append(_Token(match.group(), line_no, match.start() + 1))
    return tokens


def parse_count(text: str, line: int, col: int) -> int:
    """The call count spelled by ``text``, which both text formats share.

    A count is a run of decimal digits; anything else, or more digits
    than ``int`` converts, is a :class:`ParseError` at ``line``, ``col``.
    """
    if not text.isdecimal():
        raise ParseError(f"count not a non-negative integer: {text!r}", line, col)
    try:
        return int(text)
    except ValueError:  # over the interpreter's digit limit for int()
        raise ParseError(f"count too large: {len(text)} digits", line, col) from None


def parse_expr(text: str) -> FtfExpr:
    """Parse ``"x*z + psi1^2*w"`` style text into a raw expression.

    Terms are '+'-separated, atoms within a term '*'-separated, and a
    call atom is written ``name^count``.  Whitespace is ignored.  The
    special forms ``0`` and ``1`` denote the empty expression and the
    single-empty-term expression.  Raises :class:`ParseError` with line
    and column on bad input.
    """
    tokens = _tokenize_expr(text)
    if not tokens:
        return FtfExpr.zero()
    if len(tokens) == 1 and tokens[0].text == "0":
        return FtfExpr.zero()
    if len(tokens) == 1 and tokens[0].text == "1":
        return FtfExpr.one()

    pos = 0

    def fail(message: str, token: _Token | None = None) -> ParseError:
        if token is None:
            last = tokens[-1]
            return ParseError(message, last.line, last.col + len(last.text))
        return ParseError(message, token.line, token.col)

    def next_token() -> _Token:
        nonlocal pos
        if pos >= len(tokens):
            raise fail("unexpected end of expression")
        token = tokens[pos]
        pos += 1
        return token

    def parse_atom() -> Atom:
        nonlocal pos
        token = next_token()
        if not is_identifier(token.text):
            raise fail(f"expected an atom, got {token.text!r}", token)
        if pos < len(tokens) and tokens[pos].text == "^":
            pos += 1
            count = next_token()
            return Call(token.text, parse_count(count.text, count.line, count.col))
        return Var(token.text)

    def parse_term() -> Term:
        nonlocal pos
        atoms = [parse_atom()]
        while pos < len(tokens) and tokens[pos].text == "*":
            pos += 1
            atoms.append(parse_atom())
        return Term(tuple(atoms))

    terms = [parse_term()]
    while pos < len(tokens):
        token = next_token()
        if token.text != "+":
            raise fail(f"expected '+' between terms, got {token.text!r}", token)
        terms.append(parse_term())
    return FtfExpr(tuple(terms))


# --- formatting ----------------------------------------------------------

_MODES = ("raw", "canonical", "paper")


def format_term(term: Term, mode: str = "raw") -> str:
    """Render one term.  ``paper`` juxtaposes single-character variables."""
    if mode not in _MODES:
        raise ValueError(f"unknown format mode: {mode!r}")
    atoms = term.canonical().atoms if mode == "canonical" else term.atoms
    if not atoms:
        return "1"
    if mode == "paper" and all(isinstance(a, Var) and len(a.name) == 1 for a in atoms):
        return "".join(a.name for a in atoms)
    return "*".join(str(a) for a in atoms)


def format_expr(expr: FtfExpr, mode: str = "raw") -> str:
    """Render an expression; ``parse_expr`` inverts the raw/canonical modes.

    ``raw`` keeps construction order, ``canonical`` renders the canonical
    form, and ``paper`` keeps construction order but joins all-single-
    character-variable terms without stars (so ``x*z`` shows as ``xz``).
    """
    if mode not in _MODES:
        raise ValueError(f"unknown format mode: {mode!r}")
    if mode == "canonical":
        expr = canonicalize(expr)
        term_mode = "raw"
    else:
        term_mode = mode
    if not expr.terms:
        return "0"
    return " + ".join(format_term(t, term_mode) for t in expr.terms)
