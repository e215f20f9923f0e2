"""Formulas of first-order modal logic and frame class descriptions.

The abstract syntax keeps only the primitive connectives: predicates
applied to variables, falsum, negation, disjunction, the diamond, and
the existential quantifier.  Box, universal quantification, conjunction
and implication are accepted by the parser and immediately expanded:

    []A        ~<>~A
    forall x.A ~exists x.~A
    A & B      ~(~A | ~B)
    A -> B     ~A | B

The concrete syntax is plain ASCII.  Prefix operators bind tightest,
then `&`, then `|`, then `->` (right associative).  A quantifier takes
the longest scope to its right, so `exists x. p(x) | q` quantifies over
the whole disjunction.  An identifier is a letter or underscore, then
letters, digits and underscores, then optional primes; `false`,
`exists` and `forall` are reserved.  The tokenizer also reads the
punctuation of sequent text, `;`, `|-`, `[`, `]`, `@` and `:`, so that
sequents reads its notations with this parser.

A parsed formula has at most MAX_DEPTH (200) connectives on any branch
of its expanded tree; deeper input is a ParseError, so the recursive
functions over formulas never meet a tree deeper than Python's
recursion limit allows.  The parser keeps its open groups on a stack.
There is one object per formula, interned as it is built in a weak
table (hash-consing: Filliatre and Conchon, 2006), so hashing and
equality never walk a formula, and a formula dies with its last user.
The caches of free_vars and all_vars are sized to the working set of
one search, 512 formulas each, so the formulas they keep alive after
their callers drop them number hundreds, not thousands.  Build
formulas in one thread at a time.

Terms are variables only; there are no constants or function symbols.
Predicates may be nullary.  Parsing renames bound variables apart, so
in any formula produced here each `exists` binds a distinct name that
never shadows a free variable.  The parser reads each predicate's
arity as it reads the atom, and renames binders apart only when the
formula's text has a quantifier, so a formula is walked once more only
for its depth and only when it may be too deep.  The result, and the
ArityError of a clash, are those of rename_apart and predicate_arities
over the parsed tree.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count


class FormulaError(Exception):
    """Base class for errors raised while building or parsing formulas."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


class ArityError(FormulaError):
    """A predicate name was used with two different arities."""


# ===================================================================
# Abstract syntax
# ===================================================================

class _Entry(weakref.ref):
    __slots__ = ("key",)

    def drop(self) -> None:
        live = _table.pop(self.key, self)
        if live is not self:  # built after the collector cleared self
            _table[self.key] = live


# (class, *fields) of each live formula, to a weak reference to it
_table: dict[tuple, _Entry] = {}
_set = object.__setattr__


class Formula:
    """Building a formula equal to a live one returns that one, so == is
    identity.  Formulas hash as their fields and are immutable."""

    __slots__ = ("_hash", "_text", "__weakref__")

    def __new__(cls, *fields):
        key = (cls, *fields)
        entry = _table.get(key)
        if entry is not None and (phi := entry()) is not None:
            return phi
        if len(fields) != len(cls.__match_args__):
            raise TypeError(f"{cls.__name__} has fields {cls.__match_args__}")
        phi = object.__new__(cls)
        for name, value in zip(cls.__match_args__, fields):
            _set(phi, name, value)
        _set(phi, "_hash", hash(fields))
        _table[key] = entry = _Entry(phi, _Entry.drop)
        entry.key = key
        return phi

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value=None):
        raise AttributeError(f"formulas are immutable: cannot change {name}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({', '.join(fields)})"


class Pred(Formula):
    __slots__ = __match_args__ = ("name", "args")

    def __new__(cls, name: str, args: tuple[str, ...] = ()):
        return Formula.__new__(cls, name, args)


class Bottom(Formula):
    __slots__ = __match_args__ = ()


class Neg(Formula):
    __slots__ = __match_args__ = ("body",)


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Dia(Formula):
    __slots__ = __match_args__ = ("body",)


class Exists(Formula):
    __slots__ = __match_args__ = ("bound", "body")


def box(body: Formula) -> Formula:
    return Neg(Dia(Neg(body)))


def forall(var: str, body: Formula) -> Formula:
    return Neg(Exists(var, Neg(body)))


def conj(left: Formula, right: Formula) -> Formula:
    return Neg(Or(Neg(left), Neg(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Or(Neg(left), right)


# ===================================================================
# Variables and substitution
# ===================================================================

# Sized to one search's working set of formulas.  Against 8192 entries,
# on the four benchmark workloads with seeds 1 and 2, 512 lose at most
# 0.4% of the hits on prove_refute (256 lose up to 1.0%, 128 1.9%) and
# none on the other three; 8192 kept some 9000 dropped formulas alive
# after 60 prove_refute rounds.  functools caches, not slots on
# formulas: the benchmark reads their cache_info().
_VARS_CACHED = 512


@lru_cache(maxsize=_VARS_CACHED)
def free_vars(phi: Formula) -> frozenset[str]:
    match phi:
        case Pred(args=args):
            return frozenset(args)
        case Bottom():
            return frozenset()
        case Neg(body=body) | Dia(body=body):
            return free_vars(body)
        case Or(left=left, right=right):
            return free_vars(left) | free_vars(right)
        case Exists(bound=bound, body=body):
            return free_vars(body) - {bound}
    raise TypeError(f"not a formula: {phi!r}")


@lru_cache(maxsize=_VARS_CACHED)
def all_vars(phi: Formula) -> frozenset[str]:
    """Every variable occurring in phi, free or bound."""
    match phi:
        case Pred(args=args):
            return frozenset(args)
        case Bottom():
            return frozenset()
        case Neg(body=body) | Dia(body=body):
            return all_vars(body)
        case Or(left=left, right=right):
            return all_vars(left) | all_vars(right)
        case Exists(bound=bound, body=body):
            return all_vars(body) | {bound}
    raise TypeError(f"not a formula: {phi!r}")


def fresh_variable(base: str, avoid) -> str:
    """Prime base until it avoids every name in avoid."""
    name = base
    while name in avoid:
        name = name + "'"
    return name


def _renamed(phi: Formula, env: dict[str, str], bind) -> Formula:
    """phi with each free variable x renamed to env.get(x, x) and each
    binder renamed to bind(bound, body, env), its occurrences in the
    body with it.  A subformula in which nothing is renamed is rebuilt
    as itself."""
    match phi:
        case Pred(name=name, args=args) if env:
            return Pred(name, tuple(env.get(a, a) for a in args))
        case Pred() | Bottom():
            return phi
        case Neg(body=body):
            return Neg(_renamed(body, env, bind))
        case Dia(body=body):
            return Dia(_renamed(body, env, bind))
        case Or(left=left, right=right):
            return Or(_renamed(left, env, bind), _renamed(right, env, bind))
        case Exists(bound=bound, body=body):
            name = bind(bound, body, env)
            if name != bound or bound in env:
                env = {**env, bound: name}
            return Exists(name, _renamed(body, env, bind))
    raise TypeError(f"not a formula: {phi!r}")


def substitute(phi: Formula, new: str, old: str) -> Formula:
    """Replace every free occurrence of the variable old by new.

    Capture is avoided by renaming a binder that would catch new, e.g.
    substituting y for x in `exists y. p(x,y)` renames the binder first
    and yields `exists y'. p(y,y')`.
    """
    if new == old or old not in free_vars(phi):
        return phi

    def bind(bound, body, env):
        # a binder of new catches it where old is free and not bound above
        if bound != new or env[old] != new or old not in free_vars(body):
            return bound
        return fresh_variable(bound, all_vars(body) | {new, old})

    return _renamed(phi, {old: new}, bind)


def rename_apart(phi: Formula) -> Formula:
    """Rename binders so each exists binds a distinct, non-shadowing name.
    A subformula in which nothing is renamed is rebuilt as itself."""
    taken = set(free_vars(phi))

    def bind(bound, body, env):
        if bound in taken:
            bound = fresh_variable(bound, taken | all_vars(body))
        taken.add(bound)
        return bound

    return _renamed(phi, {}, bind)


def alpha_canonical(phi: Formula) -> Formula:
    """Rename bound variables to positional names for alpha comparison.

    The chosen names start with '$' and cannot be produced by the
    parser, so canonical forms of distinct inputs never collide by
    accident.
    """
    names = map("${}".format, count())
    return _renamed(phi, {}, lambda bound, body, env: next(names))


def alpha_eq(phi: Formula, psi: Formula) -> bool:
    return alpha_canonical(phi) == alpha_canonical(psi)


def predicate_arities(formulas, arities: dict[str, int] | None = None) -> dict[str, int]:
    """Collect predicate arities, raising ArityError on any clash."""
    if arities is None:
        arities = {}
    for phi in formulas:
        _collect_arities(phi, arities)
    return arities


def note_arity(arities: dict[str, int], name: str, arity: int) -> None:
    """Record a predicate's arity, raising ArityError on a clash with
    the arity recorded first."""
    known = arities.setdefault(name, arity)
    if known != arity:
        raise ArityError(
            f"predicate {name} used with arity {arity} and {known}")


def _collect_arities(phi: Formula, arities: dict[str, int]) -> None:
    match phi:
        case Pred(name=name, args=args):
            note_arity(arities, name, len(args))
        case Bottom():
            pass
        case Neg(body=body) | Dia(body=body):
            _collect_arities(body, arities)
        case Or(left=left, right=right):
            _collect_arities(left, arities)
            _collect_arities(right, arities)
        case Exists(body=body):
            _collect_arities(body, arities)


# ===================================================================
# Frame class descriptions
# ===================================================================

@dataclass(frozen=True)
class FrameSpec:
    """Which frame and domain conditions a problem assumes.

    paths collects pairs (n, k) standing for the closure condition
    `wR^n u and wR^k v imply uRv`; R^0 is equality, so for instance
    (0, 0) forces reflexivity and (0, 2) transitivity.  inc and dec ask
    for domains monotone along the accessibility relation; const domains
    are expressed as inc and dec together.
    """
    serial: bool = False
    paths: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    inc: bool = False
    dec: bool = False
    nonempty: bool = False

    def __post_init__(self):
        for pair in self.paths:
            n, k = pair
            if n < 0 or k < 0:
                raise ValueError(f"negative path condition {pair}")

    @property
    def const(self) -> bool:
        return self.inc and self.dec


def frame_spec(serial=False, paths=(), inc=False, dec=False, const=False,
               nonempty=False) -> FrameSpec:
    """Convenience constructor; const is shorthand for inc and dec."""
    return FrameSpec(serial=serial,
                     paths=frozenset((int(n), int(k)) for n, k in paths),
                     inc=inc or const, dec=dec or const, nonempty=nonempty)


# ===================================================================
# Parsing
# ===================================================================

_KEYWORDS = {"false", "exists", "forall"}

# two-character tokens, then one-character ones; a "[" that does not
# open "[]" opens a child of a nested sequent
_PAIRS = {"<>": "dia", "[]": "box", "->": "arrow", "|-": "turnstile"}
_SINGLES = {"(": "lparen", ")": "rparen", "~": "neg", "|": "or", "&": "and",
            ",": "comma", ".": "dot", ";": "semi", "[": "lbrack",
            "]": "rbrack", "@": "at", ":": "colon"}


def _tokenize(text: str):
    """The tokens of a formula or of a sequent, as (kind, text,
    position) triples ending in an "end" token."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "<[-|" and (pair := text[i:i + 2]) in _PAIRS:
            tokens.append((_PAIRS[pair], pair, i))
            i += 2
        elif c in _SINGLES:
            tokens.append((_SINGLES[c], c, i))
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            while j < n and text[j] == "'":
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                tokens.append((word, word, i))
            else:
                tokens.append(("ident", word, i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# binary connectives: precedence, and whether they group to the right
_BINARY = {"and": (3, False), "or": (2, False), "arrow": (1, True)}

# parsed formulas are at most this deep, so that the recursive functions
# over formulas stay within Python's recursion limit
MAX_DEPTH = 200


class _Group:
    """One formula under construction: the whole input, a parenthesized
    group, or a quantifier body.  prefixes wait for the next operand;
    operands and operators hold the binary connectives not yet built."""

    def __init__(self, opener: str):
        self.opener = opener
        self.prefixes: list[tuple[str, str | None]] = []
        self.operands: list[Formula] = []
        self.operators: list[str] = []

    def add_operand(self, phi: Formula) -> None:
        for kind, var in reversed(self.prefixes):
            if kind == "neg":
                phi = Neg(phi)
            elif kind == "dia":
                phi = Dia(phi)
            elif kind == "box":
                phi = box(phi)
            elif kind == "exists":
                phi = Exists(var, phi)
            else:
                phi = forall(var, phi)
        self.prefixes.clear()
        self.operands.append(phi)

    def add_operator(self, kind: str) -> None:
        prec, right = _BINARY[kind]
        while self.operators:
            top = _BINARY[self.operators[-1]][0]
            if top < prec or (top == prec and right):
                break
            self._reduce()
        self.operators.append(kind)

    def finish(self) -> Formula:
        while self.operators:
            self._reduce()
        return self.operands.pop()

    def _reduce(self) -> None:
        kind = self.operators.pop()
        right = self.operands.pop()
        left = self.operands.pop()
        if kind == "and":
            self.operands.append(conj(left, right))
        elif kind == "or":
            self.operands.append(Or(left, right))
        else:
            self.operands.append(implies(left, right))


class _Parser:
    """Operator precedence parsing with an explicit stack of groups, so
    deeply nested input cannot exhaust Python's recursion limit."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        # the arities of the predicates read so far, over every formula
        # of the text
        self.arities = {}
        # the (name, arity) of each atom of the formula being read, in
        # text order, and whether it has a quantifier
        self.preds: list[tuple[str, int]] = []
        self.binders = False

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def formula(self) -> Formula:
        outer: list[_Group] = []
        group = _Group("top")
        while True:
            kind, value, pos = self.next()
            if kind in ("neg", "dia", "box"):
                group.prefixes.append((kind, None))
                continue
            if kind in ("exists", "forall"):
                self.binders = True
                var = self.expect("ident")[1]
                self.expect("dot")
                group.prefixes.append((kind, var))
                outer.append(group)
                group = _Group("quantifier")  # longest scope
                continue
            if kind == "lparen":
                outer.append(group)
                group = _Group("paren")
                continue
            operand = self.atom(kind, value, pos)
            # attach the operand, closing every group it completes
            while True:
                group.add_operand(operand)
                if self.peek()[0] in _BINARY:
                    group.add_operator(self.next()[0])
                    break
                operand = group.finish()
                if group.opener == "top":
                    return operand
                if group.opener == "paren":
                    self.expect("rparen")
                group = outer.pop()

    def atom(self, kind, value, pos) -> Formula:
        if kind == "false":
            return Bottom()
        if kind == "ident":
            if self.peek()[0] != "lparen":
                self.preds.append((value, 0))
                return Pred(value)
            self.next()
            args = [self.expect("ident")[1]]
            while self.peek()[0] == "comma":
                self.next()
                args.append(self.expect("ident")[1])
            self.expect("rparen")
            self.preds.append((value, len(args)))
            return Pred(value, tuple(args))
        raise ParseError(f"expected a formula, found {value!r}", pos)

    def checked_formula(self) -> Formula:
        """formula(), refused and renamed as parse_formula does: more
        than MAX_DEPTH connectives on one branch of the expanded tree is
        a ParseError, a predicate of two arities in the text an
        ArityError, and the binders come back renamed apart.  The
        arities are those of the atoms as they were read, in text
        order, which is the order predicate_arities walks; a formula
        without a quantifier has nothing to rename."""
        start = self.pos
        self.preds.clear()
        self.binders = False
        phi = self.formula()
        # one token adds at most three connectives to a branch
        if 3 * (self.pos - start) > MAX_DEPTH and _depth(phi) > MAX_DEPTH:
            raise ParseError(
                f"formula nested more than {MAX_DEPTH} connectives deep",
                self.tokens[start][2])
        for name, arity in self.preds:
            note_arity(self.arities, name, arity)
        return rename_apart(phi) if self.binders else phi


def _depth(phi: Formula) -> int:
    """Connectives on the longest branch of phi, found without recursion."""
    deepest = 0
    todo = [(phi, 0)]
    while todo:
        psi, depth = todo.pop()
        deepest = max(deepest, depth)
        if isinstance(psi, (Neg, Dia, Exists)):
            todo.append((psi.body, depth + 1))
        elif isinstance(psi, Or):
            todo.append((psi.left, depth + 1))
            todo.append((psi.right, depth + 1))
    return deepest


def parse_formula(text: str) -> Formula:
    """Parse the concrete syntax; a formula whose expanded tree has more
    than MAX_DEPTH connectives on one branch is a ParseError."""
    parser = _Parser(text)
    phi = parser.checked_formula()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return phi


# ===================================================================
# Rendering
# ===================================================================

def render_formula(phi: Formula) -> str:
    """The text of phi, kept on phi and built from its children's kept
    text, a child without one rendered first.  An operand is put in
    parentheses where its own connective binds more loosely: a
    quantifier, whose scope reaches as far right as it can, everywhere,
    and a disjunction under a prefix or on the right of |."""
    try:
        return phi._text
    except AttributeError:
        pass
    match phi:
        case Bottom():
            text = "false"
        case Pred(name=name, args=args):
            text = name if not args else f"{name}({','.join(args)})"
        case Neg(body=body) | Dia(body=body):
            inner = render_formula(body)
            if isinstance(body, (Or, Exists)):
                inner = f"({inner})"
            text = ("~" if isinstance(phi, Neg) else "<>") + inner
        case Or(left=left, right=right):
            first, second = render_formula(left), render_formula(right)
            if isinstance(left, Exists):
                first = f"({first})"
            if isinstance(right, (Or, Exists)):
                second = f"({second})"
            text = f"{first} | {second}"
        case Exists(bound=bound, body=body):
            text = f"exists {bound}. {render_formula(body)}"
        case _:
            raise TypeError(f"not a formula: {phi!r}")
    _set(phi, "_text", text)
    return text
