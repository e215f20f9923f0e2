"""String rewriting systems over the two-letter alphabet {d, b}.

The letter d stands for a forward move along an accessibility relation
and b for a backward move; conversing a string reverses it and flips
every letter.  A rewriting system is a finite set of productions whose
left side is a single letter, so the systems are semi-Thue systems that
happen to coincide with context-free grammars in which each letter is
both a terminal and a nonterminal.

Three families of systems matter here:

* directed(): d and b each erase or duplicate, giving the languages
  L(d) = d^n and L(b) = b^n, i.e. plain forward or backward
  reachability;
* undirected(): every letter erases or rewrites to bd, which makes both
  languages the full set of strings, i.e. reachability ignoring edge
  direction;
* of_paths(G): for each pair (n, k) in G the productions d -> b^n d^k
  and b -> b^k d^n, mirroring a frame closure condition that connects
  the endpoints of an n-step and a k-step path.

Membership t in L_S(a) is decided by reading the system as a
context-free grammar, where LETTER_SYMBOL[a] is the nonterminal of a,
and saturating reachability triples over the chain graph of t, as
propagation graphs are saturated.  derives keeps its last 1024
answers: replaying a proof checks the same stored witness strings.
The functions s4 and s5 are aliases for directed and undirected,
following the names of the modal logics whose reachability they encode.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

DIA = "d"
BDIA = "b"
ALPHABET = (DIA, BDIA)

_CONVERSE = {DIA: BDIA, BDIA: DIA}


class GrammarError(Exception):
    pass


def check_string(s: str) -> str:
    for c in s:
        if c not in _CONVERSE:
            raise GrammarError(f"bad character {c!r} in string {s!r}")
    return s


def converse_string(s: str) -> str:
    """Reverse the string and flip every letter; an involution."""
    return "".join(_CONVERSE[c] for c in reversed(check_string(s)))


# ===================================================================
# Systems
# ===================================================================

@dataclass(frozen=True)
class Production:
    lhs: str
    rhs: str

    def __post_init__(self):
        if self.lhs not in _CONVERSE:
            raise GrammarError(f"production left side must be d or b, got {self.lhs!r}")
        check_string(self.rhs)

    def __str__(self):
        return f"{self.lhs} -> {self.rhs if self.rhs else 'eps'}"


@dataclass(frozen=True)
class ThueSystem:
    productions: frozenset[Production]

    def sorted_productions(self) -> tuple[Production, ...]:
        return tuple(sorted(self.productions, key=lambda p: (p.lhs, len(p.rhs), p.rhs)))


def system(*rules: tuple[str, str] | Production) -> ThueSystem:
    prods = frozenset(r if isinstance(r, Production) else Production(*r)
                      for r in rules)
    return ThueSystem(prods)


def empty_system() -> ThueSystem:
    return ThueSystem(frozenset())


def directed() -> ThueSystem:
    return system((DIA, ""), (BDIA, ""), (DIA, "dd"), (BDIA, "bb"))


def undirected() -> ThueSystem:
    return system((DIA, ""), (BDIA, ""), (DIA, "bd"), (BDIA, "bd"))


# the traditional names of the logics these reachability notions serve
s4 = directed
s5 = undirected


def of_paths(paths) -> ThueSystem:
    """Productions d -> b^n d^k and b -> b^k d^n for each (n, k)."""
    prods = []
    for n, k in paths:
        if n < 0 or k < 0:
            raise GrammarError(f"negative path condition ({n}, {k})")
        prods.append(Production(DIA, BDIA * n + DIA * k))
        prods.append(Production(BDIA, BDIA * k + DIA * n))
    return ThueSystem(frozenset(prods))


def union(first: ThueSystem, second: ThueSystem) -> ThueSystem:
    return ThueSystem(first.productions | second.productions)


_PRODUCTION_RE = re.compile(r"^\s*([db])\s*->\s*(eps|[db]*)\s*$")


def parse_production(text: str) -> Production:
    """Parse the textual form `d -> bd`; `eps` is the empty right side."""
    m = _PRODUCTION_RE.match(text)
    if not m:
        raise GrammarError(f"cannot parse production {text!r}")
    lhs, rhs = m.groups()
    return Production(lhs, "" if rhs == "eps" else rhs)


# ===================================================================
# Derivability as context-free reachability
# ===================================================================
#
# Read each letter a as a nonterminal N_a with the productions
#     N_a -> a                    (leave the letter unrewritten)
#     N_a -> N_c1 ... N_ck        for each production a -> c1...ck
# Then t is derivable from a iff N_a generates t.  On a graph whose
# edges carry letters, saturate finds every triple (N, u, v) such that
# some walk from u to v spells a string N generates: the worklist
# construction of CFL reachability (Reps, "Program analysis via graph
# reachability", 1998).  derives asks it about the chain graph of the
# target string; propagation asks it about the graph of a sequent.

# The nonterminal of each letter, in the order saturate records its edges.
LETTER_SYMBOL = {DIA: 0, BDIA: 1}


@dataclass(frozen=True)
class Cfg:
    """A rewriting system viewed as a grammar with right sides of length
    at most two.

    Nonterminals are integers; LETTER_SYMBOL[a] names the nonterminal
    for the letter a, which also derives a itself.  Binarizing a long
    right side introduces helper nonterminals numbered from 2.
    """
    unit_rules: tuple[tuple[int, int], ...]
    binary_rules: tuple[tuple[int, int, int], ...]
    nullable: frozenset[int]


@lru_cache(maxsize=64)
def to_cfg(sys: ThueSystem) -> Cfg:
    unit_rules, binary_rules, nullable = [], [], set()
    next_nt = 2
    for prod in sys.sorted_productions():
        lhs = LETTER_SYMBOL[prod.lhs]
        symbols = [LETTER_SYMBOL[c] for c in prod.rhs]
        if not symbols:
            nullable.add(lhs)
            continue
        if len(symbols) == 1:
            unit_rules.append((lhs, symbols[0]))
            continue
        # chain the right side into binary pieces
        head = lhs
        for symbol in symbols[:-2]:
            binary_rules.append((head, symbol, next_nt))
            head = next_nt
            next_nt += 1
        binary_rules.append((head, symbols[-2], symbols[-1]))

    # a helper's rule follows its user's, so a reverse pass marks a chain
    changed = True
    while changed:
        changed = False
        for a, c in unit_rules:
            if c in nullable and a not in nullable:
                nullable.add(a)
                changed = True
        for a, c1, c2 in reversed(binary_rules):
            if c1 in nullable and c2 in nullable and a not in nullable:
                nullable.add(a)
                changed = True

    return Cfg(unit_rules=tuple(unit_rules),
               binary_rules=tuple(binary_rules),
               nullable=frozenset(nullable))


@lru_cache(maxsize=64)
def _raw_rules(sys: ThueSystem):
    """The rules of to_cfg(sys) indexed for saturate: unit rules a -> b
    by b, binary rules a -> b c by b and by c."""
    cfg = to_cfg(sys)
    units_by_rhs: dict[int, list[int]] = {}
    for a, b in cfg.unit_rules:
        units_by_rhs.setdefault(b, []).append(a)
    bin_by_first: dict[int, list[tuple[int, int]]] = {}
    bin_by_second: dict[int, list[tuple[int, int]]] = {}
    for a, b, c in cfg.binary_rules:
        bin_by_first.setdefault(b, []).append((a, c))
        bin_by_second.setdefault(c, []).append((a, b))
    return units_by_rhs, bin_by_first, bin_by_second


def saturate(sys: ThueSystem, vertices, edges) -> dict[tuple, tuple]:
    """Derivation table of all triples (nonterminal, u, v) of to_cfg(sys)
    over the graph with the given vertices and (u, letter, v) edges.

    Each triple maps to the one derivation recorded for it: ("edge", e)
    for a single edge e, ("empty",) for a nullable nonterminal at u = v,
    ("unit", t) or ("bin", t1, t2) for the triples a rule combined.
    Triples are recorded in a fixed order for given inputs, whatever
    the hash seed, so the derivations, and paths read back from them,
    are reproducible from one process to the next."""
    cfg = to_cfg(sys)
    units_by_rhs, bin_by_first, bin_by_second = _raw_rules(sys)
    back: dict[tuple, tuple] = {}
    worklist: list[tuple] = []

    def record(triple, reason):
        if triple not in back:
            back[triple] = reason
            worklist.append(triple)

    for letter, nt in LETTER_SYMBOL.items():
        for edge in sorted(edges):
            w, c, u = edge
            if c == letter:
                record((nt, w, u), ("edge", edge))
    for nt in sorted(cfg.nullable):
        for v in sorted(vertices):
            record((nt, v, v), ("empty",))

    # index facts by (nonterminal, source) and (nonterminal, target) as
    # they are popped, so recording a fact never changes an index walked
    # below; dicts keep insertion order, so the walks do not depend on
    # the string hash seed
    outgoing: dict[tuple, dict[tuple, None]] = {}
    incoming: dict[tuple, dict[tuple, None]] = {}
    while worklist:
        triple = worklist.pop()
        nt, u, v = triple
        outgoing.setdefault((nt, u), {})[triple] = None
        incoming.setdefault((nt, v), {})[triple] = None
        for a in units_by_rhs.get(nt, ()):
            record((a, u, v), ("unit", triple))
        for a, second in bin_by_first.get(nt, ()):
            for other in outgoing.get((second, v), ()):
                record((a, u, other[2]), ("bin", triple, other))
        for a, first in bin_by_second.get(nt, ()):
            for other in incoming.get((first, u), ()):
                record((a, other[1], v), ("bin", other, triple))
    return back


@lru_cache(maxsize=1024)
def derives(sys: ThueSystem, char: str, target: str) -> bool:
    """Is target derivable from the single letter char in sys?"""
    if char not in _CONVERSE:
        raise GrammarError(f"start must be a single letter d or b, got {char!r}")
    check_string(target)
    n = len(target)
    chain = [(i, c, i + 1) for i, c in enumerate(target)]
    table = saturate(sys, range(n + 1), chain)
    return (LETTER_SYMBOL[char], 0, n) in table
