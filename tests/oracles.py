"""Independent brute-force oracles and random input generators.

Everything here is deliberately naive: set closures, string
enumerations and direct structural recursions that mirror the
definitions rather than the algorithms under test.
"""

import functools
import itertools
import random

from fomodal.grammar import ALPHABET, BDIA, DIA, one_step
from fomodal.sequents import LabeledSequent, NestedSequent
from fomodal.syntax import Bottom, Dia, Exists, Neg, Or, Pred


# ===================================================================
# Rewriting closure
# ===================================================================

def closure_members(sys_, start: str, max_len: int, cap: int) -> set:
    """All strings of length <= max_len reachable from start by
    one-step rewriting, never visiting a string longer than cap."""
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for s in frontier:
            for t in one_step(s, sys_):
                if len(t) <= cap and t not in seen:
                    seen.add(t)
                    fresh.append(t)
        frontier = fresh
    return {s for s in seen if len(s) <= max_len}


def saturated_members(sys_, start: str, max_len: int) -> set:
    """Closure that raises its own length cap until the visible part
    stops changing; the result is exact for the systems under test."""
    cap = max_len + 4
    got = closure_members(sys_, start, max_len, cap)
    while True:
        wider = closure_members(sys_, start, max_len, cap + 2)
        if wider == got:
            return got
        got = wider
        cap += 2


def all_strings(max_len: int):
    for length in range(max_len + 1):
        for tup in itertools.product(ALPHABET, repeat=length):
            yield "".join(tup)


def earley_member(sys_, char: str, target: str) -> bool:
    """Is target derivable from char in sys_?  An Earley recognizer over
    the grammar with one nonterminal per letter, 0 for d and 1 for b,
    with the rule N_a -> a and N_a -> N_c1 ... N_ck per production
    a -> c1...ck; a reference for grammar.derives that shares none of
    its code."""
    start = {DIA: 0, BDIA: 1}
    rules = {0: [(DIA,)], 1: [(BDIA,)]}
    for prod in sys_.sorted_productions():
        rules[start[prod.lhs]].append(tuple(start[c] for c in prod.rhs))
    nullable = set()
    changed = True
    while changed:
        changed = False
        for nt, alternatives in rules.items():
            if nt not in nullable and any(
                    all(sym in nullable for sym in alt) for alt in alternatives):
                nullable.add(nt)
                changed = True

    n = len(target)
    # items (lhs, rhs, dot, from); predicting a nullable nonterminal also
    # advances the dot, which keeps empty-span completions from being lost
    root = ("root", (start[char],), 0, 0)
    chart = [set() for _ in range(n + 1)]
    chart[0].add(root)
    for pos in range(n + 1):
        worklist = list(chart[pos])
        while worklist:
            lhs, rhs, dot, begin = worklist.pop()
            if dot < len(rhs):
                sym = rhs[dot]
                if isinstance(sym, str):
                    if pos < n and target[pos] == sym:
                        chart[pos + 1].add((lhs, rhs, dot + 1, begin))
                    continue
                fresh = [(sym, alt, 0, pos) for alt in rules[sym]]
                if sym in nullable:
                    fresh.append((lhs, rhs, dot + 1, begin))
                for item in fresh:
                    if item not in chart[pos]:
                        chart[pos].add(item)
                        worklist.append(item)
            elif lhs != "root":
                for waiting in list(chart[begin]):
                    wlhs, wrhs, wdot, wbegin = waiting
                    if wdot < len(wrhs) and wrhs[wdot] == lhs:
                        item = (wlhs, wrhs, wdot + 1, wbegin)
                        if item not in chart[pos]:
                            chart[pos].add(item)
                            worklist.append(item)
    return ("root", (start[char],), 1, 0) in chart[n]


# ===================================================================
# Reachability by string enumeration
# ===================================================================

def walk_targets(edges, source: str, string: str) -> set:
    """Vertices at the end of a walk from source spelling string."""
    current = {source}
    for char in string:
        current = {v for (u, c, v) in edges if c == char and u in current}
        if not current:
            break
    return current


def enumerate_reachable(edges, vertices, sys_, char: str, source: str,
                        max_len: int) -> set:
    """Targets of some walk whose string lies in L_sys(char), walking
    at most max_len steps."""
    found = set()
    for string in all_strings(max_len):
        if not earley_member(sys_, char, string):
            continue
        found |= walk_targets(edges, source, string)
    return found


# ===================================================================
# Kripke structures up to isomorphism
# ===================================================================

def _structure_key(rel, domains):
    return (tuple(sorted(rel)), tuple(tuple(sorted(d)) for d in domains))


def structure_images(rel, domains, pool_size: int):
    """(rel, domains) moved by every pair of a world permutation and a
    permutation of the individuals 0..pool_size-1."""
    n = len(domains)
    for wp in itertools.permutations(range(n)):
        moved_rel = frozenset((wp[w], wp[u]) for w, u in rel)
        for ip in itertools.permutations(range(pool_size)):
            moved_dom = [frozenset()] * n
            for w in range(n):
                moved_dom[wp[w]] = frozenset(ip[i] for i in domains[w])
            yield moved_rel, tuple(moved_dom)


def is_least_structure(rel, domains, pool_size: int) -> bool:
    """Is (rel, domains) the least representative of its isomorphism
    class?  Structures compare by their relation's sorted pairs, then by
    each world's sorted individuals; every image is tried."""
    mine = _structure_key(rel, domains)
    return all(_structure_key(*image) >= mine
               for image in structure_images(rel, domains, pool_size))


@functools.lru_cache(maxsize=None)
def _least_block(n: int, pool_size: int) -> tuple:
    pairs = [(w, u) for w in range(n) for u in range(n)]
    subsets = [frozenset(i for i in range(pool_size) if bits >> i & 1)
               for bits in range(1 << pool_size)]
    out = []
    for domains in itertools.product(subsets, repeat=n):
        if len(frozenset().union(*domains)) != pool_size:
            continue
        for bits in range(1 << len(pairs)):
            rel = frozenset(pairs[i] for i in range(len(pairs))
                            if bits >> i & 1)
            if is_least_structure(rel, domains, pool_size):
                out.append((n, rel, domains))
    return tuple(out)


def least_structures(max_worlds: int, max_individuals: int) -> tuple:
    """The (worlds, rel, domains) structure table by brute force: for
    each world count, then each pool size, every assignment of subsets
    of the pool to the worlds that covers it, in itertools.product
    order over the subsets by bitmask, and every relation by bitmask
    (bit w*n+u for the pair (w, u)), kept when is_least_structure
    holds.  A reference for semantics._all_structures."""
    return tuple(s for n in range(1, max_worlds + 1)
                 for p in range(max_individuals + 1)
                 for s in _least_block(n, p))


# ===================================================================
# Random structures
# ===================================================================

def random_formula(rng: random.Random, depth: int, vars_in_scope=()):
    roll = rng.random()
    vars_in_scope = tuple(vars_in_scope)
    if depth <= 0 or roll < 0.35:
        if vars_in_scope and rng.random() < 0.6:
            k = rng.randint(1, min(2, len(vars_in_scope)))
            args = tuple(rng.choice(vars_in_scope) for _ in range(k))
            return Pred(rng.choice("pq") + str(len(args)), args)
        if rng.random() < 0.15:
            return Bottom()
        return Pred(rng.choice("pqr"))
    if roll < 0.5:
        return Neg(random_formula(rng, depth - 1, vars_in_scope))
    if roll < 0.7:
        return Or(random_formula(rng, depth - 1, vars_in_scope),
                  random_formula(rng, depth - 1, vars_in_scope))
    if roll < 0.85:
        return Dia(random_formula(rng, depth - 1, vars_in_scope))
    var = "x" + str(rng.randint(0, 2))
    while var in vars_in_scope:
        var = var + "'"
    return Exists(var, random_formula(rng, depth - 1, vars_in_scope + (var,)))


def random_nested(rng: random.Random, depth: int = 3, width: int = 3,
                  counter=None) -> NestedSequent:
    if counter is None:
        counter = itertools.count()
    label = "w" + str(next(counter))
    vars_ = tuple(sorted({"x" + str(rng.randint(0, 3))
                          for _ in range(rng.randint(0, 2))}))
    left = tuple(random_formula(rng, rng.randint(0, 2), vars_)
                 for _ in range(rng.randint(0, width)))
    right = tuple(random_formula(rng, rng.randint(0, 2), vars_)
                  for _ in range(rng.randint(0, width)))
    children = ()
    if depth > 0:
        children = tuple(random_nested(rng, depth - 1, width, counter)
                         for _ in range(rng.randint(0, width - 1)))
    return NestedSequent(label, left, vars_, right, children)


def random_labeled_tree(rng: random.Random, size: int = 5) -> LabeledSequent:
    labels = ["v" + str(i) for i in range(rng.randint(1, size))]
    rel = tuple((labels[rng.randint(0, i - 1)], labels[i])
                for i in range(1, len(labels)))
    dom = []
    left = []
    right = []
    for label in labels:
        for _ in range(rng.randint(0, 2)):
            dom.append(("x" + str(rng.randint(0, 3)), label))
        for _ in range(rng.randint(0, 2)):
            left.append((label, random_formula(rng, rng.randint(0, 2))))
        for _ in range(rng.randint(0, 2)):
            right.append((label, random_formula(rng, rng.randint(0, 2))))
    return LabeledSequent(rel=rel, dom=tuple(set(dom)), left=tuple(left),
                          right=tuple(right))


def random_edges(rng: random.Random, max_vertices: int = 5):
    """A random symmetric-closed labeled edge set like the ones
    propagation graphs contain."""
    count = rng.randint(1, max_vertices)
    vertices = ["u" + str(i) for i in range(count)]
    edges = set()
    for _ in range(rng.randint(0, 2 * count)):
        a, b = rng.choice(vertices), rng.choice(vertices)
        edges.add((a, "d", b))
        edges.add((b, "b", a))
    return vertices, edges
