"""Independent brute-force oracles and random input generators.

Everything here is deliberately naive: set closures, string
enumerations and direct structural recursions that mirror the
definitions rather than the algorithms under test.
"""

import functools
import itertools
import random
from collections import Counter, namedtuple
from dataclasses import replace
from functools import lru_cache
from itertools import product

from fomodal.calculi import (AX, BOT_L, D, DIA_L, EXISTS_L, NEG_L, NEG_R,
                             OR_L, OR_R, P_DIA, S_EX1, S_EX2, CalculusSpec,
                             ProofTree, RuleParams, apply_rule, check, fold,
                             propagation_system, rule_set, side_condition)
from fomodal.grammar import ALPHABET, BDIA, DIA, check_string
from fomodal.propagation import build_graph, reachable
from fomodal.prover import Exhausted, Proved, SearchBudget, _Abort
from fomodal.semantics import (_BOTTOM, _DIA, _EXISTS, _MASK_BITS, _NEG, _OR,
                               _PRED,
                               MAX_ASSIGNMENTS, MAX_VALUATIONS,
                               InterpretationError, KripkeModel,
                               SemanticsError, _compile, _pick,
                               enumerate_structures)
from fomodal.sequents import (LabeledSequent, NestedSequent, components,
                              fresh_label, nested_of, shape_key, to_labeled,
                              update_components)
from fomodal.syntax import (Bottom, Dia, Exists, Formula, FrameSpec, Neg, Or,
                            Pred, free_vars, fresh_variable, predicate_arities,
                            substitute)


# ===================================================================
# Rewriting closure
# ===================================================================

def one_step(s: str, sys_) -> set[str]:
    """All strings obtained by rewriting one occurrence of a letter."""
    check_string(s)
    out = set()
    for i, c in enumerate(s):
        for prod in sys_.productions:
            if prod.lhs == c:
                out.add(s[:i] + prod.rhs + s[i + 1:])
    return out


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
# Formula evaluation by tree walking
# ===================================================================

class Evaluator:
    """Truth evaluation against one model, memoized per subformula,
    world and relevant variable assignment."""

    def __init__(self, model: KripkeModel):
        self.model = model
        self._succ = {w: tuple(sorted(model.successors(w)))
                      for w in range(model.worlds)}
        self._cache: dict = {}

    def formula(self, world: int, phi: Formula, assignment=None) -> bool:
        if assignment is None:
            assignment = {}
        missing = free_vars(phi) - set(assignment)
        if missing:
            raise InterpretationError(
                f"unassigned free variables {sorted(missing)}")
        return self._eval(world, phi, assignment)

    def _eval(self, world: int, phi: Formula, assignment: dict) -> bool:
        key = (world, phi,
               tuple(sorted((v, assignment[v]) for v in free_vars(phi))))
        got = self._cache.get(key)
        if got is not None:
            return got
        match phi:
            case Bottom():
                value = False
            case Pred(name=name, args=args):
                tup = tuple(assignment[a] for a in args)
                value = (name, world, tup) in self.model.valuation
            case Neg(body=body):
                value = not self._eval(world, body, assignment)
            case Or(left=left, right=right):
                value = (self._eval(world, left, assignment)
                         or self._eval(world, right, assignment))
            case Dia(body=body):
                value = any(self._eval(u, body, assignment)
                            for u in self._succ[world])
            case Exists(bound=bound, body=body):
                value = False
                for individual in sorted(self.model.domains[world]):
                    inner = dict(assignment)
                    inner[bound] = individual
                    if self._eval(world, body, inner):
                        value = True
                        break
            case _:
                raise TypeError(f"not a formula: {phi!r}")
        self._cache[key] = value
        return value


def eval_formula(model: KripkeModel, world: int, phi: Formula,
                 assignment=None) -> bool:
    """A reference for semantics.eval_formula."""
    return Evaluator(model).formula(world, phi, assignment)


def labeled_sequent_valid(model: KripkeModel, seq: LabeledSequent) -> bool:
    """Every interpretation of the labels into worlds and of the
    variables into the model's individuals that makes the relational
    atoms, domain atoms and left formulas true makes a right formula
    true.  A reference for semantics.labeled_sequent_valid."""
    ev = Evaluator(model)
    labels = sorted(seq.labels())
    variables = sorted({x for x, _ in seq.dom}.union(
        *(free_vars(f) for f in seq.formulas())))
    for worlds in product(range(model.worlds), repeat=len(labels)):
        at = dict(zip(labels, worlds))
        for individuals in product(sorted(model.individuals()),
                                   repeat=len(variables)):
            env = dict(zip(variables, individuals))
            if (all((at[w], at[u]) in model.rel for w, u in seq.rel)
                    and all(env[x] in model.domains[at[w]]
                            for x, w in seq.dom)
                    and all(ev.formula(at[w], f, env) for w, f in seq.left)
                    and not any(ev.formula(at[w], f, env)
                                for w, f in seq.right)):
                return False
    return True


# ===================================================================
# Rendering by direct recursion
# ===================================================================

def render(phi: Formula, ctx: int = 0) -> str:
    """The text of phi, every child rendered afresh at its parent's
    precedence level: quantifier scope 0, | 1, & 2, prefix 3.  A
    reference for syntax.render_formula."""
    match phi:
        case Bottom():
            return "false"
        case Pred(name=name, args=args):
            return name if not args else f"{name}({','.join(args)})"
        case Neg(body=body):
            return "~" + render(body, 3)
        case Dia(body=body):
            return "<>" + render(body, 3)
        case Or(left=left, right=right):
            text = f"{render(left, 1)} | {render(right, 2)}"
            return f"({text})" if ctx > 1 else text
        case Exists(bound=bound, body=body):
            text = f"exists {bound}. {render(body, 0)}"
            return f"({text})" if ctx > 0 else text
    raise TypeError(f"not a formula: {phi!r}")


# ===================================================================
# Proof trees
# ===================================================================

def walk_pairs(proof, path=()) -> list:
    """(path, node) for every node of a proof tree in preorder, by
    direct recursion."""
    out = [(path, proof)]
    for i, premise in enumerate(proof.premises):
        out += walk_pairs(premise, path + (i,))
    return out


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


# ===================================================================
# Countermodel search, one structure at a time
# ===================================================================

def compile_program(phi: Formula) -> tuple:
    """semantics._compile as it was before names were read off the
    children: each node's names are the sorted free_vars of its
    subformula."""
    nodes: list[tuple] = []
    ids: dict[Formula, int] = {}

    def child(body, names):
        i = visit(body)
        inner = nodes[i][1]
        return i, (None if inner == names
                   else tuple(names.index(x) for x in inner))

    def visit(psi):
        if psi in ids:
            return ids[psi]
        names = tuple(sorted(free_vars(psi)))
        if isinstance(psi, Bottom):
            node = (_BOTTOM, names, None)
        elif isinstance(psi, Pred):
            node = (_PRED, names,
                    (psi.name, tuple(names.index(a) for a in psi.args)))
        elif isinstance(psi, Or):
            node = (_OR, names,
                    child(psi.left, names) + child(psi.right, names))
        elif isinstance(psi, Exists):
            node = (_EXISTS, names, child(psi.body, names + (psi.bound,)))
        else:
            node = (_NEG if isinstance(psi, Neg) else _DIA, names,
                    child(psi.body, names))
        ids[psi] = len(nodes)
        nodes.append(node)
        return ids[psi]

    visit(phi)
    return tuple(nodes)


# The search as it was before structures shared a mask: each structure
# of enumerate_structures is evaluated on its own, block by block.  A
# reference for semantics.find_countermodel, which must return the same
# (model, world) or raise the same SemanticsError.

@lru_cache(maxsize=_MASK_BITS + 1)
def _low_masks(bits: int) -> tuple[int, ...]:
    """Mask i over 2**bits valuations: the valuations with bit i set."""
    full = (1 << (1 << bits)) - 1
    masks = []
    for i in range(bits):
        half = 1 << i
        # ones at half..2*half-1, repeated with period 2*half
        masks.append(((1 << half) - 1 << half) * (full // ((1 << 2 * half) - 1)))
    return tuple(masks)


def _root_masks(program, worlds, succ, domains, envs, atom_index, masks,
                full) -> list[int]:
    """The root's mask at each world.  Every node gets a table from the
    assignments of its free variables to its mask at each world, built
    after its children's."""
    tables: list[dict] = []
    for op, names, arg in program:
        table = {}
        for env in envs[len(names)]:
            if op == _PRED:
                name, positions = arg
                args = tuple(env[j] for j in positions)
                row = [masks[atom_index[name, w, args]] for w in range(worlds)]
            elif op == _NEG:
                row = [full ^ m for m in tables[arg[0]][_pick(env, arg[1])]]
            elif op == _OR:
                left = tables[arg[0]][_pick(env, arg[1])]
                right = tables[arg[2]][_pick(env, arg[3])]
                row = [a | b for a, b in zip(left, right)]
            elif op == _DIA:
                body = tables[arg[0]][_pick(env, arg[1])]
                row = []
                for w in range(worlds):
                    m = 0
                    for u in succ[w]:
                        m |= body[u]
                    row.append(m)
            elif op == _EXISTS:
                body = tables[arg[0]]
                row = []
                for w in range(worlds):
                    m = 0
                    for d in domains[w]:
                        m |= body[_pick(env + (d,), arg[1])][w]
                    row.append(m)
            else:  # _BOTTOM
                row = [0] * worlds
            table[env] = row
        tables.append(table)
    return tables[-1][()]


def _search_out_of_reach(limit: int, what: str, max_worlds: int,
                         max_individuals: int):
    return SemanticsError(
        f"search out of reach: more than {limit} {what} at "
        f"bounds ({max_worlds}, {max_individuals})")


def find_countermodel(phi: Formula, frame: FrameSpec, max_worlds: int = 3,
                      max_individuals: int = 2):
    """First (model, world) falsifying the closed formula phi on a
    frame satisfying the conditions, or None within the bounds.

    The result is the first model of enumerate_models, and the least
    world of it, that falsifies phi.  Each structure is evaluated once,
    over masks of up to 2**_MASK_BITS valuations; the atoms past the
    first _MASK_BITS are fixed per block of valuations, and blocks are
    taken in order.  Bounds are refused as enumerate_structures refuses
    them, before any structure is searched, and SemanticsError is raised
    before a structure would take the search past MAX_VALUATIONS
    valuations or MAX_ASSIGNMENTS assignments."""
    structures = enumerate_structures(max_worlds, max_individuals, frame)
    if free_vars(phi):
        raise SemanticsError(
            f"countermodel search needs a closed formula, free: {sorted(free_vars(phi))}")
    signature = predicate_arities([phi])
    program = _compile(phi)
    # how many nodes have k free variables, for each k
    scopes = Counter(len(names) for _, names, _ in program)
    # (valuations, assignments, listing) per (worlds, pool): the two
    # counts come first, since past the limits the atoms and the
    # assignments may be too many to list
    layouts = {}
    searched = evaluated = 0
    for n, rel, domains in structures:
        pool = tuple(sorted(set().union(*domains)))
        layout = layouts.get((n, pool))
        if layout is None:
            width = sum(n * len(pool) ** a for a in signature.values())
            # a table entry per node and assignment, for each block
            assignments = sum(nodes * len(pool) ** k
                              for k, nodes in scopes.items())
            layout = layouts[n, pool] = [
                1 << min(width, MAX_VALUATIONS.bit_length()),
                assignments << max(width - _MASK_BITS, 0), None]
        searched += layout[0]
        if searched > MAX_VALUATIONS:
            raise _search_out_of_reach(MAX_VALUATIONS, "valuations",
                                       max_worlds, max_individuals)
        evaluated += layout[1]
        if evaluated > MAX_ASSIGNMENTS:
            raise _search_out_of_reach(MAX_ASSIGNMENTS, "assignments",
                                       max_worlds, max_individuals)
        if layout[2] is None:
            # numbered as enumerate_valuations numbers them
            atoms = [(name, w, args) for name in sorted(signature)
                     for w in range(n)
                     for args in product(pool, repeat=signature[name])]
            envs = {len(names): list(product(pool, repeat=len(names)))
                    for _, names, _ in program}
            bits = min(len(atoms), _MASK_BITS)
            layout[2] = (atoms, {atom: i for i, atom in enumerate(atoms)},
                         envs, bits, (1 << (1 << bits)) - 1, _low_masks(bits))
        atoms, atom_index, envs, bits, full, low = layout[2]
        succ = [[] for _ in range(n)]
        for w, u in rel:
            succ[w].append(u)
        high = len(atoms) - bits
        for block in range(1 << high):
            masks = low + tuple(full if block >> j & 1 else 0
                                for j in range(high)) if high else low
            falsified = [full ^ m for m in _root_masks(
                program, n, succ, domains, envs, atom_index, masks, full)]
            first = 0
            for m in falsified:
                first |= m
            if not first:
                continue
            bit = (first & -first).bit_length() - 1
            world = next(w for w in range(n) if falsified[w] >> bit & 1)
            v = block << bits | bit
            valuation = frozenset(atoms[i] for i in range(len(atoms))
                                  if v >> i & 1)
            return KripkeModel(n, rel, domains, valuation), world
    return None


# ===================================================================
# Proof search restarted from the goal for every creation cap
# ===================================================================

# The search as it was before rounds shared their nodes: each round of
# iterative deepening decides every node afresh.  A reference for
# prover.prove_sequent, which must return the same proof, node count,
# reason and completeness.

# a node of the proof found: its conclusion, its components, the rule
# instance and the nodes of its premises
_Found = namedtuple("_Found", "seq parts rule params premises")


class RestartingSearch:
    def __init__(self, calc, budget, cap: int):
        self.calc = calc
        self.rules = rule_set(calc)
        self.propagation = propagation_system(calc.frame)
        self.budget = budget
        self.cap = cap
        self.nodes = 0
        self.cut = False

    def run(self, goal: NestedSequent):
        seq = to_labeled(goal)
        return self._attack(seq, components(seq, goal.label), self.cap, 0)

    def _attack(self, seq, comps, creations, depth, history=frozenset(),
                applied=frozenset()):
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            self.cut = True
            raise _Abort
        if depth > self.budget.max_depth:
            self.cut = True
            return None

        for comp in comps:
            for f in comp.left:
                if isinstance(f, Bottom):
                    return _Found(seq, comps, BOT_L,
                                  RuleParams(label=comp.label), ())
                if isinstance(f, Pred) and f in comp.right:
                    return _Found(seq, comps, AX,
                                  RuleParams(label=comp.label, formula=f), ())

        def down(rule, params, spent=0, mark=None):
            marked = applied if mark is None else applied | {mark}
            labels = tuple(label for label in (params.label, params.target)
                           if label is not None)
            subs = []
            for premise in apply_rule(self.calc, seq, rule, params):
                sub = self._attack(premise,
                                   update_components(comps, premise, labels),
                                   creations - spent, depth + 1, history,
                                   marked)
                if sub is None:
                    return None
                subs.append(sub)
            return _Found(seq, comps, rule, params, tuple(subs))

        for comp in comps:
            for f in comp.left:
                if isinstance(f, Neg):
                    return down(NEG_L, RuleParams(label=comp.label, formula=f))
                if isinstance(f, Or):
                    return down(OR_L, RuleParams(label=comp.label, formula=f))
            for f in comp.right:
                if isinstance(f, Neg):
                    return down(NEG_R, RuleParams(label=comp.label, formula=f))
                if isinstance(f, Or):
                    return down(OR_R, RuleParams(label=comp.label, formula=f))

        for comp in comps:
            reach = None
            for f in comp.right:
                if not isinstance(f, Dia):
                    continue
                for target in comps:
                    akey = ("p_dia", comp.label, f, target.label)
                    if akey in applied or f.body in target.right:
                        continue
                    if reach is None:
                        reach = reachable(build_graph(seq), self.propagation,
                                          DIA, comp.label)
                    if target.label not in reach:
                        continue
                    params = RuleParams(label=comp.label, formula=f,
                                        target=target.label)
                    cond = side_condition(self.calc, P_DIA, seq, params)
                    return down(P_DIA, replace(params, witness=cond.witness),
                                mark=akey)

        theta = sorted({x for comp in comps for x in comp.vars})
        for comp in comps:
            for f in comp.right:
                if not isinstance(f, Exists):
                    continue
                for y in theta:
                    akey = ("s_ex1", comp.label, f, y)
                    if akey in applied:
                        continue
                    if substitute(f.body, y, f.bound) in comp.right:
                        continue
                    params = RuleParams(label=comp.label, formula=f, variable=y)
                    cond = side_condition(self.calc, S_EX1, seq, params)
                    if cond.holds:
                        return down(S_EX1, replace(params, target=cond.target,
                                                   witness=cond.witness),
                                    mark=akey)

        taken_labels = {comp.label for comp in comps}
        for comp in comps:
            for f in comp.left:
                if isinstance(f, Dia):
                    if creations == 0:
                        self.cut = True
                        break
                    params = RuleParams(label=comp.label, formula=f,
                                        target=fresh_label(taken_labels))
                    return down(DIA_L, params, spent=1)
                if isinstance(f, Exists):
                    if creations == 0:
                        self.cut = True
                        break
                    y = fresh_variable(f.bound, seq.variables())
                    params = RuleParams(label=comp.label, formula=f, variable=y)
                    return down(EXISTS_L, params, spent=1)

        key = shape_key(comps)
        if key in history:
            return None
        history = history | {key}

        if D in self.rules:
            for comp in comps:
                akey = ("d", comp.label)
                if akey in applied:
                    continue
                if creations == 0:
                    self.cut = True
                    break
                found = down(D, RuleParams(label=comp.label,
                                           target=fresh_label(taken_labels)),
                             spent=1, mark=akey)
                if found is not None:
                    return found

        if S_EX2 in self.rules:
            for comp in comps:
                for f in comp.right:
                    if not isinstance(f, Exists):
                        continue
                    for target in comps:
                        akey = ("s_ex2", comp.label, f, target.label)
                        if akey in applied:
                            continue
                        if creations == 0:
                            self.cut = True
                            continue
                        y = fresh_variable(f.bound, seq.variables())
                        params = RuleParams(label=comp.label, formula=f,
                                            variable=y, target=target.label)
                        cond = side_condition(self.calc, S_EX2, seq, params)
                        if not cond.holds:
                            continue
                        found = down(S_EX2, replace(params,
                                                    witness=cond.witness),
                                     spent=1, mark=akey)
                        if found is not None:
                            return found

        return None


def prove_restarting(frame: FrameSpec, goal: NestedSequent, budget=None):
    """prover.prove_sequent with a fresh search from the goal for each
    creation cap; the proof found is replayed as prove_sequent does."""
    budget = budget or SearchBudget()
    calc = CalculusSpec("RefinedL", frame)
    total = 0
    for cap in range(budget.max_creations + 1):
        search = RestartingSearch(calc, budget, cap)
        aborted = False
        try:
            found = search.run(goal)
        except _Abort:
            found = None
            aborted = True
        total += search.nodes
        if found is not None:
            proof = fold(found, lambda node, premises: ProofTree(
                nested_of(node.parts, node.seq), node.rule, node.params,
                premises))
            proof = ProofTree(goal, proof.rule, proof.params, proof.premises)
            assert check(CalculusSpec("NestedN", frame), proof).ok
            return Proved(proof, total)
        if not search.cut:
            return Exhausted("no proof exists for this goal", True, total)
        if aborted:
            return Exhausted("node limit reached", False, total)
    return Exhausted(f"no proof within {budget.max_creations} creating steps",
                     False, total)
