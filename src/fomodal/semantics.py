"""Kripke models with world-relative domains, and countermodel search.

A model has finitely many worlds 0..n-1, an accessibility relation, a
domain of individuals per world, and a valuation assigning to each
predicate the tuples satisfying it at each world.  Valuation tuples are
drawn from the union of all domains, so an individual may satisfy a
predicate at a world whose domain does not contain it; quantifiers, by
contrast, range over the domain of the world of evaluation.  Domains
may be empty.

check_frame tests the structural conditions a FrameSpec asks for:
seriality, the closure conditions (n, k) reading `wR^n u and wR^k v
imply uRv`, increasing or decreasing domains along the relation, and
nonempty domains.

Truth is computed one way, by the program _compile makes of a formula:
each node has a table from the assignments of its free variables to
its truth value at each world, an int bitmask over lanes.  Negation is
XOR with the all-ones mask and disjunction is OR; the diamond and the
existential AND their body with columns, whose lane is set when its
structure has wRu or d in D(w).  An Evaluator, behind eval_formula and
labeled_sequent_valid, runs the program on one model with masks one
lane wide, and refuses past MAX_ASSIGNMENTS atoms and table entries.

Countermodel search walks the structures (worlds, relation, domains)
within given bounds, pruned up to isomorphism by keeping only the least
representative under world and individual permutations.  The table is
built without trying permutations per candidate: the least relation of
each class on n worlds is found once, with the world permutations that
fix it, and a domain choice up to individual permutations is a multiset
of membership columns, so one table per world permutation gives the
rank of each domain choice's least image; a structure is kept when no
permutation fixing its relation gives its domains a smaller rank.
Bounds with more than MAX_CANDIDATES candidates, 2**(n*n) relations
times (2**n - 1)**p domain choices summed over n worlds and p
individuals (at one world, each counting 2p + 1), are refused
before anything is enumerated: five worlds, four worlds with two
individuals, or one world with 1024 individuals.

The search takes the structures in runs of equal worlds and pool, and
evaluates the goal once per chunk of a run for all its valuations
together: lane v*S + s holds valuation v, numbered as
enumerate_valuations numbers them, of the structure s of a chunk of S,
and the run's columns are repeated at every valuation's lanes.  A chunk
spans at most 2**14 lanes, or one structure, and a block at most 2**12
valuations: with more atoms, the valuations come in ordered blocks,
each fixing the atoms past the twelfth.  Folding the valuations onto
the lanes of valuation 0 finds the first falsified structure, so the
search returns the same (model, world) as a walk over
enumerate_models: the first valuation, in the first structure,
falsifying the goal at some world, and the least such world.  It is
refused at the structure where that walk would pass MAX_VALUATIONS
valuations or MAX_ASSIGNMENTS table entries, one per node, assignment
of its free variables and block; both are counted per run, before its
assignments are listed.  The structure table of each pair of bounds,
and its runs for each frame class, are cached per process in bounded
caches; a run's structures are checked against the frame, and its
columns built, when a search first reaches it.

A formula's program is compiled in one walk, each node's free
variables read off its children's, and kept in a bounded cache that
the search and the Evaluator share; its signature, the arity of each
predicate, is read off the program's predicate nodes, and a closed
formula is one whose root has no names.  Atoms are numbered by
arithmetic, as _atoms lists them: over n worlds and p individuals,
(name, w, args) is number offset + w * p**a + args read as digits in
base p, where a is the predicate's arity and offset sums n * p**b over
the predicates before it in name order.  So a search lists the atoms
only to spell out the valuation of a model it returns, and works out
the places of the atoms and the block and chunk sizes by arithmetic.
A run's chunks, with their columns and valuation masks, depend only on
the block width, the number of atoms varying within a block: a run
searched in full keeps its chunk list for that width, within one
LANE_BYTES shared by the runs of each table and frame, for every later
goal of that width, whatever its predicates' names and arities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import and_, or_
from itertools import (chain, combinations_with_replacement, groupby, islice,
                       permutations, product)

from .sequents import LabeledSequent
from .syntax import (Bottom, Dia, Exists, Formula, FrameSpec, Neg, Or, Pred,
                     free_vars, note_arity)


class SemanticsError(Exception):
    pass


class InterpretationError(SemanticsError):
    pass


@dataclass(frozen=True)
class KripkeModel:
    """worlds counts the worlds 0..worlds-1; domains[w] is the set of
    individuals existing at w; valuation holds triples
    (predicate name, world, argument tuple)."""
    worlds: int
    rel: frozenset[tuple[int, int]]
    domains: tuple[frozenset[int], ...]
    valuation: frozenset[tuple[str, int, tuple[int, ...]]]

    def __post_init__(self):
        if self.worlds < 1:
            raise SemanticsError("a model needs at least one world")
        if len(self.domains) != self.worlds:
            raise SemanticsError("one domain per world required")
        for w, u in self.rel:
            if not (0 <= w < self.worlds and 0 <= u < self.worlds):
                raise SemanticsError(f"relation pair ({w},{u}) out of range")
        pool = self.individuals()
        for name, w, args in self.valuation:
            if not 0 <= w < self.worlds:
                raise SemanticsError(f"valuation world {w} out of range")
            if not all(a in pool for a in args):
                raise SemanticsError(
                    f"valuation tuple {args} uses individuals outside every domain")

    def individuals(self) -> frozenset[int]:
        out: set[int] = set()
        for d in self.domains:
            out |= d
        return frozenset(out)

    def successors(self, world: int):
        return [u for w, u in self.rel if w == world]


class Evaluator:
    """Truth in one model, as a run of one structure with one valuation.
    Individuals are numbered over the model's, then the assigned ones
    outside every domain, which satisfy no atom; the root's table of
    each formula is kept per numbering."""

    def __init__(self, model: KripkeModel):
        self.model = model
        self._number = {d: i for i, d in enumerate(sorted(model.individuals()))}
        self._domains = tuple(frozenset(self._number[d] for d in domain)
                              for domain in model.domains)
        self._true = {(name, w, tuple(self._number[a] for a in args))
                      for name, w, args in model.valuation}
        self._tables: dict = {}

    def formula(self, world: int, phi: Formula, assignment=None) -> bool:
        if assignment is None:
            assignment = {}
        missing = free_vars(phi) - set(assignment)
        if missing:
            raise InterpretationError(
                f"unassigned free variables {sorted(missing)}")
        if not 0 <= world < self.model.worlds:
            raise InterpretationError(f"no world {world} in the model")
        names = sorted(free_vars(phi))
        for x in names:
            self._number.setdefault(assignment[x], len(self._number))
        key = (phi, len(self._number))
        if key not in self._tables:
            self._tables[key] = self._table(*key)
        env = tuple(self._number[assignment[x]] for x in names)
        return bool(self._tables[key][env][world])

    def _table(self, phi: Formula, p: int) -> dict:
        """The root's table of phi over individuals 0..p-1."""
        n = self.model.worlds
        program = _compile(phi)
        signature = _signature(program)
        predicates = sorted(signature)
        places, width = _places([signature[x] for x in predicates], n, p)
        if width + sum(p ** len(names)
                       for _, names, _ in program) > MAX_ASSIGNMENTS:
            raise SemanticsError(
                f"evaluation out of reach: more than {MAX_ASSIGNMENTS} "
                f"atoms and assignments")
        rel, dom = _columns(n, p, [(n, self.model.rel, self._domains)])
        scopes = {len(names) for _, names, _ in program}
        return _root_table(program, n, rel, dom, _envs(scopes, p),
                           dict(zip(predicates, places)), p,
                           [int(atom in self._true)
                            for atom in _atoms(signature, n, range(p))], 1)


def eval_formula(model: KripkeModel, world: int, phi: Formula,
                 assignment=None) -> bool:
    return Evaluator(model).formula(world, phi, assignment)


def labeled_sequent_valid(model: KripkeModel, seq: LabeledSequent) -> bool:
    """Does the sequent hold under every interpretation of its labels
    and variables into the model?  It holds under one when the truth of
    every relational atom, domain atom and left formula forces the
    truth of some right formula."""
    labels = sorted(seq.labels())
    variables = sorted({x for x, _ in seq.dom}.union(
        *map(free_vars, seq.formulas())))
    pool = sorted(model.individuals())
    ev = Evaluator(model)
    for world_choice in product(range(model.worlds), repeat=len(labels)):
        at = dict(zip(labels, world_choice))
        if any((at[w], at[u]) not in model.rel for w, u in seq.rel):
            continue
        for indiv_choice in product(pool, repeat=len(variables)):
            var_interp = dict(zip(variables, indiv_choice))
            if (all(var_interp[x] in model.domains[at[w]] for x, w in seq.dom)
                    and all(ev.formula(at[w], phi, var_interp)
                            for w, phi in seq.left)
                    and not any(ev.formula(at[w], phi, var_interp)
                                for w, phi in seq.right)):
                return False
    return True


# ===================================================================
# Frame conditions
# ===================================================================

def _step_sets(model: KripkeModel, depth: int) -> list[dict[int, set[int]]]:
    """reach[i][w] = worlds reachable from w in exactly i steps."""
    reach = [{w: {w} for w in range(model.worlds)}]
    for _ in range(depth):
        last = reach[-1]
        nxt = {w: set() for w in range(model.worlds)}
        for w in range(model.worlds):
            for mid in last[w]:
                for a, b in model.rel:
                    if a == mid:
                        nxt[w].add(b)
        reach.append(nxt)
    return reach

def check_frame(model: KripkeModel, frame: FrameSpec) -> bool:
    if frame.serial:
        for w in range(model.worlds):
            if not model.successors(w):
                return False
    if frame.paths:
        depth = max(max(n, k) for n, k in frame.paths)
        reach = _step_sets(model, depth)
        for n, k in frame.paths:
            for w in range(model.worlds):
                for u in reach[n][w]:
                    for v in reach[k][w]:
                        if (u, v) not in model.rel:
                            return False
    if frame.inc:
        for w, u in model.rel:
            if not model.domains[w] <= model.domains[u]:
                return False
    if frame.dec:
        for w, u in model.rel:
            if not model.domains[u] <= model.domains[w]:
                return False
    if frame.nonempty:
        for d in model.domains:
            if not d:
                return False
    return True


# ===================================================================
# Enumeration and countermodel search
# ===================================================================

# A relation on n worlds is a bitmask with bit w*n+u for the pair (w, u).
# Structures are ordered by their relation's pairs in sorted order, then
# by each world's individuals in sorted order, compared as tuples.  The
# least image of a domain choice under individual permutations numbers
# the individuals of world 0 first, and within each part those of world
# 1 first, and so on: it sorts the individuals by membership column.

MAX_CANDIDATES = 1 << 21  # larger bounds are refused


def _check_bounds(max_worlds: int, max_individuals: int) -> None:
    """Refuse bounds below one world or zero individuals, and bounds
    with more than MAX_CANDIDATES candidate structures: 2**(n*n)
    relations times (2**n - 1)**p domain choices for each world count
    n and pool size p.  At one world a structure is weighed by the
    individuals it holds: over p individuals it counts 2p + 1, so the
    table, which grows with the square of the pool, counts
    (pool + 1)**2 per relation and one world takes at most 1023
    individuals."""
    if max_worlds < 1 or max_individuals < 0:
        raise SemanticsError(
            f"bounds need max_worlds >= 1 and max_individuals >= 0, "
            f"got {max_worlds} and {max_individuals}")
    candidates = 0
    for n in range(1, max_worlds + 1):
        columns = (1 << n) - 1  # the nonempty sets of worlds
        if columns == 1:
            # sum of 2p + 1 for p up to the pool
            choices = (max_individuals + 1) ** 2
        else:
            # sum of columns**p; past this many individuals the sum
            # exceeds MAX_CANDIDATES anyway
            k = min(max_individuals, MAX_CANDIDATES.bit_length())
            choices = (columns ** (k + 1) - 1) // (columns - 1)
        candidates += (1 << n * n) * choices
        if candidates > MAX_CANDIDATES:
            raise SemanticsError(
                f"bounds ({max_worlds}, {max_individuals}) are out of "
                f"reach: more than {MAX_CANDIDATES} candidate structures")


def _relation_key(bits: int) -> tuple[int, ...]:
    return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


@lru_cache(maxsize=8)
def _relation_classes(n: int) -> tuple[tuple[int, tuple], ...]:
    """(relation, automorphisms) for the least relation of each
    isomorphism class on n worlds, the automorphisms being the world
    permutations that fix it."""
    perms = list(permutations(range(n)))
    row_mask = (1 << n) - 1
    # the image of a row (one world's successors) under each permutation
    rows = [[sum(1 << wp[u] for u in range(n) if row >> u & 1)
             for row in range(1 << n)] for wp in perms]

    def image(k, bits):
        wp, table = perms[k], rows[k]
        out = 0
        for w in range(n):
            out |= table[bits >> w * n & row_mask] << wp[w] * n
        return out

    seen = bytearray(1 << n * n)
    classes = []
    for bits in range(1 << n * n):
        if seen[bits]:
            continue
        orbit = {image(k, bits) for k in range(len(perms))}
        for other in orbit:
            seen[other] = 1
        least = min(orbit, key=_relation_key)
        classes.append((least, tuple(wp for k, wp in enumerate(perms)
                                     if image(k, least) == least)))
    return tuple(classes)


def _structure_block(n: int, p: int) -> list[tuple]:
    """The least structures of n worlds whose domains cover the pool
    0..p-1, ordered by their domains as a tuple of subset bitmasks, then
    by relation bitmask."""
    top = n - 1
    # a choice is the columns of the individuals 0..p-1 in descending
    # order, the column of an individual having bit top-w set when it
    # is in the domain of world w: the choices least under individual
    # permutations
    choices = list(combinations_with_replacement(range((1 << n) - 1, 0, -1),
                                                 p))

    def key(columns):
        return tuple(tuple(j for j in range(p) if columns[j] >> top - w & 1)
                     for w in range(n))

    rank = {c: r for r, c in enumerate(sorted(choices, key=key))}
    # the rank of the least image of each choice under each world
    # permutation together with every individual permutation
    image_rank = {}
    for wp in permutations(range(n)):
        moved = [sum(1 << top - wp[w] for w in range(n) if col >> top - w & 1)
                 for col in range(1 << n)]
        image_rank[wp] = {
            c: rank[tuple(sorted((moved[col] for col in c), reverse=True))]
            for c in choices}
    domains = {c: tuple(frozenset(j for j in range(p)
                                  if c[j] >> top - w & 1) for w in range(n))
               for c in choices}
    block = []
    for bits, automorphisms in _relation_classes(n):
        rel = frozenset(divmod(i, n) for i in _relation_key(bits))
        for c in choices:
            if all(image_rank[wp][c] >= rank[c] for wp in automorphisms):
                block.append((tuple(sum(1 << i for i in d)
                                    for d in domains[c]), bits,
                              (n, rel, domains[c])))
    block.sort(key=lambda entry: entry[:2])
    return [structure for _, _, structure in block]


@lru_cache(maxsize=8)
def _all_structures(max_worlds: int, max_individuals: int) -> tuple:
    return tuple(s for n in range(1, max_worlds + 1)
                 for p in range(max_individuals + 1)
                 for s in _structure_block(n, p))


class _Run:
    """The structures of the table with n worlds over the pool 0..p-1
    that satisfy a frame, in table order, span being where the table
    holds those worlds and pool.  The frame is checked, and the columns
    built, on first use: rel[w][u] has bit s set when structure s of
    the run has wRu, and dom[w][d] when d is in its domain at w.  room
    is a one-item list, shared by the runs of the table and frame,
    holding the bytes they may still keep."""

    def __init__(self, n: int, p: int, table: tuple, span: tuple[int, int],
                 frame: FrameSpec, room: list[int]):
        self.n, self.p = n, p
        self._table, self._span, self._frame = table, span, frame
        self._room, self._kept = room, {}

    @cached_property
    def structures(self) -> list[tuple]:
        return [s for s in islice(self._table, *self._span)
                if check_frame(KripkeModel(*s, frozenset()), self._frame)]

    @cached_property
    def columns(self) -> tuple[list, list]:
        return _columns(self.n, self.p, self.structures)

    def chunks(self, bits: int, count: int):
        """The chunks (_chunks) of the run's first count structures for
        blocks of bits varying atoms, step being the structures that fit
        2**_CHUNK_BITS lanes.  The whole run's list is kept per (bits,
        step) while the room lasts, counting 256 bytes and 64 for each
        int of its chunks; a run cut short by a limit, an empty one, or
        one with no room left gets a fresh generator."""
        step = max(1, (1 << _CHUNK_BITS) >> bits)
        total = len(self.structures)
        if count < total or not total:
            return _chunks(self, bits, step, count)
        kept = self._kept.get((bits, step))
        if kept is None:
            # each chunk holds this many ints of at most step << bits bits
            ints = self.n * (self.n + self.p) + bits
            cost = 256 + ints * (64 * -(-total // step) + (total << bits) // 8)
            if cost > self._room[0]:
                return _chunks(self, bits, step, total)
            self._room[0] -= cost
            kept = list(_chunks(self, bits, step, total))
            self._kept[bits, step] = kept
        return kept


LANE_BYTES = 1 << 15  # the most the runs of one table and frame keep


@lru_cache(maxsize=64)
def _runs(max_worlds: int, max_individuals: int,
          frame: FrameSpec) -> tuple[_Run, ...]:
    """The table's structures for the frame, in runs of equal worlds n
    and pool size p, which keep their chunks within one LANE_BYTES
    room."""
    table = _all_structures(max_worlds, max_individuals)
    room = [LANE_BYTES]
    runs, start = [], 0
    for (n, p), group in groupby(table, key=lambda s: (
            s[0], len(frozenset().union(*s[2])))):
        stop = start + sum(1 for _ in group)
        runs.append(_Run(n, p, table, (start, stop), frame, room))
        start = stop
    return tuple(runs)


def _columns(n: int, p: int, structures) -> tuple[list, list]:
    """The columns of structures of n worlds over individuals 0..p-1:
    rel[w][u] has bit s set when structure s has wRu, and dom[w][d]
    when d is in its domain at w."""
    rel = [[0] * n for _ in range(n)]
    dom = [[0] * p for _ in range(n)]
    for s, (_, pairs, domains) in enumerate(structures):
        for w, u in pairs:
            rel[w][u] |= 1 << s
        for w, d in enumerate(domains):
            for i in d:
                dom[w][i] |= 1 << s
    return rel, dom


def enumerate_structures(max_worlds: int, max_individuals: int,
                         frame: FrameSpec | None = None):
    """An iterator over the (worlds, rel, domains) triples satisfying
    the frame conditions, one per isomorphism class, in order of
    increasing size.  Raises SemanticsError at once for bounds below
    one world or zero individuals, or out of reach."""
    _check_bounds(max_worlds, max_individuals)
    if frame is None:
        return iter(_all_structures(max_worlds, max_individuals))
    return chain.from_iterable(
        run.structures for run in _runs(max_worlds, max_individuals, frame))


def _atoms(signature: dict[str, int], worlds: int, pool) -> list[tuple]:
    """The atoms (predicate, world, arguments) over the worlds and the
    pool, in its order; valuation v makes atom i true when bit i of v
    is set."""
    return [(name, w, args) for name in sorted(signature)
            for w in range(worlds)
            for args in product(pool, repeat=signature[name])]


def enumerate_valuations(signature: dict[str, int], worlds: int, pool):
    """All valuations for the signature over the given worlds and
    individual pool."""
    atoms = _atoms(signature, worlds, sorted(pool))
    for bits in range(1 << len(atoms)):
        yield frozenset(atoms[i] for i in range(len(atoms)) if bits >> i & 1)


def enumerate_models(signature: dict[str, int], max_worlds: int,
                     max_individuals: int, frame: FrameSpec | None = None):
    for n, rel, domains in enumerate_structures(max_worlds, max_individuals, frame):
        pool = set()
        for d in domains:
            pool |= d
        for valuation in enumerate_valuations(signature, n, pool):
            yield KripkeModel(n, rel, domains, valuation)


# Bit-parallel evaluation.  Valuation v makes atom i true when bit i of
# v is set, and lane v*S + s of a mask holds its truth value under
# valuation v of structure s of a chunk of S structures.

_MASK_BITS = 12  # a block spans at most 2**12 valuations
_CHUNK_BITS = 14  # a chunk spans at most 2**14 lanes, or one structure
MAX_VALUATIONS = 1 << 24  # a search stops before passing this many
MAX_ASSIGNMENTS = 1 << 18  # and before evaluating more assignments

_BOTTOM, _PRED, _NEG, _OR, _DIA, _EXISTS = range(6)


@lru_cache(maxsize=32)
def _compile(phi: Formula) -> tuple[tuple, ...]:
    """phi as nodes (op, names, arg) in post-order, equal subformulas
    shared, the root last.  names are the node's free variables in
    sorted order; an assignment to them is a tuple of individuals in
    that order.  arg is (predicate, argument positions in names) for a
    predicate and a (child, projection) pair per child otherwise, where
    the projection picks the child's assignment out of the node's, or of
    the node's extended by the bound individual for exists; None means
    the child's assignment is the node's own.  Each node's names are
    read off its children's, so phi is walked once."""
    nodes: list[tuple] = []
    ids: dict[Formula, int] = {}

    def child(body):
        i = visit(body)
        return i, nodes[i][1]

    def projection(inner, names):
        return None if inner == names else tuple(names.index(x) for x in inner)

    def visit(psi):
        got = ids.get(psi)
        if got is not None:
            return got
        match psi:
            case Bottom():
                node = (_BOTTOM, (), None)
            case Pred(name=name, args=args):
                names = tuple(sorted(set(args)))
                node = (_PRED, names, (name, tuple(names.index(a) for a in args)))
            case Neg(body=body):
                i, names = child(body)
                node = (_NEG, names, (i, None))
            case Or(left=left, right=right):
                (i, a), (j, b) = child(left), child(right)
                names = a if a == b else tuple(sorted({*a, *b}))
                node = (_OR, names,
                        (i, projection(a, names), j, projection(b, names)))
            case Dia(body=body):
                i, names = child(body)
                node = (_DIA, names, (i, None))
            case Exists(bound=bound, body=body):
                i, inner = child(body)
                names = tuple(x for x in inner if x != bound)
                node = (_EXISTS, names, (i, projection(inner, names + (bound,))))
            case _:
                raise TypeError(f"not a formula: {psi!r}")
        ids[psi] = len(nodes)
        nodes.append(node)
        return ids[psi]

    visit(phi)
    return tuple(nodes)


def _signature(program) -> dict[str, int]:
    """The arity of each predicate of the program, read off its _PRED
    nodes.  Post-order meets the leaves left to right, so a clash
    raises the ArityError predicate_arities raises on the formula."""
    signature: dict[str, int] = {}
    for op, _, arg in program:
        if op == _PRED:
            note_arity(signature, arg[0], len(arg[1]))
    return signature


def _pick(env: tuple, projection) -> tuple:
    return env if projection is None else tuple(env[j] for j in projection)


def _envs(scopes, p: int) -> dict[int, list[tuple]]:
    """The assignments of k individuals of 0..p-1, one list for each
    number k of free variables of a node, k taken from scopes."""
    return {k: list(product(range(p), repeat=k)) for k in scopes}


def _places(arities, worlds: int, p: int) -> tuple[list, int]:
    """The place (offset, stride) of each predicate's atoms over the
    worlds and individuals 0..p-1, for the arities of the predicates in
    the order of their names, and the number of atoms.  Atom (name, w,
    args) is number offset + w * stride + args read as digits in base
    p, stride being p**arity, as _atoms numbers it."""
    places, width = [], 0
    for arity in arities:
        places.append((width, p ** arity))
        width += worlds * p ** arity
    return places, width


def _root_table(program, worlds, rel, dom, envs, places, p, masks,
                full) -> dict:
    """The root's table, from the assignments of its free variables to
    its mask at each world.  Every node gets such a table, built after
    its children's; rel and dom hold the chunk's columns, places maps
    each predicate to its place and masks[i] is atom i's mask."""
    tables: list[dict] = []
    for op, names, arg in program:
        table = {}
        for env in envs[len(names)]:
            if op == _PRED:
                name, positions = arg
                start, stride = places[name]
                weight = stride
                for j in positions:
                    weight //= p
                    start += env[j] * weight
                row = masks[start:start + worlds * stride:stride]
            elif op == _NEG:
                row = [full ^ m for m in tables[arg[0]][_pick(env, arg[1])]]
            elif op == _OR:
                left = tables[arg[0]][_pick(env, arg[1])]
                right = tables[arg[2]][_pick(env, arg[3])]
                row = [a | b for a, b in zip(left, right)]
            elif op == _DIA:
                body = tables[arg[0]][_pick(env, arg[1])]
                row = [reduce(or_, map(and_, body, columns), 0)
                       for columns in rel]
            elif op == _EXISTS:
                body = [tables[arg[0]][_pick(env + (d,), arg[1])]
                        for d in range(p)]
                row = [reduce(or_, map(and_, [b[w] for b in body], columns), 0)
                       for w, columns in enumerate(dom)]
            else:  # _BOTTOM
                row = [0] * worlds
            table[env] = row
        tables.append(table)
    return tables[-1]


def _chunks(run: _Run, bits: int, step: int, count: int):
    """(start, size, full, rep, rel, dom, low) for each chunk of step
    structures of the run's first count, in order.  The chunk's size
    structures span size << bits lanes, all set in full; rep has ones
    at the lanes of its structure 0, rel and dom hold its part of the
    run's columns repeated at the lanes of every valuation, and low[i]
    the lanes of the valuations with atom i true."""
    columns = run.columns
    for start in range(0, count, step):
        size = min(step, count - start)
        ones, full = (1 << size) - 1, (1 << (size << bits)) - 1
        rep = full // ones
        rel, dom = ([[(c >> start & ones) * rep for c in row] for row in part]
                    for part in columns)
        low = [((1 << (size << i)) - 1 << (size << i))
               * (full // ((1 << (size << i + 1)) - 1)) for i in range(bits)]
        yield start, size, full, rep, rel, dom, low


def find_countermodel(phi: Formula, frame: FrameSpec, max_worlds: int = 3,
                      max_individuals: int = 2):
    """First (model, world) falsifying the closed formula phi on a
    frame satisfying the conditions, or None within the bounds: the
    first model of enumerate_models, and the least world of it, that
    falsifies phi.  Bounds are refused as enumerate_structures refuses
    them; SemanticsError is raised at the structure that would take the
    search past MAX_VALUATIONS valuations or MAX_ASSIGNMENTS
    assignments, once the structures before it are searched."""
    _check_bounds(max_worlds, max_individuals)
    program = _compile(phi)
    free = program[-1][1]  # the root's free variables, sorted
    if free:
        raise SemanticsError(
            f"countermodel search needs a closed formula, free: {list(free)}")
    signature = _signature(program)
    predicates = sorted(signature)
    arities = tuple(signature[name] for name in predicates)
    # how many nodes have k free variables, for each k
    scopes = Counter(len(names) for _, names, _ in program)
    searched = evaluated = 0
    envs = {}  # the assignments over each pool size, listed once
    for run in _runs(max_worlds, max_individuals, frame):
        n, p, structures = run.n, run.p, run.structures
        places, width = _places(arities, n, p)
        bits = min(width, _MASK_BITS)
        valuations = 1 << min(width, MAX_VALUATIONS.bit_length())
        # a table entry per node and assignment, for each block
        assignments = (sum(nodes * p ** k for k, nodes in scopes.items())
                       << width - bits)
        # the run's structures within the limits, counted first: past the
        # limits the assignments may be too many to list
        by_valuations = (MAX_VALUATIONS - searched) // valuations
        by_assignments = (MAX_ASSIGNMENTS - evaluated) // assignments
        count = min(len(structures), by_valuations, by_assignments)
        searched += count * valuations
        evaluated += count * assignments
        if count:
            at = dict(zip(predicates, places))
            if p not in envs:
                envs[p] = _envs(scopes, p)
        for start, size, full, rep, rel, dom, low in run.chunks(bits, count):
            best = None
            for block in range(1 << width - bits):
                masks = low + [full if block >> j & 1 else 0
                               for j in range(width - bits)]
                falsified = [full ^ m for m in _root_table(
                    program, n, rel, dom, envs[p], at, p, masks, full)[()]]
                first = reduce(or_, falsified)
                # fold the valuations: bit s is set when structure s is
                # falsified here, and kept below a structure found before
                hits, half = first, size << bits
                while half > size:
                    half >>= 1
                    hits = (hits | hits >> half) & (1 << half) - 1
                hits &= (1 << best[0]) - 1 if best else -1
                if hits:
                    s = (hits & -hits).bit_length() - 1
                    mine = first >> s & rep
                    bit = (mine & -mine).bit_length() - 1 + s
                    best = (s, block << bits | bit // size, next(
                        w for w in range(n) if falsified[w] >> bit & 1))
                    if s == 0:
                        break
            if best is not None:
                s, v, world = best
                _, pairs, domains = structures[start + s]
                atoms = _atoms(signature, n, range(p))
                valuation = frozenset(atoms[k] for k in range(width)
                                      if v >> k & 1)
                return KripkeModel(n, pairs, domains, valuation), world
        if count < len(structures):
            limit, what = ((MAX_VALUATIONS, "valuations")
                           if by_valuations <= by_assignments
                           else (MAX_ASSIGNMENTS, "assignments"))
            raise SemanticsError(
                f"search out of reach: more than {limit} {what} at "
                f"bounds ({max_worlds}, {max_individuals})")
    return None
