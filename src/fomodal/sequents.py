"""Labeled and nested sequents, and walk, fold and spell, which walk,
fold and write trees, proofs and nested sequents alike, on one stack.

A labeled sequent is a pair of formula multisets indexed by labels,
together with a multiset of relational atoms wRu and domain atoms
x in D(w).  Its multisets are stored in a canonical sorted order, so
that multiset equality coincides with structural equality; replace
keeps that order by insertion.

A labeled sequent whose relational atoms form a tree (and whose other
atoms only mention labels of that tree) is read by components: its
components in preorder, each with its formulas, its variables and its
children in label order.  A nested sequent writes that tree as nested
components, whose children keep the order they were built in; it is
notation, for input, output and NestedN proofs.  to_nested is built on
components and to_labeled flattens a tree in one walk, which refuses a
repeated label; the two are inverse on tree sequents.  render_nested
writes its text with spell, and Tree gives NestedSequent and
calculi.ProofTree their ==, hash and repr on one stack.
update_components reads a premise's components from its conclusion's,
reading again only the labels a rule changed.  A nested sequent keeps
its labeled view: to_labeled stores the flattened sequent on it, and
to_nested (through nested_of) its input on its result.  The view keeps
the nested sequent only by a weak reference, which would otherwise
close a cycle that only the garbage collector frees; while that nested
sequent lives, to_nested of the view under the same root returns it.
to_labeled leaves the reference only on a tree whose children are in
label order, as to_nested writes them.  A labeled sequent keeps its
labels the same way, read on first use, propagation.graph_of keeps its
graph and calculi.check its replay mark; replace starts a copy without
any of them, and copies and pickles carry the four slots only.
labeled_alpha_eq, equality up to bound variable names, compares
structurally first and only on a mismatch counts the alpha-canonical
formulas of each side, by identity since formulas are interned;
nested_alpha_eq compares the root labels and the views.

parse_labeled and parse_nested read their notations from one token
stream of the formula parser, syntax._Parser, which also knows the
sequent punctuation; each formula is read by it with the checks
parse_formula makes.  Labels, tags and variables are identifiers, and
an unreadable item is a SequentError or a FormulaError.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter, namedtuple
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import count
from operator import attrgetter, itemgetter
from weakref import ref

from .syntax import (MAX_DEPTH, Formula, ParseError, _Parser, _tokenize,
                     alpha_canonical, all_vars, render_formula)


class SequentError(Exception):
    pass


class NotATreeError(SequentError):
    pass


class DuplicateLabelError(SequentError):
    pass


_first = itemgetter(0)
_second = itemgetter(1)
_children = attrgetter("children")


def fresh_label(taken, base: str = "w") -> str:
    """Next unused label of the form base<number>: one past the largest
    number in use."""
    numbers = [int(name[len(base):]) for name in taken
               if name.startswith(base) and name[len(base):].isdecimal()]
    return f"{base}{max(numbers, default=-1) + 1}"


def walk(root, children=attrgetter("premises")):
    """(path, node) for each node under root in preorder, on one stack;
    path lists child indices from root, and children(node), by default
    a proof node's premises, a node's children."""
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = children(node)
        i = len(kids)
        for kid in reversed(kids):
            i -= 1
            stack.append(((*path, i), kid))


def fold(root, build, children=attrgetter("premises")):
    """build(node, values) at every node under root, in a recursion's
    order on one stack: children left to right, then the node.
    children(node), by default a proof node's premises, is read on
    entering the node; values holds build's results for them."""
    values, stack = [], [(root, iter(children(root)), 0)]
    while stack:
        node, todo, start = stack[-1]
        for sub in todo:
            stack.append((sub, iter(children(sub)), len(values)))
            break
        else:
            stack.pop()
            values[start:] = [build(node, tuple(values[start:]))]
    return values[0]


def spell(root, parts, children=attrgetter("premises")):
    """The text of the tree under root, in one preorder pass on one
    stack: parts(node) gives the head and the tail of a node's text,
    between which its children's texts stand, separated by ', '."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
            continue
        head, tail = parts(node)
        out.append(head)
        stack.append(tail)
        kids = children(node)
        for i in range(len(kids) - 1, 0, -1):
            stack += (kids[i], ", ")
        if kids:
            stack.append(kids[0])
    return "".join(out)


class Tree:
    """Base of the frozen dataclasses whose last field holds their
    subtrees, NestedSequent and calculi.ProofTree, which are declared
    with eq=False and repr=False.  ==, hash and repr are those that
    dataclass would generate, children in order, but computed on one
    stack by walk, fold and spell, so that deep trees do not meet the
    recursion limit."""

    __slots__ = ()

    def _fields(self):
        """The names of the node's own fields, and of its children's."""
        *own, kids = (f.name for f in fields(self))
        return own, kids

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        own, kids = self._fields()
        own, kids = attrgetter(*own), attrgetter(kids)
        # equal child counts at every node so far keep the walks in step
        return all(own(x) == own(y) and len(kids(x)) == len(kids(y))
                   for (_, x), (_, y) in zip(walk(self, kids),
                                             walk(other, kids)))

    def __hash__(self):
        own, kids = self._fields()
        own = attrgetter(*own)
        return fold(self, lambda node, values: hash((*own(node), values)),
                    attrgetter(kids))

    def __repr__(self):
        own, kids = self._fields()

        def parts(node):
            values = ", ".join(f"{name}={getattr(node, name)!r}" for name in own)
            tail = ",))" if len(getattr(node, kids)) == 1 else "))"
            return f"{type(node).__qualname__}({values}, {kids}=(", tail

        return spell(self, parts, attrgetter(kids))


# ===================================================================
# Labeled sequents
# ===================================================================

def _labeled_formula_key(item):
    return (len(item[0]), item[0], render_formula(item[1]))


# the canonical order of each slot of a labeled sequent; labels sort
# short-before-long, which keeps w2 ahead of w10.  Within one label,
# formulas sort by their text and variables by name, as in the
# components of a NestedSequent, so to_nested need not sort again.
_SLOT_KEYS = {
    "rel": lambda atom: (len(atom[0]), atom[0], len(atom[1]), atom[1]),
    "dom": lambda atom: (atom[0], len(atom[1]), atom[1]),
    "left": _labeled_formula_key,
    "right": _labeled_formula_key,
}


@dataclass(frozen=True)
class LabeledSequent:
    """rel holds pairs (w, u) for wRu; dom holds pairs (x, w) for
    x in D(w); left and right hold pairs (w, formula)."""
    rel: tuple[tuple[str, str], ...] = ()
    dom: tuple[tuple[str, str], ...] = ()
    left: tuple[tuple[str, Formula], ...] = ()
    right: tuple[tuple[str, Formula], ...] = ()

    def __post_init__(self):
        for slot, key in _SLOT_KEYS.items():
            object.__setattr__(self, slot, tuple(sorted(getattr(self, slot),
                                                        key=key)))

    def labels(self) -> frozenset[str]:
        """Every label in the sequent, read once and kept on it."""
        labels = self.__dict__.get("_labels")
        if labels is None:
            out = set(map(_first, self.rel))
            out.update(map(_second, self.rel), map(_second, self.dom),
                       map(_first, self.left), map(_first, self.right))
            labels = frozenset(out)
            object.__setattr__(self, "_labels", labels)
        return labels

    def variables(self) -> frozenset[str]:
        """Every variable occurring in the sequent, bound or free."""
        out = {x for x, _ in self.dom}
        for _, phi in self.left + self.right:
            out |= all_vars(phi)
        return frozenset(out)

    def formulas(self):
        for _, phi in self.left + self.right:
            yield phi

    def replace(self, drop=None, **added) -> LabeledSequent:
        """A copy with one occurrence of drop, a (slot, item) pair, taken
        out and the items of each slot=items argument put in at their
        place in slot order; the other slots are shared.  Raises
        ValueError when drop is absent."""
        slots = {"rel": self.rel, "dom": self.dom, "left": self.left,
                 "right": self.right}
        if drop is not None:
            slot, item = drop
            items = list(slots[slot])
            items.remove(item)
            slots[slot] = tuple(items)
        for slot, new in added.items():
            items, key = list(slots[slot]), _SLOT_KEYS[slot]
            for item in new:
                insort(items, item, key=key)
            slots[slot] = tuple(items)
        out = object.__new__(LabeledSequent)
        out.__dict__.update(slots)
        return out

    def __getstate__(self):
        """Copies and pickles carry the four slots, not what is kept on
        the sequent: a weak reference cannot be pickled."""
        return {slot: getattr(self, slot) for slot in _SLOT_KEYS}

    def __str__(self):
        return render_labeled(self)


def render_labeled(seq: LabeledSequent) -> str:
    parts = [f"{w}R{u}" for w, u in seq.rel]
    parts += [f"{x} in D({w})" for x, w in seq.dom]
    parts += [f"{w}: {render_formula(phi)}" for w, phi in seq.left]
    rights = [f"{w}: {render_formula(phi)}" for w, phi in seq.right]
    return f"{', '.join(parts)} |- {', '.join(rights)}".strip()


def parse_labeled(text: str) -> LabeledSequent:
    """Parse the form `wRu, x in D(w), w: phi |- u: psi`.

    Antecedent items are relational atoms wRu, domain atoms x in D(w),
    or labeled formulas; the succedent holds labeled formulas only.
    Items are separated by commas, and empty items are skipped.  Labels
    and variables are identifiers, read as formula variables are; the
    labels of a relational atom contain no capital R, which separates
    them.  The text is one token stream of syntax._Parser.
    """
    parser = _Parser(text)
    slots = {"rel": [], "dom": [], "left": []}
    for slot, item in _slot(parser, _antecedent_item, "turnstile", "|-"):
        slots[slot].append(item)
    return LabeledSequent(
        right=_slot(parser, _succedent_item, "end", "the end"), **slots)


def _fault(token, wanted: str) -> SequentError:
    kind, value, pos = token
    found = repr(value) if value else "the end"
    return SequentError(f"expected {wanted}, found {found} (at column {pos + 1})")


def _take(parser: _Parser, kind: str, wanted: str) -> str:
    """The text of the next token, which must be of the given kind."""
    token = parser.next()
    if token[0] != kind:
        raise _fault(token, wanted)
    return token[1]


def _slot(parser: _Parser, read, stop: str, shown: str) -> list:
    """The items read by read up to the token kind stop, which is
    consumed; items are separated by commas, empty ones are skipped."""
    items = []
    while True:
        kind = parser.peek()[0]
        if kind == stop:
            parser.next()
            return items
        if kind == "comma":
            parser.next()
            continue
        items.append(read(parser))
        if parser.peek()[0] not in ("comma", stop):
            raise _fault(parser.peek(), f"a comma or {shown}")


_IN_D = [("ident", "in"), ("ident", "D"), ("lparen", "(")]


def _antecedent_item(parser: _Parser):
    """wRu, x in D(w) or w: phi, as a pair (slot, item)."""
    start = parser.peek()[2]
    word = _take(parser, "ident", "a label or a variable")
    if parser.peek()[0] == "colon":
        parser.next()
        return "left", (word, parser.checked_formula())
    if [token[:2] for token in parser.tokens[parser.pos:parser.pos + 3]] == _IN_D:
        parser.pos += 3
        label = _take(parser, "ident", "a label")
        _take(parser, "rparen", ")")
        return "dom", (word, label)
    # wRu is one identifier, or two glued together when w ends in a prime
    kind, value, pos = parser.peek()
    if kind == "ident" and pos == start + len(word) and word.endswith("'"):
        parser.next()
        word += value
    w, r, u = word.partition("R")
    if not (r and _rel_label(w) and _rel_label(u)):
        raise SequentError(f"cannot read sequent item at column {start + 1}")
    return "rel", (w, u)


@lru_cache(maxsize=4096)
def is_name(word: str) -> bool:
    """Is word one identifier token, as labels and variables are read?"""
    try:
        return _tokenize(word)[0][:2] == ("ident", word)
    except ParseError:
        return False


def _rel_label(word: str) -> bool:
    """Is word a name without a capital R?"""
    return "R" not in word and is_name(word)


def _succedent_item(parser: _Parser):
    label = _take(parser, "ident", "a label")
    _take(parser, "colon", ":")
    return label, parser.checked_formula()


def labeled_alpha_key(seq: LabeledSequent):
    """Canonical value equal for sequents that differ only in bound
    variable names inside formulas: each side counts its labeled
    alpha-canonical formulas, which are interned, so two distinct
    formulas never meet in one key even when they render alike."""
    return (seq.rel, seq.dom,
            Counter((w, alpha_canonical(f)) for w, f in seq.left),
            Counter((w, alpha_canonical(f)) for w, f in seq.right))


def labeled_alpha_eq(a: LabeledSequent, b: LabeledSequent) -> bool:
    """Equality up to bound variable names.  Equal sequents have equal
    keys, so the keys are built only when the sequents differ."""
    return a == b or labeled_alpha_key(a) == labeled_alpha_key(b)


def is_labeled_tree(seq: LabeledSequent) -> tuple[bool, str | None]:
    """Do the relational atoms form a tree covering every label used?

    Returns (True, root) on success.  A sequent with no relational
    atoms qualifies when it mentions at most one label; if it mentions
    none at all the root comes back as None.
    """
    try:
        root = components(seq)[0].label
    except NotATreeError:
        return (False, None)
    return (True, None if seq == LabeledSequent() else root)


# ===================================================================
# Nested sequents
# ===================================================================

@dataclass(frozen=True, eq=False, repr=False)
class NestedSequent(Tree):
    """One component of a nested sequent tree: left formulas, variables
    known to exist here, right formulas, and child components."""
    label: str = "w0"
    left: tuple[Formula, ...] = ()
    vars: tuple[str, ...] = ()
    right: tuple[Formula, ...] = ()
    children: tuple[NestedSequent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(sorted(self.left, key=render_formula)))
        object.__setattr__(self, "vars", tuple(sorted(self.vars)))
        object.__setattr__(self, "right", tuple(sorted(self.right, key=render_formula)))
        object.__setattr__(self, "children", tuple(self.children))

    def walk(self):
        """Every component in preorder, on one stack."""
        return map(_second, walk(self, _children))

    def labels(self) -> list[str]:
        return [node.label for node in self.walk()]

    def __str__(self):
        return render_nested(self)


def check_unique_labels(phi: NestedSequent) -> None:
    """Raise DuplicateLabelError when a label occurs twice in phi."""
    to_labeled(phi)


def nested_alpha_eq(a: NestedSequent, b: NestedSequent) -> bool:
    """Equality up to bound variable names and the order of children.
    Raises DuplicateLabelError when a label occurs twice in either."""
    return a.label == b.label and labeled_alpha_eq(to_labeled(a), to_labeled(b))


def shape_key(parts: tuple[Component, ...]):
    """Canonical value of a tree read by components, invariant under
    relabeling of its components; used for loop checking during proof
    search.  Formulas are already in the order of their texts."""
    keys = {}
    for comp in reversed(parts):
        keys[comp.label] = (tuple(map(render_formula, comp.left)), comp.vars,
                            tuple(map(render_formula, comp.right)),
                            tuple(sorted(map(keys.pop, comp.children))))
    return keys[parts[0].label]


# ===================================================================
# Translations
# ===================================================================

# one component of a labeled tree sequent: its formulas and variables,
# in slot order, and the labels of its children in label order
Component = namedtuple("Component", "label left vars right children")


def components(seq: LabeledSequent,
               root: str | None = None) -> tuple[Component, ...]:
    """The components of a labeled tree sequent in preorder.  The root
    argument only names the root of a sequent that mentions no label
    at all.  Raises NotATreeError unless the relational atoms form a
    tree, one parent per child, that covers every label used."""
    kids, left, vars_, right = {}, {}, {}, {}
    for table, pairs in ((kids, seq.rel), (left, seq.left), (right, seq.right),
                         (vars_, [(w, x) for x, w in seq.dom])):
        for w, item in pairs:
            table.setdefault(w, []).append(item)
    parents = set(map(_second, seq.rel))
    labels = kids.keys() | parents | left.keys() | vars_.keys() | right.keys()
    tops = labels - parents
    if len(parents) < len(seq.rel) or len(tops) != (1 if labels else 0):
        raise NotATreeError(f"not a labeled tree sequent: {seq}")
    # the slots of seq are sorted, so each part already is in the order
    # a NestedSequent keeps, and the children in label order
    out = []
    stack = [next(iter(tops), "w0" if root is None else root)]
    while stack:
        label = stack.pop()
        out.append(Component(label, tuple(left.get(label, ())),
                             tuple(vars_.get(label, ())),
                             tuple(right.get(label, ())),
                             tuple(kids.get(label, ()))))
        stack.extend(reversed(out[-1].children))
    if len(out) < len(labels):  # a cycle away from the root
        raise NotATreeError(f"not a labeled tree sequent: {seq}")
    return tuple(out)


def to_labeled(phi: NestedSequent) -> LabeledSequent:
    """Flatten a nested sequent into a labeled sequent; each component
    contributes its formulas and variables at its own label and one
    relational atom per child.  The result is kept on phi as its view,
    and phi on the view by a weak reference when its children are in
    label order, so that to_nested gives phi back.  Raises
    DuplicateLabelError when a label occurs twice."""
    view = getattr(phi, "_view", None)
    if view is not None:
        return view
    rel, dom, left, right, seen = [], [], [], [], set()
    in_order = True
    for node in phi.walk():
        if node.label in seen:
            raise DuplicateLabelError(f"label {node.label} occurs twice")
        seen.add(node.label)
        dom.extend((x, node.label) for x in node.vars)
        left.extend((node.label, f) for f in node.left)
        right.extend((node.label, f) for f in node.right)
        kids = [(len(child.label), child.label) for child in node.children]
        in_order = in_order and kids == sorted(kids)
        rel.extend((node.label, child.label) for child in node.children)
    view = LabeledSequent(rel=tuple(rel), dom=tuple(dom),
                          left=tuple(left), right=tuple(right))
    object.__setattr__(phi, "_view", view)
    if in_order:
        view.__dict__["_nested"] = ref(phi)
    return view


def update_components(parts: tuple[Component, ...], seq: LabeledSequent,
                      labels) -> tuple[Component, ...]:
    """The components of seq, given parts, the components of a tree
    sequent that agrees with seq except at the given labels, any new
    one a child of another.  Only those labels are read off seq; the
    preorder is walked again only when one of them is new."""
    fresh = {label: Component(label,
                              tuple([f for w, f in seq.left if w == label]),
                              tuple([x for x, w in seq.dom if w == label]),
                              tuple([f for w, f in seq.right if w == label]),
                              tuple([u for w, u in seq.rel if w == label]))
             for label in labels}
    out = [fresh.pop(comp.label, comp) for comp in parts]
    if not fresh:
        return tuple(out)
    table = {comp.label: comp for comp in out}
    table.update(fresh)
    order, stack = [], [out[0].label]
    while stack:
        order.append(table[stack.pop()])
        stack.extend(reversed(order[-1].children))
    return tuple(order)


def to_nested(seq: LabeledSequent, root: str | None = None) -> NestedSequent:
    """The nested sequent that components reads off a labeled tree
    sequent, with seq kept as its view; children come out sorted by
    label.  While the nested sequent whose view seq last became is
    alive and has that root, that one is returned.  Raises
    NotATreeError as components does."""
    kept = seq.__dict__.get("_nested")
    phi = None if kept is None else kept()
    # only a sequent without labels takes its root from the argument
    if phi is not None and (seq.labels() or phi.label == (root or "w0")):
        return phi
    return nested_of(components(seq, root), seq)


def nested_of(parts: tuple[Component, ...],
              seq: LabeledSequent) -> NestedSequent:
    """The nested sequent whose components are parts, the components of
    seq, with seq kept as its view.  seq keeps it by a weak reference,
    which to_nested reads; a strong one would make a cycle with the
    view that only the garbage collector frees."""
    built = {}
    # reversed preorder builds every child before its parent; the parts
    # already are in the order NestedSequent keeps, so its fields are
    # set directly
    for label, left, vars_, right, children in reversed(parts):
        node = built[label] = object.__new__(NestedSequent)
        node.__dict__.update(label=label, left=left, vars=vars_, right=right,
                             children=tuple(map(built.pop, children)))
    phi = built[parts[0].label]
    object.__setattr__(phi, "_view", seq)
    seq.__dict__["_nested"] = ref(phi)
    return phi


# ===================================================================
# Concrete syntax for nested sequents
# ===================================================================

def render_nested(phi: NestedSequent) -> str:
    """The text of phi: each component's left formulas, variables and
    right formulas, then its children as [text]@label."""
    def parts(node):
        rights = ", ".join(map(render_formula, node.right))
        if rights and node.children:
            rights += ", "
        body = (f"{', '.join(map(render_formula, node.left))} ; "
                f"{', '.join(node.vars)} |- {rights}")
        if node is not phi:
            return "[" + body, f"]@{node.label}"
        return body, "" if phi.label == "w0" else f" @{phi.label}"

    return spell(phi, parts, _children)


def _body(parser: _Parser, label: str | None) -> dict:
    """The left formulas and the variables of a body, read through its
    |-; its right slot is read by parse_nested."""
    left = _slot(parser, _Parser.checked_formula, "semi", ";")
    vars_ = _slot(parser, lambda p: _take(p, "ident", "a variable"),
                  "turnstile", "|-")
    return {"label": label, "left": left, "vars": vars_, "right": [],
            "kids": []}


def parse_nested(text: str) -> NestedSequent:
    """Parse the form `G ; x, y |- D, [ ... ]@u`.

    The three slots may each be empty, and empty items are skipped.
    Children are bracketed sequents in the right slot, each optionally
    tagged with @label; missing labels are filled in afterwards,
    counting up from w1 in preorder.  The root is w0 unless the text
    ends with a trailing @label.  Labels and variables are
    identifiers, read as formula variables are.  Children nest at most
    syntax.MAX_DEPTH brackets deep; deeper input is a SequentError.
    The text is one token stream of syntax._Parser, read left to right
    once; a stack holds the open bodies.
    """
    parser = _Parser(text)
    order = [_body(parser, "w0")]
    stack = order[:]
    while stack:
        node = stack[-1]
        kind = parser.peek()[0]
        if kind == "comma":
            parser.next()
            continue
        if kind == "lbrack":
            if len(stack) > MAX_DEPTH:
                raise SequentError(
                    f"sequent nested more than {MAX_DEPTH} brackets deep")
            parser.next()
            kid = _body(parser, None)
            node["kids"].append(kid)
            order.append(kid)
            stack.append(kid)
            continue
        if kind in ("rbrack", "at", "end"):
            # the body ends: a child's at its ], the root's at the end
            if len(stack) > 1:
                _take(parser, "rbrack", "]")
            if parser.peek()[0] == "at":
                parser.next()
                node["label"] = _take(parser, "ident", "a label")
            stack.pop()
            if not stack:
                _take(parser, "end", "the end")
                break
        else:
            node["right"].append(parser.checked_formula())
        if parser.peek()[0] not in ("comma", "rbrack", "at", "end"):
            raise _fault(parser.peek(), "a comma")

    taken = {node["label"] for node in order}
    fresh = (f"w{n}" for n in count(1) if f"w{n}" not in taken)
    for node in order:
        node["label"] = node["label"] or next(fresh)
    for node in reversed(order):
        node["seq"] = NestedSequent(
            node["label"], node["left"], node["vars"],
            node["right"], [kid["seq"] for kid in node["kids"]])
    check_unique_labels(order[0]["seq"])
    return order[0]["seq"]
