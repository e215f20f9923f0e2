"""Labeled and nested sequents.

A labeled sequent is a pair of formula multisets indexed by labels,
together with a multiset of relational atoms wRu and domain atoms
x in D(w).  A nested sequent is a tree of components, each holding a
multiset of left formulas, a multiset of variables taken to exist at
that component, and a multiset of right formulas.

Both kinds are immutable values.  The flat multisets are stored in a
canonical sorted order so that multiset equality coincides with
structural equality; the children of a nested component keep the order
they were built in.

A labeled sequent whose relational atoms form a tree (and whose other
atoms only mention labels of that tree) translates to a nested sequent
and back without loss; the two translations here are inverse to each
other on such sequents.  A nested sequent keeps its labeled view: the
first to_labeled of it stores the flattened sequent on it, and
to_nested stores its input on its result, so each tree is flattened at
most once.  Comparison up to bound variable names, labeled_alpha_eq,
compares the sequents structurally first and renders alpha-canonical
keys only when they differ; nested_alpha_eq compares the root labels
and then the views, so the order of children does not matter there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter

from .syntax import (MAX_DEPTH, Formula, alpha_canonical, all_vars,
                     render_formula)


class SequentError(Exception):
    pass


class NotATreeError(SequentError):
    pass


class DuplicateLabelError(SequentError):
    pass


_first = itemgetter(0)
_second = itemgetter(1)


@lru_cache(maxsize=4096)
def formula_key(phi: Formula) -> str:
    return render_formula(phi)


def without_once(items: tuple, item) -> tuple:
    """Drop one occurrence of item, raising ValueError when absent."""
    out = list(items)
    out.remove(item)
    return tuple(out)


def fresh_label(taken, base: str = "w") -> str:
    """Next unused label of the form base<number>."""
    taken = set(taken)
    best = -1
    for name in taken:
        if name.startswith(base) and name[len(base):].isdigit():
            best = max(best, int(name[len(base):]))
    candidate = f"{base}{best + 1}"
    while candidate in taken:
        best += 1
        candidate = f"{base}{best + 1}"
    return candidate


# ===================================================================
# Labeled sequents
# ===================================================================

def _labeled_formula_key(item):
    return (len(item[0]), item[0], formula_key(item[1]))


# the canonical order of each slot of a labeled sequent; labels sort
# short-before-long, which keeps w2 ahead of w10.  Within one label,
# formulas sort by formula_key and variables by name, as in the
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
        out = set(map(_first, self.rel))
        out.update(map(_second, self.rel), map(_second, self.dom),
                   map(_first, self.left), map(_first, self.right))
        return frozenset(out)

    def variables(self) -> frozenset[str]:
        """Every variable occurring in the sequent, bound or free."""
        out = {x for x, _ in self.dom}
        for _, phi in self.left + self.right:
            out |= all_vars(phi)
        return frozenset(out)

    def formulas(self):
        for _, phi in self.left + self.right:
            yield phi

    def replace(self, **changes) -> LabeledSequent:
        """A copy with some slots changed; only those are sorted anew."""
        out = object.__new__(LabeledSequent)
        for slot, key in _SLOT_KEYS.items():
            object.__setattr__(out, slot, tuple(sorted(changes[slot], key=key))
                               if slot in changes else getattr(self, slot))
        return out

    def __str__(self):
        return render_labeled(self)


def compose(first: LabeledSequent, second: LabeledSequent) -> LabeledSequent:
    """Componentwise multiset union."""
    return LabeledSequent(rel=first.rel + second.rel,
                          dom=first.dom + second.dom,
                          left=first.left + second.left,
                          right=first.right + second.right)


def render_labeled(seq: LabeledSequent) -> str:
    parts = [f"{w}R{u}" for w, u in seq.rel]
    parts += [f"{x} in D({w})" for x, w in seq.dom]
    parts += [f"{w}: {render_formula(phi)}" for w, phi in seq.left]
    rights = [f"{w}: {render_formula(phi)}" for w, phi in seq.right]
    return f"{', '.join(parts)} |- {', '.join(rights)}".strip()


def parse_labeled(text: str) -> LabeledSequent:
    """Parse the form `wRu, x in D(w), w: phi |- u: psi`.

    Antecedent items are relational atoms aRb, domain atoms x in D(w),
    or labeled formulas; the succedent holds labeled formulas only.
    Commas inside parentheses do not split items.  A label must not
    contain a capital R, which is reserved as the atom separator.
    """
    from .syntax import parse_formula

    halves = _split_top(text, "|-")
    if len(halves) != 2:
        raise SequentError(f"expected exactly one |- in {text!r}")
    rel, dom, left, right = [], [], [], []

    def read(chunk: str, succedent: bool):
        chunk = chunk.strip()
        if not chunk:
            return
        m = re.fullmatch(r"([\w']+)\s+in\s+D\(([\w']+)\)", chunk)
        if m and not succedent:
            dom.append((m.group(1), m.group(2)))
            return
        m = re.fullmatch(r"([^R:()\s]+)R([^R:()\s]+)", chunk)
        if m and not succedent:
            rel.append((m.group(1), m.group(2)))
            return
        label, sep, body = chunk.partition(":")
        if not sep or not label.strip() or not body.strip():
            raise SequentError(f"cannot read sequent item {chunk!r}")
        (right if succedent else left).append(
            (label.strip(), parse_formula(body)))

    for chunk in _split_top(halves[0], ","):
        read(chunk, succedent=False)
    for chunk in _split_top(halves[1], ","):
        read(chunk, succedent=True)
    return LabeledSequent(tuple(rel), tuple(dom), tuple(left), tuple(right))


def labeled_alpha_key(seq: LabeledSequent):
    """Canonical value equal for sequents that differ only in bound
    variable names inside formulas."""
    return (seq.rel, seq.dom,
            tuple(sorted((w, render_formula(alpha_canonical(f))) for w, f in seq.left)),
            tuple(sorted((w, render_formula(alpha_canonical(f))) for w, f in seq.right)))


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
        phi = to_nested(seq)
    except NotATreeError:
        return (False, None)
    return (True, None if seq == LabeledSequent() else phi.label)


# ===================================================================
# Nested sequents
# ===================================================================

@dataclass(frozen=True)
class NestedSequent:
    """One component of a nested sequent tree: left formulas, variables
    known to exist here, right formulas, and child components."""
    label: str = "w0"
    left: tuple[Formula, ...] = ()
    vars: tuple[str, ...] = ()
    right: tuple[Formula, ...] = ()
    children: tuple[NestedSequent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(sorted(self.left, key=formula_key)))
        object.__setattr__(self, "vars", tuple(sorted(self.vars)))
        object.__setattr__(self, "right", tuple(sorted(self.right, key=formula_key)))
        object.__setattr__(self, "children", tuple(self.children))

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def labels(self) -> list[str]:
        return [node.label for node in self.walk()]

    def variables(self) -> frozenset[str]:
        out = set()
        for node in self.walk():
            out |= set(node.vars)
            for phi in node.left + node.right:
                out |= all_vars(phi)
        return frozenset(out)

    def find(self, label: str) -> NestedSequent | None:
        for node in self.walk():
            if node.label == label:
                return node
        return None

    def __str__(self):
        return render_nested(self)


def check_unique_labels(phi: NestedSequent) -> None:
    seen = set()
    for label in phi.labels():
        if label in seen:
            raise DuplicateLabelError(f"label {label} occurs twice")
        seen.add(label)


def nested_alpha_eq(a: NestedSequent, b: NestedSequent) -> bool:
    """Equality up to bound variable names and the order of children.
    Raises DuplicateLabelError when a label occurs twice in either."""
    return a.label == b.label and labeled_alpha_eq(to_labeled(a), to_labeled(b))


def shape_key(phi: NestedSequent):
    """Canonical value invariant under relabeling of components; used
    for loop checking during proof search."""
    def key(n: NestedSequent):
        return (tuple(sorted(render_formula(f) for f in n.left)),
                n.vars,
                tuple(sorted(render_formula(f) for f in n.right)),
                tuple(sorted(key(c) for c in n.children)))
    return key(phi)


# ===================================================================
# Translations
# ===================================================================

def to_labeled(phi: NestedSequent) -> LabeledSequent:
    """Flatten a nested sequent into a labeled sequent; each component
    contributes its formulas and variables at its own label and one
    relational atom per child.  The result is kept on phi as its view."""
    view = getattr(phi, "_view", None)
    if view is not None:
        return view
    check_unique_labels(phi)
    rel, dom, left, right = [], [], [], []
    for node in phi.walk():
        dom.extend((x, node.label) for x in node.vars)
        left.extend((node.label, f) for f in node.left)
        right.extend((node.label, f) for f in node.right)
        rel.extend((node.label, child.label) for child in node.children)
    view = LabeledSequent(rel=tuple(rel), dom=tuple(dom),
                          left=tuple(left), right=tuple(right))
    object.__setattr__(phi, "_view", view)
    return view


def to_nested(seq: LabeledSequent, root: str | None = None) -> NestedSequent:
    """Rebuild the component tree of a labeled tree sequent, with seq
    kept as its view.  Children come out sorted by label.  The root
    argument only names the root of a sequent that mentions no label
    at all.  Raises NotATreeError unless the relational atoms form a
    tree, one parent per child, that covers every label used."""
    kids: dict[str, list] = {}
    left: dict[str, list] = {}
    vars_: dict[str, list] = {}
    right: dict[str, list] = {}
    for w, u in seq.rel:
        kids.setdefault(w, []).append(u)
    for w, f in seq.left:
        left.setdefault(w, []).append(f)
    for x, w in seq.dom:
        vars_.setdefault(w, []).append(x)
    for w, f in seq.right:
        right.setdefault(w, []).append(f)
    parents = set(map(_second, seq.rel))
    labels = kids.keys() | parents | left.keys() | vars_.keys() | right.keys()
    tops = labels - parents
    if len(parents) < len(seq.rel) or len(tops) != (1 if labels else 0):
        raise NotATreeError(f"not a labeled tree sequent: {seq}")
    built = []
    put = object.__setattr__

    def build(label: str) -> NestedSequent:
        # the slots of seq are sorted, so each part already is in the
        # order NestedSequent keeps and need not be sorted again
        built.append(label)
        node = object.__new__(NestedSequent)
        put(node, "label", label)
        put(node, "left", tuple(left.get(label, ())))
        put(node, "vars", tuple(vars_.get(label, ())))
        put(node, "right", tuple(right.get(label, ())))
        put(node, "children", tuple([build(c) for c in kids.get(label, ())]))
        return node

    phi = build(next(iter(tops), "w0" if root is None else root))
    if len(built) < len(labels):  # a cycle away from the root
        raise NotATreeError(f"not a labeled tree sequent: {seq}")
    put(phi, "_view", seq)
    return phi


# ===================================================================
# Concrete syntax for nested sequents
# ===================================================================

def render_nested(phi: NestedSequent, top: bool = True) -> str:
    lefts = ", ".join(render_formula(f) for f in phi.left)
    vars_ = ", ".join(phi.vars)
    rights = [render_formula(f) for f in phi.right]
    rights += [f"[{render_nested(c, top=False)}]@{c.label}" for c in phi.children]
    body = f"{lefts} ; {vars_} |- {', '.join(rights)}"
    if top and phi.label != "w0":
        body = f"{body} @{phi.label}"
    return body


def _split_top(text: str, separator: str) -> list[str]:
    """Split on a separator at bracket depth zero."""
    parts = []
    depth = 0
    current = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
            if depth < 0:
                raise SequentError(f"unbalanced brackets in {text!r}")
        if depth == 0 and text.startswith(separator, i):
            parts.append("".join(current))
            current = []
            i += len(separator)
            continue
        current.append(c)
        i += 1
    if depth != 0:
        raise SequentError(f"unbalanced brackets in {text!r}")
    parts.append("".join(current))
    return parts


# child brackets of the nested notation; "[]" is a box, not a child
_CHILD_BRACKET = re.compile(r"\[\]|[][]")
_BRACKET_STEP = {"[": 1, "]": -1, "[]": 0}


def parse_nested(text: str, root_label: str = "w0") -> NestedSequent:
    """Parse the form `G ; x, y |- D, [ ... ]@u`.

    The three slots may each be empty.  Children are bracketed sequents
    in the right slot, each optionally tagged with @label; missing
    labels are filled in afterwards, counting up from w1, and the root
    may likewise be tagged with a trailing @label.  Children nest at
    most syntax.MAX_DEPTH brackets deep, like the connectives of a
    formula; deeper input is a SequentError.
    """
    from .syntax import parse_formula

    def parse_body(chunk: str) -> dict:
        halves = _split_top(chunk, "|-")
        if len(halves) != 2:
            raise SequentError(f"expected exactly one |- in {chunk!r}")
        front, back = halves
        front_parts = _split_top(front, ";")
        if len(front_parts) != 2:
            raise SequentError(f"expected exactly one ; before |- in {chunk!r}")
        left_texts, var_text = front_parts
        left = [parse_formula(t) for t in _split_top(left_texts, ",")
                if t.strip()]
        vars_ = []
        for t in _split_top(var_text, ","):
            t = t.strip()
            if not t:
                continue
            if not all(ch.isalnum() or ch in "_'" for ch in t):
                raise SequentError(f"bad variable name {t!r}")
            vars_.append(t)
        right = []
        kids = []
        for t in _split_top(back, ","):
            t = t.strip()
            if not t:
                continue
            if t.startswith("[") and not t.startswith("[]"):
                inner, _, tag = t.rpartition("]")
                inner = inner[1:]
                tag = tag.strip()
                if tag.startswith("@"):
                    label = tag[1:].strip()
                elif tag == "":
                    label = None
                else:
                    raise SequentError(f"bad child suffix {tag!r} in {t!r}")
                kids.append((label, parse_body(inner)))
            else:
                right.append(parse_formula(t))
        return {"left": left, "vars": vars_, "right": right, "kids": kids}

    # parse_body recurses once per child, and each level rescans its
    # text, so the depth is bounded before parsing starts
    steps = _CHILD_BRACKET.findall(text)
    if max(accumulate(map(_BRACKET_STEP.__getitem__, steps)),
           default=0) > MAX_DEPTH:
        raise SequentError(
            f"sequent nested more than {MAX_DEPTH} brackets deep")

    text = text.strip()
    root_tag = None
    # a trailing @label at depth zero names the root, unless it is glued
    # to a closing bracket and therefore tags a child
    tag_at = None
    depth = 0
    for i, c in enumerate(text):
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "@" and depth == 0:
            before = text[:i].rstrip()
            if not before.endswith("]"):
                tag_at = i
    if tag_at is not None:
        tag = text[tag_at + 1:].strip()
        if tag and all(ch.isalnum() or ch in "_'" for ch in tag):
            root_tag = tag
            text = text[:tag_at]

    tree = parse_body(text)

    taken = set()

    def collect(node):
        label = node.get("label")
        if label:
            taken.add(label)
        for l, kid in node["kids"]:
            if l:
                kid["label"] = l
            collect(kid)

    tree["label"] = root_tag or root_label
    collect(tree)
    taken.add(tree["label"])

    counter = [0]

    def build(node) -> NestedSequent:
        label = node.get("label")
        if not label:
            while True:
                counter[0] += 1
                label = f"w{counter[0]}"
                if label not in taken:
                    break
            taken.add(label)
        kids = tuple(build(kid) for _, kid in node["kids"])
        return NestedSequent(label=label, left=tuple(node["left"]),
                             vars=tuple(node["vars"]),
                             right=tuple(node["right"]), children=kids)

    phi = build(tree)
    check_unique_labels(phi)
    return phi
