"""Labeled and nested sequents.

A labeled sequent is a pair of formula multisets indexed by labels,
together with a multiset of relational atoms wRu and domain atoms
x in D(w).  A nested sequent is a tree of components, each holding a
multiset of left formulas, a multiset of variables taken to exist at
that component, and a multiset of right formulas.

Both kinds are immutable values.  The flat multisets are stored in a
canonical sorted order so that multiset equality coincides with
structural equality; the children of a nested component keep the order
they were built in, and canonical() sorts them recursively by label
when order-insensitive comparison is wanted.

A labeled sequent whose relational atoms form a tree (and whose other
atoms only mention labels of that tree) translates to a nested sequent
and back without loss; the two translations here are inverse to each
other on such sequents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate

from .syntax import (MAX_DEPTH, Formula, alpha_canonical, all_vars,
                     render_formula)


class SequentError(Exception):
    pass


class NotATreeError(SequentError):
    pass


class DuplicateLabelError(SequentError):
    pass


def label_key(label: str):
    # short-before-long keeps w2 ahead of w10
    return (len(label), label)


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

@dataclass(frozen=True)
class LabeledSequent:
    """rel holds pairs (w, u) for wRu; dom holds pairs (x, w) for
    x in D(w); left and right hold pairs (w, formula)."""
    rel: tuple[tuple[str, str], ...] = ()
    dom: tuple[tuple[str, str], ...] = ()
    left: tuple[tuple[str, Formula], ...] = ()
    right: tuple[tuple[str, Formula], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rel", tuple(
            sorted(self.rel, key=lambda a: (label_key(a[0]), label_key(a[1])))))
        object.__setattr__(self, "dom", tuple(
            sorted(self.dom, key=lambda a: (a[0], label_key(a[1])))))
        for slot in ("left", "right"):
            object.__setattr__(self, slot, tuple(
                sorted(getattr(self, slot),
                       key=lambda a: (label_key(a[0]), formula_key(a[1])))))

    def labels(self) -> frozenset[str]:
        out = set()
        for w, u in self.rel:
            out.add(w)
            out.add(u)
        for _, w in self.dom:
            out.add(w)
        for w, _ in self.left:
            out.add(w)
        for w, _ in self.right:
            out.add(w)
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
        fields = {"rel": self.rel, "dom": self.dom,
                  "left": self.left, "right": self.right}
        fields.update(changes)
        return LabeledSequent(**fields)

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
    return labeled_alpha_key(a) == labeled_alpha_key(b)


def is_labeled_tree(seq: LabeledSequent) -> tuple[bool, str | None]:
    """Do the relational atoms form a tree covering every label used?

    Returns (True, root) on success.  A sequent with no relational
    atoms qualifies when it mentions at most one label; if it mentions
    none at all the root comes back as None.
    """
    every = seq.labels()
    if not seq.rel:
        if len(every) > 1:
            return (False, None)
        return (True, next(iter(every), None))

    parent: dict[str, str] = {}
    for w, u in seq.rel:
        if u in parent:
            return (False, None)  # duplicate atom or second in-edge
        parent[u] = w
    rel_labels = set(parent)
    for w, _ in seq.rel:
        rel_labels.add(w)
    roots = [l for l in rel_labels if l not in parent]
    if len(roots) != 1:
        return (False, None)
    root = roots[0]
    for start in rel_labels:
        seen = {start}
        node = start
        while node != root:
            node = parent[node]
            if node in seen:
                return (False, None)
            seen.add(node)
    if not every <= rel_labels:
        return (False, None)
    return (True, root)


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

    def replace_component(self, label: str, builder) -> NestedSequent:
        """Rebuild the tree with builder applied to the component named
        label; builder maps a NestedSequent to its replacement."""
        def rebuild(node: NestedSequent) -> NestedSequent:
            if node.label == label:
                return builder(node)
            return NestedSequent(node.label, node.left, node.vars, node.right,
                                 tuple(rebuild(c) for c in node.children))
        if self.find(label) is None:
            raise SequentError(f"no component labeled {label}")
        return rebuild(self)

    def canonical(self) -> NestedSequent:
        """Sort children recursively by label for order-insensitive use."""
        kids = tuple(sorted((c.canonical() for c in self.children),
                            key=lambda c: label_key(c.label)))
        return NestedSequent(self.label, self.left, self.vars, self.right, kids)

    def __str__(self):
        return render_nested(self)


def check_unique_labels(phi: NestedSequent) -> None:
    seen = set()
    for label in phi.labels():
        if label in seen:
            raise DuplicateLabelError(f"label {label} occurs twice")
        seen.add(label)


def nested_alpha_key(phi: NestedSequent):
    node = phi.canonical()

    def key(n: NestedSequent):
        return (n.label,
                tuple(sorted(render_formula(alpha_canonical(f)) for f in n.left)),
                n.vars,
                tuple(sorted(render_formula(alpha_canonical(f)) for f in n.right)),
                tuple(key(c) for c in n.children))
    return key(node)


def nested_alpha_eq(a: NestedSequent, b: NestedSequent) -> bool:
    return nested_alpha_key(a) == nested_alpha_key(b)


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
    relational atom per child."""
    check_unique_labels(phi)
    rel, dom, left, right = [], [], [], []

    def walk(node: NestedSequent):
        for x in node.vars:
            dom.append((x, node.label))
        for f in node.left:
            left.append((node.label, f))
        for f in node.right:
            right.append((node.label, f))
        for child in node.children:
            rel.append((node.label, child.label))
            walk(child)

    walk(phi)
    return LabeledSequent(rel=tuple(rel), dom=tuple(dom),
                          left=tuple(left), right=tuple(right))


def to_nested(seq: LabeledSequent, root: str | None = None) -> NestedSequent:
    """Rebuild the component tree of a labeled tree sequent.  Children
    come out sorted by label.  The root argument only names the root of
    a sequent that mentions no label at all."""
    ok, tree_root = is_labeled_tree(seq)
    if not ok:
        raise NotATreeError(f"not a labeled tree sequent: {seq}")
    if tree_root is None:
        tree_root = root if root is not None else "w0"

    children: dict[str, list[str]] = {}
    for w, u in seq.rel:
        children.setdefault(w, []).append(u)
    for kids in children.values():
        kids.sort(key=label_key)

    def build(label: str) -> NestedSequent:
        return NestedSequent(
            label=label,
            left=tuple(f for w, f in seq.left if w == label),
            vars=tuple(x for x, w in seq.dom if w == label),
            right=tuple(f for w, f in seq.right if w == label),
            children=tuple(build(child) for child in children.get(label, [])))

    return build(tree_root)


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
