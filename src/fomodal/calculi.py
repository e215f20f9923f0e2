"""Sequent calculi: rule sets, rule application and proof checking.

Three calculi share one rule vocabulary:

* G3: the labeled ground calculus.  Besides the logical rules it takes
  a relational rule per frame condition: d for seriality, g(n,k) per
  closure condition, id and dd for increasing and decreasing domains,
  nd for nonempty domains.
* RefinedL: the labeled calculus with the relational rules other than
  d traded for reachability rules: p_dia propagates a diamond along a
  path whose string the path-condition system derives, s_ex1
  instantiates an existential with an available variable, and s_ex2
  (present for nonempty domains) instantiates with a fresh variable
  placed at a path-connected component.  The plain dia_r and exists_r
  are special cases of p_dia and s_ex1 and are left out.
* NestedN: the RefinedL rules on nested notation.  A nested sequent
  is a labeled tree sequent with a fixed root, so a NestedN rule is
  the RefinedL rule on the conclusion's cached labeled view; apply_rule
  writes each premise as a tree under the same root, children sorted
  by label.  check compares the stored premises' root labels and views
  instead, so it never rebuilds a nested premise.

A Mixed kind, union of G3 and RefinedL, exists so that the
intermediate stages of rule elimination can be checked.  Proofs are
walked and folded on one stack, by sequents.walk and sequents.fold.

Rules are applied bottom-up: apply_rule maps a conclusion to the tuple
of premises forced by the given parameters, raising when the principal
formula is absent, a freshness condition fails, or a side condition
does not hold.  The checker replays every node of a proof tree this
way and compares the stored premises against the recomputed ones up to
multiset equality and renaming of bound variables; the comparison is
structural first and counts alpha-canonical formulas only on a mismatch.
A node that replays leaves a mark on its conclusion's labeled view
(a labeled sequent is its own): the frame, rule, params and weak
references to the premise views, so a mark keeps no premise alive.
Every value in it is immutable, so a later check, of this proof or of
another reading of it, skips the replay when the mark holds the same
objects, compared by identity.  It asks again what the mark does not
stand for, in _view and _premise_view, which a replay goes through
too: that the rule is in the calculus, and under NestedN that the
sequents are nested, share the root label and hold the principal
label.  A miss replays the node.

Side conditions of the reachability rules ask for a path in the
conclusion whose string a rewriting system derives.  Which system and
start letter govern availability depends on the domain conditions:

    inc and dec   undirected system, forward letter
    inc only      directed system joined with the path productions, b
    dec only      the same system, d
    neither       a domain atom y in D(w) in the sequent itself
                  (for s_ex2: the target component is w itself)

Rule parameters carry any witness path, checked on the conclusion's
own atoms; only a rule that lacks one searches the propagation graph.
The conclusion keeps that graph, as it keeps its labels and a nested
sequent its view (propagation.graph_of): it is built once per sequent
and freed with it, and no process-wide cache of graphs grows.
The two system builders are cached per frame, in bounded caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from weakref import ref

from .grammar import BDIA, DIA, ThueSystem, derives, of_paths, s4, s5, union
from .propagation import PropPath, graph_of, path_in, reachable, witness_path
# not used here: kept so that calculi.build_graph and .fold still resolve
from .propagation import build_graph  # noqa: F401
from .sequents import fold  # noqa: F401
from .sequents import (DuplicateLabelError, LabeledSequent, NestedSequent,
                       labeled_alpha_eq, to_labeled, to_nested, walk)
from .syntax import (Bottom, Dia, Exists, Formula, FrameSpec, Neg, Or, Pred,
                     substitute)


class RuleApplicationError(Exception):
    pass


class RuleNotInCalculus(RuleApplicationError):
    pass


class PrincipalMissing(RuleApplicationError):
    pass


class FreshnessViolation(RuleApplicationError):
    pass


class SideConditionViolation(RuleApplicationError):
    pass


class MalformedParams(RuleApplicationError):
    pass


# ===================================================================
# Rule identifiers and calculus descriptions
# ===================================================================

@dataclass(frozen=True)
class RuleId:
    name: str
    path: tuple[int, int] | None = None

    def __str__(self):
        if self.path is not None:
            return f"g({self.path[0]},{self.path[1]})"
        return self.name


AX = RuleId("ax")
BOT_L = RuleId("bot_l")
NEG_L = RuleId("neg_l")
NEG_R = RuleId("neg_r")
OR_L = RuleId("or_l")
OR_R = RuleId("or_r")
DIA_L = RuleId("dia_l")
DIA_R = RuleId("dia_r")
EXISTS_L = RuleId("exists_l")
EXISTS_R = RuleId("exists_r")
D = RuleId("d")
ID = RuleId("id")
DD = RuleId("dd")
ND = RuleId("nd")
P_DIA = RuleId("p_dia")
S_EX1 = RuleId("s_ex1")
S_EX2 = RuleId("s_ex2")


def g_rule(n: int, k: int) -> RuleId:
    return RuleId("g", (int(n), int(k)))


RELATIONAL = ("g", "id", "dd", "nd")  # the rules refinement eliminates

KINDS = ("G3", "RefinedL", "NestedN", "Mixed")


@dataclass(frozen=True)
class CalculusSpec:
    kind: str
    frame: FrameSpec = field(default_factory=FrameSpec)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown calculus kind {self.kind!r}")


@dataclass(frozen=True)
class RuleParams:
    """Everything a rule instance needs beyond its conclusion.

    label names the principal component or world, target the secondary
    one (the created label for dia_l and d, the receiving label for
    dia_r, p_dia and s_ex2, the label holding the available variable
    for s_ex1, the far end of the relational atom for id and dd).
    chain_u and chain_v instantiate the two premise paths of g(n,k),
    sharing their first label.  witness carries the propagation path a
    reachability rule relies on."""
    label: str | None = None
    target: str | None = None
    formula: Formula | None = None
    variable: str | None = None
    chain_u: tuple[str, ...] | None = None
    chain_v: tuple[str, ...] | None = None
    witness: PropPath | None = None


@dataclass(frozen=True)
class ProofTree:
    conclusion: LabeledSequent | NestedSequent
    rule: RuleId
    params: RuleParams = field(default_factory=RuleParams)
    premises: tuple[ProofTree, ...] = ()

    def size(self) -> int:
        return sum(1 for _ in self.walk())

    def height(self) -> int:
        return 1 + max(len(path) for path, _ in self.walk())

    def walk(self):
        """(path, node) for every node in preorder, on one stack."""
        return walk(self)

    def at(self, path) -> ProofTree:
        node = self
        for i in path:
            node = node.premises[i]
        return node


_LOGICAL = (AX, BOT_L, NEG_L, NEG_R, OR_L, OR_R, DIA_L, EXISTS_L)


@lru_cache(maxsize=256)
def rule_set(calc: CalculusSpec) -> frozenset[RuleId]:
    frame = calc.frame
    rules = set(_LOGICAL)
    if frame.serial:
        rules.add(D)
    if calc.kind in ("G3", "Mixed"):
        rules.add(DIA_R)
        rules.add(EXISTS_R)
        rules |= {g_rule(n, k) for n, k in frame.paths}
        if frame.inc:
            rules.add(ID)
        if frame.dec:
            rules.add(DD)
        if frame.nonempty:
            rules.add(ND)
    if calc.kind in ("RefinedL", "NestedN", "Mixed"):
        rules.add(P_DIA)
        rules.add(S_EX1)
        if frame.nonempty:
            rules.add(S_EX2)
    return frozenset(rules)


# ===================================================================
# Side conditions of the reachability rules
# ===================================================================

@lru_cache(maxsize=64)
def propagation_system(frame: FrameSpec) -> ThueSystem:
    return of_paths(frame.paths)


@lru_cache(maxsize=64)
def availability_system(frame: FrameSpec) -> tuple[ThueSystem, str] | None:
    """System and start letter governing availability, or None when
    neither domain-monotonicity condition is present."""
    if frame.inc and frame.dec:
        return (s5(), DIA)
    if frame.inc:
        return (union(s4(), of_paths(frame.paths)), BDIA)
    if frame.dec:
        return (union(s4(), of_paths(frame.paths)), DIA)
    return None


@dataclass(frozen=True)
class Condition:
    holds: bool
    witness: PropPath | None = None
    target: str | None = None
    reason: str = ""


def side_condition(calc: CalculusSpec, rule: RuleId, seq, params: RuleParams) -> Condition:
    """Evaluate the side condition of p_dia, s_ex1 or s_ex2 on the
    given conclusion.  A stored witness is checked on the sequent;
    otherwise a witness is searched for on its graph and returned."""
    frame = calc.frame

    if rule == P_DIA:
        if params.label is None or params.target is None:
            raise MalformedParams("p_dia needs label and target")
        return _path_condition(seq, propagation_system(frame), DIA,
                               params.label, params.target, params.witness)

    if rule == S_EX1:
        if params.label is None or params.variable is None:
            raise MalformedParams("s_ex1 needs label and variable")
        avail = availability_system(frame)
        if avail is None:
            ok = (params.variable, params.label) in seq.dom
            return Condition(ok, None, params.label,
                             "" if ok else
                             f"no atom {params.variable} in D({params.label})")
        system, char = avail
        if params.target is not None:
            if (params.variable, params.target) not in seq.dom:
                return Condition(False, None, None,
                                 f"{params.variable} not known at {params.target}")
            return _path_condition(seq, system, char, params.label,
                                   params.target, params.witness)
        # search every label that knows the variable
        graph = graph_of(seq)
        for target in sorted(reachable(graph, system, char, params.label)):
            if params.variable in graph.vertices[target]:
                path = witness_path(graph, system, char, params.label, target)
                return Condition(True, path, target)
        return Condition(False, None, None,
                         f"{params.variable} not available for {params.label}")

    if rule == S_EX2:
        if params.label is None or params.target is None:
            raise MalformedParams("s_ex2 needs label and target")
        avail = availability_system(frame)
        if avail is None:
            ok = params.target == params.label
            return Condition(ok, None, params.target,
                             "" if ok else "target must equal the principal label")
        system, char = avail
        return _path_condition(seq, system, char, params.label,
                               params.target, params.witness)

    raise MalformedParams(f"rule {rule} has no side condition")


def _path_condition(seq: LabeledSequent, system: ThueSystem, char: str,
                    source: str, target: str, stored: PropPath | None) -> Condition:
    if stored is not None:
        if stored.source != source or stored.target != target:
            return Condition(False, None, None,
                             f"witness connects {stored.source} to {stored.target}, "
                             f"wanted {source} to {target}")
        if not path_in(seq, stored):
            return Condition(False, None, None, "witness uses a missing edge")
        if not derives(system, char, stored.string()):
            return Condition(False, None, None,
                             f"witness string {stored.string() or 'eps'} not derivable")
        return Condition(True, stored, target)
    path = witness_path(graph_of(seq), system, char, source, target)
    if path is None:
        return Condition(False, None, None,
                         f"no admissible path from {source} to {target}")
    return Condition(True, path, target)


# ===================================================================
# Rule application
# ===================================================================

def apply_rule(calc: CalculusSpec, seq, rule: RuleId,
               params: RuleParams) -> tuple:
    """Premises of the rule instance, as sequents, in schema order.

    A NestedN rule is applied to the labeled view of its conclusion,
    and each premise is read back as a tree under the same root."""
    view = _view(calc, rule_set(calc), seq, rule, params)
    premises = _apply_labeled(calc, view, rule, params)
    return premises if calc.kind != "NestedN" else tuple(
        to_nested(premise, root=seq.label) for premise in premises)


def _view(calc: CalculusSpec, rules: frozenset[RuleId], seq, rule: RuleId,
          params: RuleParams) -> LabeledSequent:
    """The labeled sequent a rule instance is applied to, after the
    checks that come before the rule's own: seq itself, or under NestedN
    its view; rules is rule_set(calc).  check asks these of every node,
    marked or not."""
    if rule not in rules:
        raise RuleNotInCalculus(f"{rule} is not a rule of {calc.kind} "
                                f"over this frame")
    if calc.kind != "NestedN":
        if not isinstance(seq, LabeledSequent):
            raise MalformedParams(f"{calc.kind} proofs use labeled sequents")
        return seq
    if not isinstance(seq, NestedSequent):
        raise MalformedParams("NestedN proofs use nested sequents")
    if params.label is None:
        raise MalformedParams("missing component label")
    view = to_labeled(seq)
    # only a lone empty root is missing from its view
    if params.label != seq.label and params.label not in view.labels():
        raise SideConditionViolation(f"no component labeled {params.label}")
    return view


def _fresh_label(seq: LabeledSequent, label: str):
    if label is None:
        raise MalformedParams("missing created label")
    if label in seq.labels():
        raise FreshnessViolation(f"label {label} already occurs")


def _fresh_var(seq: LabeledSequent, var: str):
    if var is None:
        raise MalformedParams("missing created variable")
    if var in seq.variables():
        raise FreshnessViolation(f"variable {var} already occurs")


def _known_label(seq: LabeledSequent, label: str):
    if label is None:
        raise MalformedParams("missing label")
    labels = seq.labels()
    if labels and label not in labels:
        raise SideConditionViolation(f"label {label} does not occur in the conclusion")


# the principal of a logical rule: its connective, its name, and the slot
# it is dropped from, None when it is kept on the right
_PRINCIPAL = {
    "neg_l": (Neg, "a negation", "left"), "neg_r": (Neg, "a negation", "right"),
    "or_l": (Or, "a disjunction", "left"), "or_r": (Or, "a disjunction", "right"),
    "dia_l": (Dia, "a diamond", "left"), "dia_r": (Dia, "a diamond", None),
    "p_dia": (Dia, "a diamond", None),
    "exists_l": (Exists, "an existential", "left"),
    "exists_r": (Exists, "an existential", None),
    "s_ex1": (Exists, "an existential", None),
    "s_ex2": (Exists, "an existential", None),
}


def _apply_labeled(calc: CalculusSpec, seq: LabeledSequent, rule: RuleId,
                   p: RuleParams) -> tuple:
    name = rule.name
    principal = _PRINCIPAL.get(name)
    if principal is not None:
        kind, what, slot = principal
        if not isinstance(p.formula, kind):
            raise MalformedParams(f"principal must be {what}")
        item = (p.label, p.formula)
        if item not in getattr(seq, slot or "right"):
            what = "principal " + what.split()[1]
            raise PrincipalMissing(f"{what} not present" if slot
                                   else f"{what} missing on the right")
        drop = (slot, item)

    if name == "ax":
        if not isinstance(p.formula, Pred):
            raise MalformedParams("ax applies to an atomic formula")
        if (p.label, p.formula) not in seq.left:
            raise PrincipalMissing("atom missing on the left")
        if (p.label, p.formula) not in seq.right:
            raise PrincipalMissing("atom missing on the right")
        return ()

    if name == "bot_l":
        if (p.label, Bottom()) not in seq.left:
            raise PrincipalMissing("falsum missing on the left")
        return ()

    if name == "neg_l":
        return (seq.replace(drop, right=((p.label, p.formula.body),)),)

    if name == "neg_r":
        return (seq.replace(drop, left=((p.label, p.formula.body),)),)

    if name == "or_l":
        return (seq.replace(drop, left=((p.label, p.formula.left),)),
                seq.replace(drop, left=((p.label, p.formula.right),)))

    if name == "or_r":
        return (seq.replace(drop, right=((p.label, p.formula.left),
                                         (p.label, p.formula.right))),)

    if name == "dia_l":
        _fresh_label(seq, p.target)
        return (seq.replace(drop, rel=((p.label, p.target),),
                            left=((p.target, p.formula.body),)),)

    if name == "dia_r":
        if (p.label, p.target) not in seq.rel:
            raise SideConditionViolation(f"no relational atom {p.label}R{p.target}")
        return (seq.replace(right=((p.target, p.formula.body),)),)

    if name == "exists_l":
        _fresh_var(seq, p.variable)
        instance = substitute(p.formula.body, p.variable, p.formula.bound)
        return (seq.replace(drop, dom=((p.variable, p.label),),
                            left=((p.label, instance),)),)

    if name == "exists_r":
        if p.variable is None:
            raise MalformedParams("missing instantiating variable")
        if (p.variable, p.label) not in seq.dom:
            raise SideConditionViolation(f"no atom {p.variable} in D({p.label})")
        instance = substitute(p.formula.body, p.variable, p.formula.bound)
        return (seq.replace(right=((p.label, instance),)),)

    if name == "d":
        _known_label(seq, p.label)
        _fresh_label(seq, p.target)
        # the principal is taken even where the conclusion shows no label
        if p.target == p.label:
            raise FreshnessViolation(f"label {p.target} already occurs")
        return (seq.replace(rel=((p.label, p.target),)),)

    if name == "g":
        return _apply_g(seq, rule, p)

    if name in ("id", "dd"):
        # id carries the variable along the atom labelRtarget, dd back
        known, new = ((p.label, p.target) if name == "id"
                      else (p.target, p.label))
        if p.variable is None:
            raise MalformedParams("missing variable")
        if (p.label, p.target) not in seq.rel:
            raise SideConditionViolation(f"no relational atom {p.label}R{p.target}")
        if (p.variable, known) not in seq.dom:
            raise SideConditionViolation(f"no atom {p.variable} in D({known})")
        return (seq.replace(dom=((p.variable, new),)),)

    if name == "nd":
        _known_label(seq, p.label)
        _fresh_var(seq, p.variable)
        return (seq.replace(dom=((p.variable, p.label),)),)

    if name == "p_dia":
        condition = side_condition(calc, rule, seq, p)
        if not condition.holds:
            raise SideConditionViolation(condition.reason)
        return (seq.replace(right=((p.target, p.formula.body),)),)

    if name == "s_ex1":
        if p.variable is None:
            raise MalformedParams("missing instantiating variable")
        condition = side_condition(calc, rule, seq, p)
        if not condition.holds:
            raise SideConditionViolation(condition.reason)
        instance = substitute(p.formula.body, p.variable, p.formula.bound)
        return (seq.replace(right=((p.label, instance),)),)

    if name == "s_ex2":
        _fresh_var(seq, p.variable)
        condition = side_condition(calc, rule, seq, p)
        if not condition.holds:
            raise SideConditionViolation(condition.reason)
        instance = substitute(p.formula.body, p.variable, p.formula.bound)
        return (seq.replace(dom=((p.variable, p.target),),
                            right=((p.label, instance),)),)

    raise MalformedParams(f"unknown rule {rule}")


def _apply_g(seq: LabeledSequent, rule: RuleId, p: RuleParams) -> tuple:
    n, k = rule.path
    if p.chain_u is None or p.chain_v is None:
        raise MalformedParams("g needs chain_u and chain_v")
    if len(p.chain_u) != n + 1:
        raise MalformedParams(f"chain_u must list {n + 1} labels for g({n},{k})")
    if len(p.chain_v) != k + 1:
        raise MalformedParams(f"chain_v must list {k + 1} labels for g({n},{k})")
    if p.chain_u[0] != p.chain_v[0]:
        raise MalformedParams("both chains start at the same label")
    for chain in (p.chain_u, p.chain_v):
        for a, b in zip(chain, chain[1:]):
            if (a, b) not in seq.rel:
                raise SideConditionViolation(f"no relational atom {a}R{b}")
    if n == 0 and k == 0:
        _known_label(seq, p.chain_u[0])
    return (seq.replace(rel=((p.chain_u[-1], p.chain_v[-1]),)),)


# ===================================================================
# Proof checking
# ===================================================================

@dataclass(frozen=True)
class CheckReport:
    ok: bool
    node: tuple[int, ...] | None = None
    message: str = ""

    def __bool__(self):
        return self.ok


def _premise_view(given, root: str | None) -> LabeledSequent | None:
    """The labeled sequent a stored premise stands for: itself, or
    under NestedN (root not None) the view of a tree under the root.
    None when it is neither."""
    if root is None:
        return given if isinstance(given, LabeledSequent) else None
    if not isinstance(given, NestedSequent) or given.label != root:
        return None
    try:
        return to_labeled(given)
    except DuplicateLabelError:
        return None


def _marked(mark, frame: FrameSpec, node: ProofTree, given) -> bool:
    """Whether a replay mark was left by this very node: the same
    frame, rule, params and premise views, all compared by identity."""
    return (mark is not None and mark[0] is frame and mark[1] is node.rule
            and mark[2] is node.params and len(mark[3]) == len(given)
            # a dead reference reads None, as _premise_view of a misfit
            and all(view is not None and premise() is view
                    for premise, view in zip(mark[3], given)))


def check(calc: CalculusSpec, proof: ProofTree) -> CheckReport:
    """Replay every node; ok when each node's stored premises agree
    with the recomputed ones and every leaf is an axiom.  A node that
    replays leaves a mark on its view, and a node whose view is marked
    with the same frame, rule, params and premise views, all compared by
    identity, is not replayed again."""
    rules = rule_set(calc)
    frame = calc.frame
    root = None
    for path, node in proof.walk():
        try:
            view = _view(calc, rules, node.conclusion, node.rule, node.params)
            if calc.kind == "NestedN":
                root = node.conclusion.label
            given = [_premise_view(premise.conclusion, root)
                     for premise in node.premises]
            if _marked(view.__dict__.get("_replayed"), frame, node, given):
                continue
            premises = _apply_labeled(calc, view, node.rule, node.params)
        except (RuleApplicationError, DuplicateLabelError) as err:
            return CheckReport(False, path, f"{node.rule}: {err}")
        if len(premises) != len(node.premises):
            return CheckReport(
                False, path,
                f"{node.rule}: expected {len(premises)} premises, "
                f"proof has {len(node.premises)}")
        for i, (wanted, found) in enumerate(zip(premises, given)):
            if found is None or not labeled_alpha_eq(wanted, found):
                if root is not None:
                    wanted = to_nested(wanted, root=root)
                return CheckReport(
                    False, path + (i,),
                    f"premise {i} of {node.rule} does not match the rule: "
                    f"wanted {wanted}, found {node.premises[i].conclusion}")
        # weakly: a mark must not keep the proof above it alive
        view.__dict__["_replayed"] = (frame, node.rule, node.params,
                                      tuple(map(ref, given)))
    return CheckReport(True)
