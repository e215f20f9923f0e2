"""Backward proof search in the nested calculus.

A nested sequent is notation for a labeled tree sequent with a fixed
root, so the search runs the refined labeled rules on the goal's view,
reading components in preorder.  It commits to every invertible step:
closure is tried first, then propositional decomposition, then
the reachability rules p_dia and s_ex1 (which keep their principal
formula, so applying them loses nothing; an instance is skipped when
its conclusion formula is already present), then the creating but
still invertible dia_l and exists_l.  Only d and s_ex2 are genuine
choice points and are tried with backtracking, at most once per
component respectively per (principal, target) pair on a branch.

Termination comes from a cap on the number of creating steps (new
components and new variables) per branch, driven by iterative
deepening, plus a loop check on the relabeling-invariant shape of the
sequent.  When a round finishes without ever hitting a cap, the space
has been explored exhaustively and the goal has no proof at any cap,
which Exhausted reports as complete=True.

The search carries its reading down: a premise's components are those
of its conclusion with only the labels the rule instance names read
again off the premise apply_rule returns.  p_dia is probed by one set
per principal component, the labels its diamonds reach in the closure
side_condition reads, so side_condition is asked only for the instance
applied.  The proof found is written in nested notation once, from the
components the search recorded for its nodes, and replayed through the
proof checker under NestedN.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields, replace

from .calculi import (AX, BOT_L, D, DIA_L, EXISTS_L, NEG_L, NEG_R, OR_L, OR_R,
                      P_DIA, S_EX1, S_EX2, CalculusSpec, ProofTree, RuleParams,
                      apply_rule, check, fold, propagation_system, rule_set,
                      side_condition)
from .grammar import DIA
from .propagation import build_graph, reachable
from .sequents import (LabeledSequent, NestedSequent, components, fresh_label,
                       nested_of, shape_key, to_labeled, update_components)
from .syntax import (Bottom, Dia, Exists, Formula, FrameSpec, Neg, Or, Pred,
                     fresh_variable, substitute)


class ProverError(Exception):
    pass


# deeper searches could pass Python's default recursion limit: two frames
# per level, and the node at the bound may render a syntax.MAX_DEPTH formula
MAX_SEARCH_DEPTH = 300


@dataclass(frozen=True)
class SearchBudget:
    max_creations: int = 8
    max_depth: int = 200
    max_nodes: int = 100000

    def __post_init__(self):
        for limit in fields(self):
            if getattr(self, limit.name) < 0:
                raise ValueError(f"{limit.name} must not be negative, "
                                 f"got {getattr(self, limit.name)}")
        if self.max_depth > MAX_SEARCH_DEPTH:
            raise ValueError(f"max_depth must be at most {MAX_SEARCH_DEPTH}, "
                             f"got {self.max_depth}")


@dataclass(frozen=True)
class Proved:
    proof: ProofTree
    nodes: int

    def __bool__(self):
        return True


@dataclass(frozen=True)
class Exhausted:
    reason: str
    complete: bool
    nodes: int

    def __bool__(self):
        return False


class _Abort(Exception):
    pass


# a node of a proof the search found: its labeled conclusion, the
# components the search read off it, the rule instance and the nodes
# of its premises
_Found = namedtuple("_Found", "seq parts rule params premises")


class _Search:
    def __init__(self, calc: CalculusSpec, budget: SearchBudget, cap: int):
        self.calc = calc
        self.rules = rule_set(calc)
        self.propagation = propagation_system(calc.frame)
        self.budget = budget
        self.cap = cap
        self.nodes = 0
        self.cut = False

    def run(self, goal: NestedSequent) -> _Found | None:
        seq = to_labeled(goal)
        return self._attack(seq, components(seq, goal.label), self.cap, 0)

    def _attack(self, seq: LabeledSequent, comps, creations: int, depth: int,
                history=frozenset(), applied=frozenset()) -> _Found | None:
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            self.cut = True
            raise _Abort
        if depth > self.budget.max_depth:
            self.cut = True
            return None

        # closure, on the components in preorder
        for comp in comps:
            for f in comp.left:
                if isinstance(f, Bottom):
                    return _Found(seq, comps, BOT_L,
                                  RuleParams(label=comp.label), ())
                if isinstance(f, Pred) and f in comp.right:
                    return _Found(seq, comps, AX,
                                  RuleParams(label=comp.label, formula=f), ())

        # reads history when called, so the choice points below pass on
        # the shape they add to it
        def down(rule, params, spent=0, mark=None):
            marked = applied if mark is None else applied | {mark}
            labels = _named(params)
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

        # propositional decomposition, fully invertible
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

        # reachability rules keep their principal: saturate, at most once
        # per instance on a branch since a second application is redundant
        # by admissibility of contraction.  The labels a diamond at comp
        # reaches are read once from the closure that side_condition
        # reads, so it is asked only for the instance applied.
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

        # creating but invertible: commit when the cap allows
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

        # genuine choice points, backtracking
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


def _named(params: RuleParams) -> tuple[str, ...]:
    """The labels a rule instance names, the only ones its premises
    change."""
    return tuple(label for label in (params.label, params.target)
                 if label is not None)


def prove_sequent(frame: FrameSpec, goal: NestedSequent,
                  budget: SearchBudget | None = None) -> Proved | Exhausted:
    """Search for a nested proof of the goal over the given frame."""
    budget = budget or SearchBudget()
    calc = CalculusSpec("RefinedL", frame)
    total = 0
    for cap in range(budget.max_creations + 1):
        search = _Search(calc, budget, cap)
        aborted = False
        try:
            found = search.run(goal)
        except _Abort:
            found = None
            aborted = True
        total += search.nodes
        if found is not None:
            proof = _nested(found, goal)
            report = check(CalculusSpec("NestedN", frame), proof)
            if not report.ok:
                raise ProverError(f"search produced a broken proof: "
                                  f"{report.message}")
            return Proved(proof, total)
        if not search.cut:
            return Exhausted("no proof exists for this goal", True, total)
        if aborted:
            return Exhausted("node limit reached", False, total)
    return Exhausted(f"no proof within {budget.max_creations} creating steps",
                     False, total)


def _nested(found: _Found, goal: NestedSequent) -> ProofTree:
    """The proof found written over the goal, each premise built from
    the components the search read off it."""
    proof = fold(found, lambda node, premises: ProofTree(
        nested_of(node.parts, node.seq), node.rule, node.params, premises))
    return ProofTree(goal, proof.rule, proof.params, proof.premises)


def prove_formula(frame: FrameSpec, phi: Formula,
                  budget: SearchBudget | None = None) -> Proved | Exhausted:
    goal = NestedSequent("w0", (), (), (phi,), ())
    return prove_sequent(frame, goal, budget)
