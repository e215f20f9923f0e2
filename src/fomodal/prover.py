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

The rounds of one prove_sequent call share their nodes.  All the search
decides at a node but whether a creation is left (the closure, the step
it commits to, the shape key, the d and s_ex2 instances) is planned the
first time a round reaches it, and the premises of each step it takes
are built once.  A later round replays those plans and premises: it
applies no rule again, and asks each s_ex2 side condition once, when a
round first reaches the node with a creation to spend.  The nodes a
result reports count visits, in every round, replayed ones included.

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

from dataclasses import dataclass, fields, replace

from .calculi import (AX, BOT_L, D, DIA_L, EXISTS_L, NEG_L, NEG_R, OR_L, OR_R,
                      P_DIA, S_EX1, S_EX2, CalculusSpec, ProofTree, RuleParams,
                      apply_rule, check, propagation_system, rule_set,
                      side_condition)
from .grammar import DIA
from .propagation import graph_of, reachable
from .sequents import (LabeledSequent, NestedSequent, components, fold,
                       fresh_label, nested_of, shape_key, to_labeled,
                       update_components)
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


class _Step:
    """A rule instance a node's plan takes: the creations it spends, the
    mark it adds to the branch's applied instances, and the nodes of its
    premises once a round has taken it (none for a closure)."""
    __slots__ = ("rule", "params", "spent", "mark", "premises")

    def __init__(self, rule, params, spent=0, mark=None, premises=None):
        self.rule, self.params, self.spent = rule, params, spent
        self.mark, self.premises = mark, premises


class _Node:
    """A search node, kept by every round of one prove_sequent call.
    Its plan is what _attack decides there apart from the cap: step, the
    closure or the committed invertible step, else the creating step;
    key, the shape the choice points add to the history, None when the
    loop check prunes the node; choices, the d and s_ex2 steps.  The
    s_ex2 side conditions are asked once the node is reached with a
    creation to spend, and the steps whose condition fails dropped.
    proved is the step by which the latest round proved the node."""
    __slots__ = ("seq", "comps", "step", "key", "choices", "checked",
                 "proved")

    def __init__(self, seq, comps):
        self.seq, self.comps = seq, comps
        self.choices = None
        self.checked = False


class _Search:
    def __init__(self, calc: CalculusSpec, budget: SearchBudget):
        self.calc = calc
        self.rules = rule_set(calc)
        self.propagation = propagation_system(calc.frame)
        self.budget = budget

    def run(self, root: _Node, cap: int) -> bool:
        """One round of iterative deepening: at most cap creating steps
        on a branch."""
        self.nodes, self.cut = 0, False
        return self._attack(root, cap, 0, frozenset(), frozenset())

    def _attack(self, node: _Node, creations: int, depth: int, history,
                applied) -> bool:
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            self.cut = True
            raise _Abort
        if depth > self.budget.max_depth:
            self.cut = True
            return False
        if node.choices is None:
            self._plan(node, history, applied)

        step = node.step
        if step is not None:
            if step.spent <= creations:
                return self._down(node, step, creations, depth, history,
                                  applied)
            self.cut = True
        if node.key is None or not node.choices:
            return False
        if creations == 0:
            self.cut = True
            return False
        if not node.checked:
            node.choices = tuple(self._checked(node))
            node.checked = True
        # the choice points pass on the shape they add to the history
        history = history | {node.key}
        for step in node.choices:
            if self._down(node, step, creations, depth, history, applied):
                return True
        return False

    def _down(self, node: _Node, step: _Step, creations: int, depth: int,
              history, applied) -> bool:
        if step.premises is None:
            labels = _named(step.params)
            step.premises = tuple(
                _Node(premise, update_components(node.comps, premise, labels))
                for premise in apply_rule(self.calc, node.seq, step.rule,
                                          step.params))
        marked = applied if step.mark is None else applied | {step.mark}
        for child in step.premises:
            if not self._attack(child, creations - step.spent, depth + 1,
                                history, marked):
                return False
        node.proved = step
        return True

    def _plan(self, node: _Node, history, applied) -> None:
        node.step = self._first_step(node.seq, node.comps, applied)
        node.key, node.choices = None, ()
        if node.step is None or node.step.spent:
            key = shape_key(node.comps)
            if key not in history:
                node.key = key
                node.choices = tuple(self._choice_points(node.seq, node.comps,
                                                         applied))

    def _first_step(self, seq: LabeledSequent, comps, applied) -> _Step | None:
        # closure, on the components in preorder
        for comp in comps:
            for f in comp.left:
                if isinstance(f, Bottom):
                    return _Step(BOT_L, RuleParams(label=comp.label),
                                 premises=())
                if isinstance(f, Pred) and f in comp.right:
                    return _Step(AX, RuleParams(label=comp.label, formula=f),
                                 premises=())

        # propositional decomposition, fully invertible
        for comp in comps:
            for f in comp.left:
                if isinstance(f, Neg):
                    return _Step(NEG_L, RuleParams(label=comp.label, formula=f))
                if isinstance(f, Or):
                    return _Step(OR_L, RuleParams(label=comp.label, formula=f))
            for f in comp.right:
                if isinstance(f, Neg):
                    return _Step(NEG_R, RuleParams(label=comp.label, formula=f))
                if isinstance(f, Or):
                    return _Step(OR_R, RuleParams(label=comp.label, formula=f))

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
                        reach = reachable(graph_of(seq), self.propagation,
                                          DIA, comp.label)
                    if target.label not in reach:
                        continue
                    params = RuleParams(label=comp.label, formula=f,
                                        target=target.label)
                    cond = side_condition(self.calc, P_DIA, seq, params)
                    return _Step(P_DIA, replace(params, witness=cond.witness),
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
                        return _Step(S_EX1, replace(params, target=cond.target,
                                                    witness=cond.witness),
                                     mark=akey)

        # creating but invertible: committed to when the cap allows
        taken_labels = {comp.label for comp in comps}
        for comp in comps:
            for f in comp.left:
                if isinstance(f, Dia):
                    return _Step(DIA_L, RuleParams(
                        label=comp.label, formula=f,
                        target=fresh_label(taken_labels)), spent=1)
                if isinstance(f, Exists):
                    y = fresh_variable(f.bound, seq.variables())
                    return _Step(EXISTS_L, RuleParams(
                        label=comp.label, formula=f, variable=y), spent=1)
        return None

    def _choice_points(self, seq: LabeledSequent, comps, applied):
        """The genuine choice points, tried with backtracking: d once per
        component and s_ex2 once per (principal, target) on a branch,
        s_ex2 before its side condition is asked."""
        if D in self.rules:
            taken_labels = {comp.label for comp in comps}
            for comp in comps:
                akey = ("d", comp.label)
                if akey not in applied:
                    yield _Step(D, RuleParams(label=comp.label,
                                              target=fresh_label(taken_labels)),
                                spent=1, mark=akey)
        if S_EX2 in self.rules:
            for comp in comps:
                for f in comp.right:
                    if not isinstance(f, Exists):
                        continue
                    for target in comps:
                        akey = ("s_ex2", comp.label, f, target.label)
                        if akey not in applied:
                            y = fresh_variable(f.bound, seq.variables())
                            yield _Step(S_EX2, RuleParams(
                                label=comp.label, formula=f, variable=y,
                                target=target.label), spent=1, mark=akey)

    def _checked(self, node: _Node):
        """The choice points of node whose side condition holds, s_ex2
        with the witness it found."""
        for step in node.choices:
            if step.rule == S_EX2:
                cond = side_condition(self.calc, S_EX2, node.seq, step.params)
                if not cond.holds:
                    continue
                step.params = replace(step.params, witness=cond.witness)
            yield step


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
    search = _Search(calc, budget)
    seq = to_labeled(goal)
    root = _Node(seq, components(seq, goal.label))
    total = 0
    for cap in range(budget.max_creations + 1):
        aborted = False
        try:
            proved = search.run(root, cap)
        except _Abort:
            proved = False
            aborted = True
        total += search.nodes
        if proved:
            proof = _nested(root, goal)
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


def _nested(root: _Node, goal: NestedSequent) -> ProofTree:
    """The proof the last round found written over the goal, each
    premise built from the components the search read off it."""
    return fold(root, lambda node, premises: ProofTree(
        goal if node is root else nested_of(node.comps, node.seq),
        node.proved.rule, node.proved.params, premises),
        lambda node: node.proved.premises)


def prove_formula(frame: FrameSpec, phi: Formula,
                  budget: SearchBudget | None = None) -> Proved | Exhausted:
    goal = NestedSequent("w0", (), (), (phi,), ())
    return prove_sequent(frame, goal, budget)
