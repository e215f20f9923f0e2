"""Refinement: eliminating relational rules from ground proofs.

Relational rules (g, id, dd, nd) are removed from a labeled proof by
bubbling each instance upward until it either meets an axiom leaf and
is absorbed, or, for nd, meets the existential instantiation using its
fresh variable and fuses with it into a single s_ex2.  Plain dia_r and
exists_r instances are first retagged as p_dia and s_ex1 with trivial
witnesses (a one-edge path and an empty path).  When an instance swaps
past a reachability rule whose witness relied on the atom it added,
the witness is repaired:

* past g(n,k): each use of the added edge is replaced by the detour
  along the two premise chains.  The detour spells out the right-hand
  side of the corresponding production (or its converse), so one more
  rewrite step keeps the string derivable.
* past id or dd: when the rule placed the available variable, the
  witness is redirected to the other end of the relational atom by one
  extra step.  The governing system contains the doubling production
  for the appended letter, so derivability is preserved.
* nd fuses with the s_ex1 that consumes its variable: the variable is
  fresh, so that s_ex1's availability can only come through the atom
  nd added, and the pair is exactly an s_ex2 instance.

Relational rules never touch formulas, so an instance sitting under an
axiom leaf can simply be dropped.  The bubbling order is topmost
instance first (deepest, then first in preorder); since everything
above it is non-relational, a swap never needs a second repair pass.
A step rewrites only its instance's subtree, so the other instances
keep their paths: they are collected once onto a stack, and a swap
pushes its copies, the first on top.  Each copy has a smaller subtree
above it than its instance had, and an absorption or fusion leaves
no instance, so the elimination ends.  A swap only builds its
subtree; it replays nothing.  With validation on, the retagged proof
is checked once in full, and each step checks only the subtree it
rewrote, whose conclusion it must keep: that check replays the moved
rule and the relational rule above each new premise, against the
premise it had.  The result, validated or not, is checked against the
refined calculus.  nestify then maps a refined labeled proof whose
sequents are trees with a common root onto the nested calculus.
Proofs are rebuilt by sequents.fold, without recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .calculi import (AX, BOT_L, DIA_R, EXISTS_R, P_DIA, RELATIONAL, S_EX1,
                      S_EX2, CalculusSpec, ProofTree, RuleApplicationError,
                      RuleParams, apply_rule, availability_system, check,
                      side_condition)
from .grammar import BDIA, DIA
from .propagation import PropPath
from .sequents import (NotATreeError, fold, is_labeled_tree, to_labeled,
                       to_nested)
from .syntax import FrameSpec


class RefineError(Exception):
    pass


@dataclass(frozen=True)
class RefineStep:
    op: str
    detail: str
    proof: ProofTree


@dataclass(frozen=True)
class RefineResult:
    proof: ProofTree
    steps: tuple[RefineStep, ...]


# ===================================================================
# Retagging dia_r and exists_r, and witness bookkeeping
# ===================================================================

def _retag(calc: CalculusSpec, proof: ProofTree) -> tuple[ProofTree, int]:
    """proof with dia_r and exists_r retagged as p_dia and s_ex1 and every
    missing witness filled in for repairs, and the number retagged."""
    paths = availability_system(calc.frame) is not None
    retagged = 0

    def build(node: ProofTree, premises) -> ProofTree:
        nonlocal retagged
        rule, params = node.rule, node.params
        if rule == DIA_R:
            retagged += 1
            rule = P_DIA
            params = replace(params, witness=PropPath(
                (params.label, params.target), (DIA,)))
        elif rule == EXISTS_R:
            retagged += 1
            rule = S_EX1
            if not paths:
                params = replace(params, target=None, witness=None)
            else:
                # the instantiating variable sits at the principal label
                params = replace(params, target=params.label,
                                 witness=PropPath((params.label,), ()))
        if (rule == P_DIA or rule in (S_EX1, S_EX2) and paths) \
                and (params.witness is None or params.target is None):
            cond = side_condition(calc, rule, node.conclusion, params)
            if not cond.holds:
                raise RefineError(f"{rule}: {cond.reason or 'side condition fails'}")
            params = replace(params, target=cond.target, witness=cond.witness)
        return ProofTree(node.conclusion, rule, params, premises)

    return fold(proof, build), retagged


def _uses_edge(path: PropPath, a: str, b: str) -> bool:
    return any(step in ((a, DIA, b), (b, BDIA, a)) for step in path.steps())


def _splice(path: PropPath, chain_u, chain_v) -> PropPath:
    """Replace every use of the edge chain_u[-1] -> chain_v[-1] by the
    detour through the shared origin of the chains."""
    a, b = chain_u[-1], chain_v[-1]
    down = tuple(reversed(chain_u)) + chain_v[1:]
    down_chars = (BDIA,) * (len(chain_u) - 1) + (DIA,) * (len(chain_v) - 1)
    up = tuple(reversed(down))
    up_chars = tuple(reversed([DIA if c == BDIA else BDIA for c in down_chars]))
    labels = [path.labels[0]]
    chars: list[str] = []
    for u1, c, u2 in path.steps():
        if (u1, c, u2) == (a, DIA, b):
            seg_labels, seg_chars = down, down_chars
        elif (u1, c, u2) == (b, BDIA, a):
            seg_labels, seg_chars = up, up_chars
        else:
            seg_labels, seg_chars = (u1, u2), (c,)
        labels.extend(seg_labels[1:])
        chars.extend(seg_chars)
    return PropPath(tuple(labels), tuple(chars))


def _repaired_params(rel_rule, rel_params: RuleParams, child_rule,
                     child_params: RuleParams, conclusion) -> RuleParams:
    """Adjust the upper rule's parameters so it applies directly to the
    relational rule's conclusion."""
    if child_rule not in (P_DIA, S_EX1, S_EX2):
        return child_params
    name = rel_rule.name
    if name == "g":
        a, b = rel_params.chain_u[-1], rel_params.chain_v[-1]
        if (a, b) in conclusion.rel:
            return child_params  # a surviving copy keeps the edges
        wit = child_params.witness
        if wit is None or not _uses_edge(wit, a, b):
            return child_params
        return replace(child_params,
                       witness=_splice(wit, rel_params.chain_u, rel_params.chain_v))
    if name in ("id", "dd"):
        if child_rule != S_EX1:
            return child_params
        if name == "id":
            placed_at, other, step = rel_params.target, rel_params.label, BDIA
        else:
            placed_at, other, step = rel_params.label, rel_params.target, DIA
        if child_params.variable != rel_params.variable:
            return child_params
        if child_params.target != placed_at:
            return child_params
        if (rel_params.variable, placed_at) in conclusion.dom:
            return child_params  # the variable sits there anyway
        wit = child_params.witness
        if wit is None:
            raise RefineError("missing witness on s_ex1 above a domain rule")
        return replace(child_params, target=other,
                       witness=PropPath(wit.labels + (other,), wit.chars + (step,)))
    return child_params  # nd interacts only through fusion


# ===================================================================
# One bubbling step
# ===================================================================

def _bubble(calc: CalculusSpec, node: ProofTree) -> tuple[ProofTree, str, str]:
    """Perform one elimination step on the relational rule at the root
    of this subtree.  Returns the new subtree and an op tag/detail."""
    conclusion = node.conclusion
    child = node.premises[0]

    if child.rule in (AX, BOT_L):
        new = ProofTree(conclusion, child.rule, child.params, ())
        return new, "absorb", f"absorb {node.rule} below {child.rule}"

    if node.rule.name == "nd" and child.rule == S_EX1 \
            and child.params.variable == node.params.variable:
        target = node.params.label
        if child.params.target not in (None, target):
            raise RefineError("fresh variable available away from its atom")
        fused = replace(child.params, target=target)
        new = ProofTree(conclusion, S_EX2, fused, child.premises)
        return new, "fuse", "fuse nd with s_ex1 into s_ex2"

    fixed = _repaired_params(node.rule, node.params, child.rule,
                             child.params, conclusion)
    try:
        lower = apply_rule(calc, conclusion, child.rule, fixed)
    except RuleApplicationError as err:
        raise RefineError(f"cannot move {child.rule} below {node.rule}: {err}") from err
    # the step's check, or the final one, replays node.rule above each
    # new premise
    new = ProofTree(conclusion, child.rule, fixed, tuple(
        ProofTree(mid, node.rule, node.params, (grand,))
        for mid, grand in zip(lower, child.premises)))
    return new, "swap", f"swap {node.rule} above {child.rule}"


def _replace_at(proof: ProofTree, path, sub: ProofTree) -> ProofTree:
    """proof with sub at path; only the spine down to it is rebuilt."""
    spine = [proof]
    for i in path[:-1]:
        spine.append(spine[-1].premises[i])
    for node, i in zip(reversed(spine), reversed(path)):
        sub = ProofTree(node.conclusion, node.rule, node.params,
                        node.premises[:i] + (sub,) + node.premises[i + 1:])
    return sub


# ===================================================================
# Driver
# ===================================================================

def _validate_step(calc: CalculusSpec, node: ProofTree, sub: ProofTree,
                   detail: str) -> None:
    """Check the subtree one step put in place of node.  The step keeps
    the conclusion, so every node outside the subtree replays as before
    the step, and the first node of the whole proof that fails to
    replay, with its message, is the first one of the subtree."""
    if sub.conclusion != node.conclusion:
        raise RefineError(f"intermediate proof broken after {detail}: "
                          f"the conclusion changed")
    report = check(calc, sub)
    if not report.ok:
        raise RefineError(f"intermediate proof broken after "
                          f"{detail}: {report.message}")


def _checked(calc: CalculusSpec, proof: ProofTree, what: str) -> ProofTree:
    report = check(calc, proof)
    if not report.ok:
        raise RefineError(f"{what} does not check: {report.message}")
    return proof


def refine_proof(frame: FrameSpec, proof: ProofTree,
                 validate: bool = True) -> RefineResult:
    """Turn a ground labeled proof into one in the refined calculus
    with the same end sequent, recording every intermediate proof."""
    mixed = CalculusSpec("Mixed", frame)
    _checked(mixed, proof, "input proof")
    steps: list[RefineStep] = []
    proof, retagged = _retag(mixed, proof)
    if validate:
        _checked(mixed, proof, "retagged proof")
    if retagged:
        steps.append(RefineStep("retag",
                                f"retag {retagged} rule(s) as p_dia/s_ex1", proof))

    # a stack with the topmost instance on top: the deepest, first in preorder
    todo = sorted(reversed([path for path, node in proof.walk()
                            if node.rule.name in RELATIONAL]), key=len)
    while todo:
        path = todo.pop()
        node = proof.at(path)
        sub, op, detail = _bubble(mixed, node)
        if validate:
            _validate_step(mixed, node, sub, detail)
        proof = _replace_at(proof, path, sub)
        steps.append(RefineStep(op, detail, proof))
        if op == "swap":
            todo.extend((*path, i) for i in reversed(range(len(sub.premises))))

    _checked(CalculusSpec("RefinedL", frame), proof, "refined proof")
    return RefineResult(proof, tuple(steps))


def nestify(frame: FrameSpec, proof: ProofTree) -> ProofTree:
    """Read a refined labeled proof as a nested proof.  Every sequent
    in it must be a tree over the same root; the rules carry over with
    their parameters unchanged.  A sequent that is the view of a live
    nested sequent is read back as that sequent (to_nested), so the
    reading of labelize(frame, p) is made of p's own sequents."""
    ok, root = is_labeled_tree(proof.conclusion)
    if not ok:
        raise RefineError("end sequent is not a tree")
    root = root or "w0"

    def read(seq):
        try:
            nested = to_nested(seq, root=root)
        except NotATreeError:
            raise RefineError("a sequent in the proof is not a tree") from None
        if nested.label != root:
            raise RefineError("root label changes inside the proof")
        return nested

    return _checked(CalculusSpec("NestedN", frame), fold(
        proof, lambda node, premises: ProofTree(
            read(node.conclusion), node.rule, node.params, premises)),
        "nested reading")


def labelize(frame: FrameSpec, proof: ProofTree) -> ProofTree:
    """Read a nested proof as a refined labeled proof, the inverse of
    nestify.  Rules and parameters carry over unchanged."""
    return _checked(CalculusSpec("RefinedL", frame), fold(
        proof, lambda node, premises: ProofTree(
            to_labeled(node.conclusion), node.rule, node.params, premises)),
        "labeled reading")
