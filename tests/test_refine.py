"""Relational-rule elimination and the nested reading of refined proofs."""

import copy
import gc
import pickle
import weakref
from dataclasses import replace

import pytest

from fomodal import refine
from fomodal.calculi import (AX, DIA_R, ID, OR_R, P_DIA, RELATIONAL,
                             CalculusSpec, ProofTree, RuleParams, apply_rule,
                             check, g_rule)
from fomodal.propagation import PropPath
from fomodal.refine import (RefineError, labelize, nestify, refine_proof)
from fomodal.prover import prove_formula
from fomodal.sequents import (LabeledSequent, NestedSequent, labeled_alpha_eq,
                              parse_labeled, to_labeled, to_nested)
from fomodal.syntax import Or, frame_spec, parse_formula
from fixtures import (EX_FRAME, elimination_display_2, elimination_display_3,
                      elimination_display_4, elimination_initial)


def _uses_relational(proof: ProofTree) -> bool:
    if proof.rule.name in RELATIONAL:
        return True
    return any(_uses_relational(p) for p in proof.premises)


def _same_skeleton(a: ProofTree, b: ProofTree) -> bool:
    if a.rule != b.rule or len(a.premises) != len(b.premises):
        return False
    if not labeled_alpha_eq(a.conclusion, b.conclusion):
        return False
    return all(_same_skeleton(x, y) for x, y in zip(a.premises, b.premises))


def test_elimination_fixtures_check():
    mixed = CalculusSpec("Mixed", EX_FRAME)
    assert check(CalculusSpec("G3", EX_FRAME), elimination_initial()).ok
    assert check(mixed, elimination_display_2()).ok
    assert check(mixed, elimination_display_3()).ok
    assert check(CalculusSpec("RefinedL", EX_FRAME),
                 elimination_display_4()).ok


def test_elimination_walkthrough():
    initial = elimination_initial()
    result = refine_proof(EX_FRAME, initial)
    ops = [(s.op, s.detail) for s in result.steps]
    assert ops == [
        ("retag", "retag 1 rule(s) as p_dia/s_ex1"),
        ("swap", "swap id above s_ex1"),
        ("absorb", "absorb id below ax"),
        ("swap", "swap g(0,2) above s_ex1"),
        ("absorb", "absorb g(0,2) below ax"),
    ]
    assert _same_skeleton(result.steps[1].proof, elimination_display_2())
    assert _same_skeleton(result.steps[3].proof, elimination_display_3())
    assert _same_skeleton(result.proof, elimination_display_4())

    assert not _uses_relational(result.proof)
    assert labeled_alpha_eq(result.proof.conclusion, initial.conclusion)
    assert check(CalculusSpec("RefinedL", EX_FRAME), result.proof).ok


def test_refine_keeps_witness_strings_from_the_walkthrough():
    result = refine_proof(EX_FRAME, elimination_initial())
    after_id_swap = result.steps[1].proof
    s_ex1 = after_id_swap.premises[0]
    assert s_ex1.rule.name == "s_ex1"
    assert s_ex1.params.witness.string() == "b"
    final = result.proof
    assert final.rule.name == "s_ex1"
    assert final.params.witness.string() == "bb"


def test_refine_rejects_broken_input():
    initial = elimination_initial()
    bad = ProofTree(initial.conclusion, initial.rule, initial.params, ())
    with pytest.raises(RefineError):
        refine_proof(EX_FRAME, bad)


def _break_first_swap(monkeypatch, corrupt):
    """Make _bubble hand back corrupt(subtree) at the first swap; the
    returned dict then holds the node that swap rewrote."""
    bubble = refine._bubble
    seen = {}

    def broken(calc, node):
        sub, op, detail = bubble(calc, node)
        if op == "swap" and not seen:
            seen["node"] = node
            sub = corrupt(sub)
        return sub, op, detail

    monkeypatch.setattr(refine, "_bubble", broken)
    return seen


def test_refine_refuses_a_corrupted_premise_at_that_step(monkeypatch):
    mixed = CalculusSpec("Mixed", EX_FRAME)
    steps = refine_proof(EX_FRAME, elimination_initial()).steps
    assert steps[1].detail == "swap id above s_ex1"
    before = steps[0].proof  # the retagged proof the swap rewrites
    # the topmost relational instance: the deepest, first in preorder
    path, node = max(((path, node) for path, node in before.walk()
                      if node.rule.name in RELATIONAL),
                     key=lambda found: len(found[0]))

    def corrupt(sub):
        # the swapped-in premise loses its formulas, keeping its rule
        (mid,) = sub.premises
        empty = LabeledSequent(mid.conclusion.rel, mid.conclusion.dom)
        return ProofTree(sub.conclusion, sub.rule, sub.params,
                         (ProofTree(empty, mid.rule, mid.params,
                                    mid.premises),))

    # the report of a check of the whole rewritten proof
    sub, _, _ = refine._bubble(mixed, node)
    whole = check(mixed, refine._replace_at(before, path, corrupt(sub)))
    assert not whole.ok and whole.node[:len(path)] == path

    seen = _break_first_swap(monkeypatch, corrupt)
    with pytest.raises(RefineError) as err:
        refine_proof(EX_FRAME, elimination_initial())
    assert seen["node"] == node
    assert str(err.value) == (f"intermediate proof broken after "
                              f"swap id above s_ex1: {whole.message}")


def test_refine_refuses_a_changed_conclusion_at_that_step(monkeypatch):
    def corrupt(sub):
        (mid,) = sub.premises
        return ProofTree(mid.conclusion, sub.rule, sub.params, sub.premises)

    _break_first_swap(monkeypatch, corrupt)
    with pytest.raises(RefineError, match="after swap id above s_ex1: "
                                          "the conclusion changed"):
        refine_proof(EX_FRAME, elimination_initial())


def test_refine_handles_duplication_through_or_l():
    # a relational step below or_l must climb into both branches
    from fomodal.calculi import OR_L, P_DIA
    frame = frame_spec(paths=[(0, 2)])
    calc = CalculusSpec("Mixed", frame)
    qr = parse_formula("q | r")
    end = parse_labeled("wRu, uRv, u: q | r |- w: <>q, w: <>r")

    (after_g,) = apply_rule(calc, end, g_rule(0, 2),
                            RuleParams(chain_u=("w",), chain_v=("w", "u", "v")))
    gp = RuleParams(label="u", formula=qr)
    lhs, rhs = apply_rule(calc, after_g, OR_L, gp)
    dq = RuleParams(label="w", formula=parse_formula("<>q"), target="u")
    dr = RuleParams(label="w", formula=parse_formula("<>r"), target="u")
    (lq,) = apply_rule(calc, lhs, DIA_R, dq)
    (rq,) = apply_rule(calc, rhs, DIA_R, dr)
    proof = ProofTree(end, g_rule(0, 2),
                      RuleParams(chain_u=("w",), chain_v=("w", "u", "v")),
                      (ProofTree(after_g, OR_L, gp, (
                          ProofTree(lhs, DIA_R, dq, (
                              ProofTree(lq, AX,
                                        RuleParams(label="u",
                                                   formula=parse_formula("q")),
                                        ()),)),
                          ProofTree(rhs, DIA_R, dr, (
                              ProofTree(rq, AX,
                                        RuleParams(label="u",
                                                   formula=parse_formula("r")),
                                        ()),)),)),))
    assert check(calc, proof).ok
    result = refine_proof(frame, proof)
    assert not _uses_relational(result.proof)
    assert labeled_alpha_eq(result.proof.conclusion, end)
    assert check(CalculusSpec("RefinedL", frame), result.proof).ok


def test_refine_is_identity_on_relation_free_proofs():
    frame = frame_spec(paths=[(0, 2)], inc=True)
    final = elimination_display_4()
    result = refine_proof(frame, final)
    assert result.steps == ()
    assert _same_skeleton(result.proof, final)


def test_nestify_and_labelize_round_trip():
    result = refine_proof(EX_FRAME, elimination_initial())
    nested = nestify(EX_FRAME, result.proof)
    assert check(CalculusSpec("NestedN", EX_FRAME), nested).ok
    back = labelize(EX_FRAME, nested)
    assert check(CalculusSpec("RefinedL", EX_FRAME), back).ok
    assert _same_skeleton(back, result.proof)


def test_nestify_rejects_non_tree_proofs():
    frame = frame_spec()
    calc = CalculusSpec("RefinedL", frame)
    end = parse_labeled("wRv, uRv, v: p |- v: p")
    proof = ProofTree(end, AX, RuleParams(label="v",
                                          formula=parse_formula("p")), ())
    assert check(calc, proof).ok
    with pytest.raises(RefineError):
        nestify(frame, proof)


def _preorder(tree: ProofTree):
    """The nodes of tree with their paths, compared without recursion."""
    return [(path, node.conclusion, node.rule, node.params)
            for path, node in tree.walk()]


def _balanced(atoms):
    if len(atoms) == 1:
        return atoms[0]
    half = len(atoms) // 2
    return f"({_balanced(atoms[:half])} | {_balanced(atoms[half:])})"


def test_a_deep_or_r_proof_survives_check_nestify_labelize_and_refine():
    # 1199 or_r steps split a balanced disjunction of 1200 atoms
    frame = frame_spec()
    calc = CalculusSpec("RefinedL", frame)
    atoms = [f"p{i}" for i in range(1200)]
    seqs = [parse_labeled(f"w0: p0 |- w0: {_balanced(atoms)}")]
    steps = []
    while True:
        ors = [f for _, f in seqs[-1].right if isinstance(f, Or)]
        if not ors:
            break
        steps.append(RuleParams(label="w0", formula=ors[0]))
        (premise,) = apply_rule(calc, seqs[-1], OR_R, steps[-1])
        seqs.append(premise)
    proof = ProofTree(seqs[-1], AX,
                      RuleParams(label="w0", formula=parse_formula("p0")))
    for params, seq in zip(reversed(steps), reversed(seqs[:-1])):
        proof = ProofTree(seq, OR_R, params, (proof,))
    assert proof.height() == 1200
    assert check(calc, proof).ok
    nested = nestify(frame, proof)
    assert nested.height() == 1200
    assert _preorder(labelize(frame, nested)) == _preorder(proof)
    result = refine_proof(frame, proof)
    assert result.steps == ()
    assert _preorder(result.proof) == _preorder(proof)


def test_refine_absorbs_a_deep_chain_of_id_instances():
    # 1200 id instances under ax, each moving one more variable to w1
    frame = frame_spec(inc=True)
    calc = CalculusSpec("G3", frame)
    dom = ", ".join(f"y{i} in D(w0)" for i in range(1200))
    seqs = [parse_labeled(f"w0Rw1, {dom}, w1: p |- w1: p")]
    params = [RuleParams(label="w0", target="w1", variable=f"y{i}")
              for i in range(1200)]
    for step in params:
        (premise,) = apply_rule(calc, seqs[-1], ID, step)
        seqs.append(premise)
    proof = ProofTree(seqs[-1], AX,
                      RuleParams(label="w1", formula=parse_formula("p")))
    for step, seq in zip(reversed(params), reversed(seqs[:-1])):
        proof = ProofTree(seq, ID, step, (proof,))
    result = refine_proof(frame, proof)
    assert [s.detail for s in result.steps] == ["absorb id below ax"] * 1200
    assert _preorder(result.proof) == [
        ((), seqs[0], AX, RuleParams(label="w1", formula=parse_formula("p")))]


def test_refine_fills_in_a_missing_witness_by_search():
    # display 2 with the s_ex1 witness and target left out
    stripped = elimination_display_2()
    sub = stripped.premises[0]
    sub = ProofTree(sub.conclusion, sub.rule,
                    replace(sub.params, target=None, witness=None), sub.premises)
    stripped = ProofTree(stripped.conclusion, stripped.rule, stripped.params,
                         (sub,))
    assert check(CalculusSpec("Mixed", EX_FRAME), stripped).ok
    result = refine_proof(EX_FRAME, stripped)
    assert result.proof == elimination_display_4()


def test_refine_fills_in_a_missing_p_dia_witness():
    frame = frame_spec(paths=[(0, 2)])
    calc = CalculusSpec("Mixed", frame)
    seq = parse_labeled("wRu, uRv, v: p |- w: <>p")
    dia = parse_formula("<>p")
    params = RuleParams(label="w", target="v", formula=dia)
    (premise,) = apply_rule(calc, seq, P_DIA, params)
    leaf = ProofTree(premise, AX, RuleParams(label="v",
                                             formula=parse_formula("p")))
    proof = ProofTree(seq, P_DIA, params, (leaf,))
    refined = refine_proof(frame, proof).proof
    assert refined.params.witness == PropPath(("w", "u", "v"), ("d", "d"))
    assert check(CalculusSpec("RefinedL", frame), refined).ok


def test_nested_reading_of_a_labelized_proof_is_the_proof_itself():
    frame = frame_spec(paths=[(0, 0), (0, 2)])
    proof = prove_formula(frame, parse_formula("[]p -> [][]p")).proof
    labeled = labelize(frame, proof)
    nested = nestify(frame, labeled)
    assert nested.conclusion is proof.conclusion
    assert all(a.conclusion is b.conclusion
               for (_, a), (_, b) in zip(nested.walk(), proof.walk()))
    assert pickle.loads(pickle.dumps(nested)) == proof
    premise = proof.premises[0].conclusion
    view, alive = to_labeled(premise), weakref.ref(premise)
    # views keep their nested sequents weakly and replay marks hold no
    # nested sequent, so the proofs go without the garbage collector
    gc.disable()
    try:
        del proof, labeled, nested, premise
        assert alive() is None
    finally:
        gc.enable()
    # a copy keeps no reference, so its reading is built afresh
    again = to_nested(view)
    assert again == to_nested(copy.copy(view)) and again.label == "w0"
    assert to_nested(view) is again


def test_to_nested_rebuilds_an_empty_root_once_it_died():
    empty = LabeledSequent()
    root = to_nested(empty, root="v")
    assert to_nested(empty, root="v") is root
    alive = weakref.ref(root)
    gc.disable()
    try:
        del root
        assert alive() is None
    finally:
        gc.enable()
    assert to_nested(empty, root="v") == NestedSequent("v")
    # a live reading under another root is not returned
    kept = to_nested(empty, root="v")
    assert to_nested(empty, root="u") == NestedSequent("u")
    assert to_nested(empty) == NestedSequent("w0") != kept
