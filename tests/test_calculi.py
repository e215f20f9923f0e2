"""Rule sets, rule application, side conditions and the proof checker."""

import gc
import weakref
from dataclasses import replace

import pytest

from fomodal import calculi
from fomodal.calculi import (AX, BOT_L, D, DD, DIA_L, DIA_R, EXISTS_L, EXISTS_R,
                             ID, ND, NEG_L, NEG_R, OR_L, OR_R, P_DIA, S_EX1,
                             S_EX2, CalculusSpec, FreshnessViolation,
                             MalformedParams, PrincipalMissing, ProofTree,
                             RuleId, RuleNotInCalculus, RuleParams,
                             SideConditionViolation, apply_rule,
                             _premise_view, availability_system, check,
                             fold, g_rule, propagation_system, rule_set,
                             side_condition)
from fomodal.grammar import s4, s5, of_paths, union
from fomodal.jsonio import proof_from_json, proof_to_json
from fomodal.propagation import PropPath, build_graph
from fomodal.prover import prove_formula, prove_sequent
from fomodal.refine import labelize, nestify, refine_proof
from fomodal.sequents import (LabeledSequent, NestedSequent, parse_labeled,
                              parse_nested, render_nested, to_labeled)
from fomodal.syntax import frame_spec, parse_formula
from fixtures import EX_FRAME, elimination_initial


def LS(text):
    return parse_labeled(text)


def test_rule_id_rendering():
    assert str(DIA_L) == "dia_l"
    assert str(g_rule(0, 2)) == "g(0,2)"
    assert g_rule(1, 1).path == (1, 1)


def test_rule_sets_follow_the_frame():
    base = frame_spec()
    assert D not in rule_set(CalculusSpec("G3", base))
    assert D in rule_set(CalculusSpec("G3", frame_spec(serial=True)))
    g3 = rule_set(CalculusSpec("G3", frame_spec(paths=[(0, 2)], inc=True)))
    assert g_rule(0, 2) in g3 and ID in g3 and DD not in g3
    assert P_DIA not in g3 and S_EX1 not in g3

    refined = rule_set(CalculusSpec("RefinedL", frame_spec(paths=[(0, 2)],
                                                           inc=True)))
    assert P_DIA in refined and S_EX1 in refined
    assert g_rule(0, 2) not in refined and ID not in refined
    assert S_EX2 not in refined
    assert S_EX2 in rule_set(CalculusSpec("RefinedL", frame_spec(nonempty=True)))

    mixed = rule_set(CalculusSpec("Mixed", frame_spec(paths=[(0, 2)], inc=True)))
    assert g_rule(0, 2) in mixed and P_DIA in mixed


def test_systems_from_frame():
    frame = frame_spec(paths=[(0, 2)], inc=True)
    assert propagation_system(frame) == of_paths([(0, 2)])
    sys_, char = availability_system(frame)
    assert sys_ == union(s4(), of_paths([(0, 2)])) and char == "b"
    sys_, char = availability_system(frame_spec(dec=True))
    assert sys_ == union(s4(), of_paths([])) and char == "d"
    sys_, char = availability_system(frame_spec(const=True))
    assert sys_ == s5() and char == "d"
    assert availability_system(frame_spec()) is None


G3 = CalculusSpec("G3", frame_spec(serial=True, paths=[(0, 2)], inc=True,
                                   nonempty=True))


def test_apply_propositional_rules():
    seq = LS("w: ~p |- w: q | r")
    (prem,) = apply_rule(G3, seq, NEG_L,
                         RuleParams(label="w", formula=parse_formula("~p")))
    assert prem == LS("|- w: q | r, w: p")
    (prem,) = apply_rule(G3, prem, OR_R,
                         RuleParams(label="w", formula=parse_formula("q | r")))
    assert prem == LS("|- w: p, w: q, w: r")

    seq = LS("w: p | q |- ")
    left, right = apply_rule(G3, seq, OR_L,
                             RuleParams(label="w", formula=parse_formula("p | q")))
    assert left == LS("w: p |- ") and right == LS("w: q |- ")

    seq = LS("w: p |- w: ~q")
    (prem,) = apply_rule(G3, seq, NEG_R,
                         RuleParams(label="w", formula=parse_formula("~q")))
    assert prem == LS("w: p, w: q |- ")


def test_apply_axioms():
    assert apply_rule(G3, LS("w: p |- w: p"),
                      AX, RuleParams(label="w", formula=parse_formula("p"))) == ()
    assert apply_rule(G3, LS("w: false |- "),
                      BOT_L, RuleParams(label="w")) == ()
    with pytest.raises(PrincipalMissing):
        apply_rule(G3, LS("w: p |- v: p"),
                   AX, RuleParams(label="w", formula=parse_formula("p")))
    with pytest.raises(MalformedParams):
        apply_rule(G3, LS("w: <>p |- w: <>p"),
                   AX, RuleParams(label="w", formula=parse_formula("<>p")))


def test_apply_dia_l_consumes_and_needs_freshness():
    seq = LS("w: <>p |- ")
    (prem,) = apply_rule(G3, seq, DIA_L,
                         RuleParams(label="w", formula=parse_formula("<>p"),
                                    target="v"))
    assert prem == LS("wRv, v: p |- ")
    with pytest.raises(FreshnessViolation):
        apply_rule(G3, seq, DIA_L,
                   RuleParams(label="w", formula=parse_formula("<>p"),
                              target="w"))


def test_apply_dia_r_needs_edge_and_keeps_principal():
    seq = LS("wRv |- w: <>p")
    (prem,) = apply_rule(G3, seq, DIA_R,
                         RuleParams(label="w", formula=parse_formula("<>p"),
                                    target="v"))
    assert prem == LS("wRv |- w: <>p, v: p")
    with pytest.raises(SideConditionViolation):
        apply_rule(G3, LS("|- w: <>p"), DIA_R,
                   RuleParams(label="w", formula=parse_formula("<>p"),
                              target="v"))


def test_apply_exists_rules():
    seq = LS("w: exists x. p(x) |- ")
    (prem,) = apply_rule(G3, seq, EXISTS_L,
                         RuleParams(label="w",
                                    formula=parse_formula("exists x. p(x)"),
                                    variable="y"))
    assert prem == LS("y in D(w), w: p(y) |- ")
    # bound occurrences block freshness too
    with pytest.raises(FreshnessViolation):
        apply_rule(G3, seq, EXISTS_L,
                   RuleParams(label="w", formula=parse_formula("exists x. p(x)"),
                              variable="x"))

    seq = LS("y in D(w) |- w: exists x. p(x)")
    (prem,) = apply_rule(G3, seq, EXISTS_R,
                         RuleParams(label="w",
                                    formula=parse_formula("exists x. p(x)"),
                                    variable="y"))
    assert prem == LS("y in D(w) |- w: exists x. p(x), w: p(y)")
    with pytest.raises(SideConditionViolation):
        apply_rule(G3, LS("y in D(v) |- w: exists x. p(x)"), EXISTS_R,
                   RuleParams(label="w", formula=parse_formula("exists x. p(x)"),
                              variable="y"))


def test_apply_relational_rules():
    (prem,) = apply_rule(G3, LS("w: p |- "), D,
                         RuleParams(label="w", target="v"))
    assert prem == LS("wRv, w: p |- ")

    (prem,) = apply_rule(G3, LS("wRv, y in D(w) |- "), ID,
                         RuleParams(label="w", target="v", variable="y"))
    assert prem == LS("wRv, y in D(w), y in D(v) |- ")

    dec = CalculusSpec("G3", frame_spec(dec=True))
    (prem,) = apply_rule(dec, LS("wRv, y in D(v) |- "), DD,
                         RuleParams(label="w", target="v", variable="y"))
    assert prem == LS("wRv, y in D(v), y in D(w) |- ")

    (prem,) = apply_rule(G3, LS("w: p |- "), ND,
                         RuleParams(label="w", variable="y"))
    assert prem == LS("y in D(w), w: p |- ")


def test_apply_g_rule():
    seq = LS("wRu, uRv |- ")
    (prem,) = apply_rule(G3, seq, g_rule(0, 2),
                         RuleParams(chain_u=("w",), chain_v=("w", "u", "v")))
    assert prem == LS("wRu, uRv, wRv |- ")
    # chains must trace real relational atoms
    with pytest.raises(SideConditionViolation):
        apply_rule(G3, LS("wRu |- "), g_rule(0, 2),
                   RuleParams(chain_u=("w",), chain_v=("w", "u", "v")))
    refl = CalculusSpec("G3", frame_spec(paths=[(0, 0)]))
    (prem,) = apply_rule(refl, LS("w: p |- "), g_rule(0, 0),
                         RuleParams(chain_u=("w",), chain_v=("w",)))
    assert prem == LS("wRw, w: p |- ")


def test_rule_not_in_calculus():
    bare = CalculusSpec("G3", frame_spec())
    with pytest.raises(RuleNotInCalculus):
        apply_rule(bare, LS("w: p |- "), D, RuleParams(label="w", target="v"))
    with pytest.raises(RuleNotInCalculus):
        apply_rule(bare, LS("|- w: <>p"), P_DIA,
                   RuleParams(label="w", formula=parse_formula("<>p"),
                              target="v"))


TRANS = CalculusSpec("RefinedL", frame_spec(paths=[(0, 2)]))


def test_p_dia_uses_propagation_language():
    seq = LS("wRu, uRv |- w: <>p")
    (prem,) = apply_rule(TRANS, seq, P_DIA,
                         RuleParams(label="w", formula=parse_formula("<>p"),
                                    target="v"))
    assert prem == LS("wRu, uRv |- w: <>p, v: p")
    # a single step is the zero-step derivation, so it always works
    (prem,) = apply_rule(TRANS, seq, P_DIA,
                         RuleParams(label="w", formula=parse_formula("<>p"),
                                    target="u"))
    assert prem == LS("wRu, uRv |- w: <>p, u: p")
    # backward steps are outside the (0,2) closure language of the diamond
    back = LS("wRu, uRv |- v: <>p")
    with pytest.raises(SideConditionViolation):
        apply_rule(TRANS, back, P_DIA,
                   RuleParams(label="v", formula=parse_formula("<>p"),
                              target="w"))


def test_p_dia_validates_supplied_witness():
    seq = LS("wRu, uRv |- w: <>p")
    good = RuleParams(label="w", formula=parse_formula("<>p"), target="v",
                      witness=PropPath(("w", "u", "v"), ("d", "d")))
    (prem,) = apply_rule(TRANS, seq, P_DIA, good)
    assert prem == LS("wRu, uRv |- w: <>p, v: p")
    bad_path = RuleParams(label="w", formula=parse_formula("<>p"), target="v",
                          witness=PropPath(("w", "v"), ("d",)))
    with pytest.raises(SideConditionViolation):
        apply_rule(TRANS, seq, P_DIA, bad_path)
    bad_word = RuleParams(label="w", formula=parse_formula("<>p"), target="u",
                          witness=PropPath(("w", "u", "v", "u"),
                                           ("d", "d", "b")))
    with pytest.raises(SideConditionViolation):
        apply_rule(TRANS, seq, P_DIA, bad_word)


def test_s_ex1_availability_per_domain_conditions():
    inc = CalculusSpec("RefinedL", frame_spec(inc=True))
    seq = LS("wRv, y in D(w) |- v: exists x. p(x)")
    (prem,) = apply_rule(inc, seq, S_EX1,
                         RuleParams(label="v",
                                    formula=parse_formula("exists x. p(x)"),
                                    variable="y", target="w"))
    assert prem == LS("wRv, y in D(w) |- v: exists x. p(x), v: p(y)")

    # with increasing domains only, an atom at a successor is not usable
    seq = LS("wRv, y in D(v) |- w: exists x. p(x)")
    with pytest.raises(SideConditionViolation):
        apply_rule(inc, seq, S_EX1,
                   RuleParams(label="w", formula=parse_formula("exists x. p(x)"),
                              variable="y", target="v"))
    dec = CalculusSpec("RefinedL", frame_spec(dec=True))
    (prem,) = apply_rule(dec, seq, S_EX1,
                         RuleParams(label="w",
                                    formula=parse_formula("exists x. p(x)"),
                                    variable="y", target="v"))
    assert prem == LS("wRv, y in D(v) |- w: exists x. p(x), w: p(y)")


def test_s_ex1_without_domain_conditions_needs_local_atom():
    plain = CalculusSpec("RefinedL", frame_spec())
    seq = LS("wRv, y in D(w) |- w: exists x. p(x)")
    (prem,) = apply_rule(plain, seq, S_EX1,
                         RuleParams(label="w",
                                    formula=parse_formula("exists x. p(x)"),
                                    variable="y"))
    assert prem == LS("wRv, y in D(w) |- w: exists x. p(x), w: p(y)")
    far = LS("wRv, y in D(w) |- v: exists x. p(x)")
    with pytest.raises(SideConditionViolation):
        apply_rule(plain, far, S_EX1,
                   RuleParams(label="v", formula=parse_formula("exists x. p(x)"),
                              variable="y"))


def test_s_ex2_adds_domain_atom_and_needs_freshness():
    ncalc = CalculusSpec("RefinedL", frame_spec(nonempty=True))
    seq = LS("w: q |- w: exists x. p(x)")
    (prem,) = apply_rule(ncalc, seq, S_EX2,
                         RuleParams(label="w",
                                    formula=parse_formula("exists x. p(x)"),
                                    variable="y", target="w"))
    assert prem == LS("y in D(w), w: q |- w: exists x. p(x), w: p(y)")
    with pytest.raises(FreshnessViolation):
        apply_rule(ncalc, seq, S_EX2,
                   RuleParams(label="w", formula=parse_formula("exists x. p(x)"),
                              variable="x", target="w"))


def test_side_condition_reports_witness():
    seq = LS("wRu, uRv |- w: <>p")
    cond = side_condition(TRANS, P_DIA, seq,
                          RuleParams(label="w", formula=parse_formula("<>p"),
                                     target="v"))
    assert cond.holds
    assert cond.witness.source == "w" and cond.witness.target == "v"
    assert cond.witness.string() == "dd"


# a NestedN sequent with three components; the rendered premises below
# pin the rules' behaviour on it
NESTED_CALC = CalculusSpec("NestedN", frame_spec(serial=True, paths=[(0, 2)],
                                                 inc=True, nonempty=True))
NESTED_SEQ = ("p, ~q, r | s, <>t, exists x. f(x), false ; y "
              "|- p, ~s, q | t, <>p, exists z. g(z), "
              "[q ;  |- exists z. g(z), [ ; v |- <>q]@w2]@w1")
ROOT_L = "<>t, exists x. f(x), false, p, r | s, ~q"
ROOT_R = "<>p, exists z. g(z), p, q | t, ~s"
W2 = "[ ; v |- <>q]@w2"
W1 = f"[q ;  |- exists z. g(z), {W2}]@w1"


def _nested_rule_table():
    f = parse_formula
    P = RuleParams
    return [
        # (rule, params, rendered premises or the exception raised)
        (AX, P(label="w0", formula=f("p")), ()),
        (AX, P(label="w1", formula=f("q")), PrincipalMissing),
        (AX, P(label="zz", formula=f("p")), SideConditionViolation),
        (BOT_L, P(label="w0"), ()),
        (BOT_L, P(label="w1"), PrincipalMissing),
        (BOT_L, P(label="zz"), SideConditionViolation),
        (NEG_L, P(label="w0", formula=f("~q")),
         (f"<>t, exists x. f(x), false, p, r | s ; y |- "
          f"<>p, exists z. g(z), p, q, q | t, ~s, {W1}",)),
        (NEG_L, P(label="w1", formula=f("~q")), PrincipalMissing),
        (NEG_L, P(label="zz", formula=f("~q")), SideConditionViolation),
        (NEG_R, P(label="w0", formula=f("~s")),
         (f"<>t, exists x. f(x), false, p, r | s, s, ~q ; y |- "
          f"<>p, exists z. g(z), p, q | t, {W1}",)),
        (NEG_R, P(label="w1", formula=f("~s")), PrincipalMissing),
        (NEG_R, P(label="zz", formula=f("~s")), SideConditionViolation),
        (OR_L, P(label="w0", formula=f("r | s")),
         (f"<>t, exists x. f(x), false, p, r, ~q ; y |- {ROOT_R}, {W1}",
          f"<>t, exists x. f(x), false, p, s, ~q ; y |- {ROOT_R}, {W1}")),
        (OR_L, P(label="w1", formula=f("r | s")), PrincipalMissing),
        (OR_L, P(label="zz", formula=f("r | s")), SideConditionViolation),
        (OR_R, P(label="w0", formula=f("q | t")),
         (f"{ROOT_L} ; y |- <>p, exists z. g(z), p, q, t, ~s, {W1}",)),
        (OR_R, P(label="w1", formula=f("q | t")), PrincipalMissing),
        (OR_R, P(label="zz", formula=f("q | t")), SideConditionViolation),
        (DIA_L, P(label="w0", formula=f("<>t"), target="w3"),
         (f"exists x. f(x), false, p, r | s, ~q ; y |- "
          f"{ROOT_R}, {W1}, [t ;  |- ]@w3",)),
        (DIA_L, P(label="w1", formula=f("<>t"), target="w3"), PrincipalMissing),
        (DIA_L, P(label="w0", formula=f("<>t"), target="w2"),
         FreshnessViolation),
        (DIA_L, P(label="zz", formula=f("<>t"), target="w3"),
         SideConditionViolation),
        (EXISTS_L, P(label="w0", formula=f("exists x. f(x)"), variable="u"),
         (f"<>t, f(u), false, p, r | s, ~q ; u, y |- {ROOT_R}, {W1}",)),
        (EXISTS_L, P(label="w1", formula=f("exists x. f(x)"), variable="u"),
         PrincipalMissing),
        (EXISTS_L, P(label="w0", formula=f("exists x. f(x)"), variable="v"),
         FreshnessViolation),
        (EXISTS_L, P(label="zz", formula=f("exists x. f(x)"), variable="u"),
         SideConditionViolation),
        (D, P(label="w1", target="w3"),
         (f"{ROOT_L} ; y |- {ROOT_R}, "
          f"[q ;  |- exists z. g(z), {W2}, [ ;  |- ]@w3]@w1",)),
        (D, P(label="w1", target="w0"), FreshnessViolation),
        (D, P(label="zz", target="w3"), SideConditionViolation),
        (P_DIA, P(label="w0", formula=f("<>p"), target="w2"),
         (f"{ROOT_L} ; y |- {ROOT_R}, "
          f"[q ;  |- exists z. g(z), [ ; v |- <>q, p]@w2]@w1",)),
        (P_DIA, P(label="w1", formula=f("<>p"), target="w2"), PrincipalMissing),
        (P_DIA, P(label="zz", formula=f("<>p"), target="w2"),
         SideConditionViolation),
        (P_DIA, P(label="w0", formula=f("<>p"), target="zz"),
         SideConditionViolation),
        # backward steps are outside the (0,2) closure language
        (P_DIA, P(label="w2", formula=f("<>q"), target="w0"),
         SideConditionViolation),
        (S_EX1, P(label="w1", formula=f("exists z. g(z)"), variable="y"),
         (f"{ROOT_L} ; y |- {ROOT_R}, "
          f"[q ;  |- exists z. g(z), g(y), {W2}]@w1",)),
        (S_EX1, P(label="w2", formula=f("exists z. g(z)"), variable="y"),
         PrincipalMissing),
        (S_EX1, P(label="zz", formula=f("exists z. g(z)"), variable="y"),
         SideConditionViolation),
        # with increasing domains only, v at a successor is not available
        (S_EX1, P(label="w0", formula=f("exists z. g(z)"), variable="v"),
         SideConditionViolation),
        (S_EX2, P(label="w1", formula=f("exists z. g(z)"), variable="u",
                  target="w0"),
         (f"{ROOT_L} ; u, y |- {ROOT_R}, "
          f"[q ;  |- exists z. g(z), g(u), {W2}]@w1",)),
        (S_EX2, P(label="w2", formula=f("exists z. g(z)"), variable="u",
                  target="w0"), PrincipalMissing),
        (S_EX2, P(label="w1", formula=f("exists z. g(z)"), variable="y",
                  target="w0"), FreshnessViolation),
        (S_EX2, P(label="zz", formula=f("exists z. g(z)"), variable="u",
                  target="w0"), SideConditionViolation),
        (S_EX2, P(label="w1", formula=f("exists z. g(z)"), variable="u",
                  target="zz"), SideConditionViolation),
        (S_EX2, P(label="w1", formula=f("exists z. g(z)"), variable="u",
                  target="w2"), SideConditionViolation),
    ]


def test_apply_nested_rules_mirror_labeled():
    calc = CalculusSpec("NestedN", frame_spec(paths=[(0, 2)]))
    seq = parse_nested("<><>p ;  |- <>p")
    (prem,) = apply_rule(calc, seq, DIA_L,
                         RuleParams(label="w0",
                                    formula=parse_formula("<><>p"),
                                    target="w1"))
    assert render_nested(prem) == " ;  |- <>p, [<>p ;  |- ]@w1"
    (prem2,) = apply_rule(calc, prem, P_DIA,
                          RuleParams(label="w0", formula=parse_formula("<>p"),
                                     target="w1"))
    assert render_nested(prem2) == " ;  |- <>p, [<>p ;  |- p]@w1"

    seq = parse_nested(NESTED_SEQ)
    assert render_nested(seq) == f"{ROOT_L} ; y |- {ROOT_R}, {W1}"
    table = _nested_rule_table()
    assert {rule for rule, _, _ in table} == rule_set(NESTED_CALC)
    for rule, params, expected in table:
        case = (rule, params.label, params.target, params.variable)
        if isinstance(expected, tuple):
            premises = apply_rule(NESTED_CALC, seq, rule, params)
            assert tuple(map(render_nested, premises)) == expected, case
        else:
            with pytest.raises(expected):
                apply_rule(NESTED_CALC, seq, rule, params)


def test_d_needs_a_label_other_than_a_lone_empty_root():
    # the labeled view of a lone empty root mentions no label at all
    calc = CalculusSpec("NestedN", frame_spec(serial=True))
    with pytest.raises(FreshnessViolation):
        apply_rule(calc, NestedSequent("w0"), D,
                   RuleParams(label="w0", target="w0"))
    (prem,) = apply_rule(calc, NestedSequent("w0"), D,
                         RuleParams(label="w0", target="w1"))
    assert render_nested(prem) == " ;  |- [ ;  |- ]@w1"


def test_check_reports_repeated_label_in_nested_premise():
    calc = CalculusSpec("NestedN", frame_spec())
    seq = parse_nested("~p ;  |- [ ;  |- ]@w1")
    twice = NestedSequent("w0", (), (), (parse_formula("p"),),
                          (NestedSequent("w1"), NestedSequent("w1")))
    leaf = ProofTree(twice, AX, RuleParams(label="w0",
                                           formula=parse_formula("p")))
    proof = ProofTree(seq, NEG_L, RuleParams(label="w0",
                                             formula=parse_formula("~p")),
                      (leaf,))
    report = check(calc, proof)
    assert not report.ok
    assert report.node == (0,)
    # a conclusion repeating a label is refused too, not raised
    root = ProofTree(twice, BOT_L, RuleParams(label="w0"))
    report = check(calc, root)
    assert not report.ok and report.node == ()
    assert report.message == "bot_l: label w1 occurs twice"


def _neg_l_proof(premise):
    """neg_l on the root of a three-component sequent, then ax."""
    seq = parse_nested("p, ~p ;  |- [ ;  |- q]@w2, [ ;  |- r]@w10")
    leaf = ProofTree(premise, AX, RuleParams(label="w0",
                                             formula=parse_formula("p")))
    return ProofTree(seq, NEG_L, RuleParams(label="w0",
                                            formula=parse_formula("~p")),
                     (leaf,))


def test_nested_check_reads_stored_premises_by_root_and_view():
    calc = CalculusSpec("NestedN", frame_spec())
    # children out of label order: the same tree, so the same view
    same = parse_nested("p ;  |- p, [ ;  |- r]@w10, [ ;  |- q]@w2")
    assert check(calc, _neg_l_proof(same)).ok
    moved = parse_nested("p ;  |- p, [ ;  |- r]@w10, [ ;  |- q]@w2 @v")
    assert check(calc, _neg_l_proof(moved)).node == (0,)
    # a lone empty root has an empty view, so only its label tells two
    # such premises apart; no rule yields one, so the reading is asked
    # directly
    empty = LabeledSequent()
    assert _premise_view(NestedSequent("w0"), "w0") == empty
    assert _premise_view(NestedSequent("v"), "w0") is None
    assert _premise_view(empty, "w0") is None
    assert _premise_view(NestedSequent("w0"), None) is None


def test_failing_nested_check_renders_both_sequents_nested():
    calc = CalculusSpec("NestedN", frame_spec())
    wrong = parse_nested("p ;  |- p, [ ;  |- q]@w2, [ ;  |- p]@w10")
    report = check(calc, _neg_l_proof(wrong))
    assert not report.ok and report.node == (0,)
    assert report.message == (
        "premise 0 of neg_l does not match the rule: "
        "wanted p ;  |- p, [ ;  |- q]@w2, [ ;  |- r]@w10, "
        "found p ;  |- p, [ ;  |- q]@w2, [ ;  |- p]@w10")


def test_check_accepts_and_pinpoints():
    seq = LS("w: p | q |- w: q, w: p")
    pq = parse_formula("p | q")
    left = ProofTree(LS("w: p |- w: q, w: p"), AX,
                     RuleParams(label="w", formula=parse_formula("p")), ())
    right = ProofTree(LS("w: q |- w: q, w: p"), AX,
                      RuleParams(label="w", formula=parse_formula("q")), ())
    proof = ProofTree(seq, OR_L, RuleParams(label="w", formula=pq),
                      (left, right))
    calc = CalculusSpec("G3", frame_spec())
    report = check(calc, proof)
    assert report.ok

    broken = ProofTree(seq, OR_L, RuleParams(label="w", formula=pq),
                       (left, ProofTree(LS("w: q |- w: q"), AX,
                                        RuleParams(label="w",
                                                   formula=parse_formula("q")),
                                        ())))
    report = check(calc, broken)
    assert not report.ok
    assert report.node == (1,)

    missing = ProofTree(seq, OR_L, RuleParams(label="w", formula=pq), (left,))
    assert not check(calc, missing).ok


def test_check_accepts_a_premise_equal_up_to_bound_names():
    calc = CalculusSpec("G3", frame_spec())
    seq = LS("w: false |- w: ~exists x. p(x)")
    principal = RuleParams(label="w", formula=parse_formula("~exists x. p(x)"))
    (wanted,) = apply_rule(calc, seq, NEG_R, principal)

    def proof(premise):
        return ProofTree(seq, NEG_R, principal,
                         (ProofTree(LS(premise), BOT_L, RuleParams(label="w")),))

    assert check(calc, proof(str(wanted))).ok
    # a renamed binder: not equal, so the alpha keys decide, though the
    # replay mark on seq holds another premise
    variant = "w: false, w: exists y. p(y) |- "
    assert LS(variant) != wanted
    assert check(calc, proof(variant)).ok
    report = check(calc, proof("w: false, w: exists y. q(y) |- "))
    assert not report.ok and report.node == (0,)


def test_check_rejects_wrong_rule_for_calculus():
    seq = LS("wRv, y in D(w) |- ")
    proof = ProofTree(seq, ID, RuleParams(label="w", target="v", variable="y"),
                      (ProofTree(LS("wRv, y in D(w), y in D(v) |- "), BOT_L,
                                 RuleParams(label="w"), ()),))
    ok_in_g3 = check(CalculusSpec("G3", frame_spec(inc=True)), proof)
    assert not ok_in_g3.ok  # the leaf is no axiom, even if id applies
    refined = check(CalculusSpec("RefinedL", frame_spec(inc=True)), proof)
    assert not refined.ok
    assert "not a rule" in refined.message


def test_an_empty_witness_needs_its_label_in_the_sequent():
    calc = CalculusSpec("RefinedL", frame_spec(paths=[(0, 0)], inc=True))
    seq = LS("wRv, y in D(w) |- w: <>p")
    params = RuleParams(label="t", target="t", formula=parse_formula("<>p"),
                        witness=PropPath(("t",), ()))
    for rule in (P_DIA, S_EX2):
        cond = side_condition(calc, rule, seq, params)
        assert not cond.holds
        assert cond.reason == "witness uses a missing edge"
    at_w = RuleParams(label="w", target="w", witness=PropPath(("w",), ()))
    assert side_condition(calc, P_DIA, seq, at_w).holds


def _fresh(proof: ProofTree) -> ProofTree:
    """proof read back from JSON: its sequents keep no graph yet."""
    return proof_from_json(proof_to_json(proof))


def test_replaying_stored_witnesses_builds_no_graph(graph_builds):
    goals = [(frame_spec(paths=[(0, 2)], inc=True),
              "(exists x. []p(x)) -> [][]exists x. p(x)"),
             (frame_spec(paths=[(0, 2)], inc=True, dec=True),
              "(exists x. <>p(x)) -> <>exists x. p(x)")]
    proofs = [(frame, _fresh(prove_formula(frame, parse_formula(text)).proof))
              for frame, text in goals]
    rules = {node.rule for _, proof in proofs for _, node in proof.walk()
             if node.params.witness is not None}
    assert rules == {P_DIA, S_EX1}
    build_graph.cache_clear()
    graph_builds.clear()
    for frame, proof in proofs:
        assert check(CalculusSpec("NestedN", frame), proof).ok
        labeled = labelize(frame, proof)
        assert check(CalculusSpec("RefinedL", frame), labeled).ok
        nestify(frame, labeled)
    refine_proof(EX_FRAME, elimination_initial())
    assert graph_builds == []
    assert build_graph.cache_info().misses == 0


# goals whose search and replay apply p_dia, s_ex1 and s_ex2
SEQUENT_SCOPED_GOALS = [
    (frame_spec(paths=[(0, 0), (0, 2)]), "[]p -> [][]p"),
    (frame_spec(serial=True, paths=[(0, 2), (1, 1)]), "<>p -> []<>p"),
    (frame_spec(inc=True), "[](forall x. p(x)) -> (forall x. []p(x))"),
    (frame_spec(dec=True), "(forall x. []p(x)) -> [](forall x. p(x))"),
    (frame_spec(nonempty=True), "exists x. (p(x) | ~p(x))"),
]


def _without_witnesses(proof: ProofTree) -> ProofTree:
    """proof with the stored witness of every p_dia node dropped."""
    return fold(proof, lambda node, premises: ProofTree(
        node.conclusion, node.rule,
        replace(node.params, witness=None) if node.rule == P_DIA
        else node.params, premises))


def test_search_and_replay_keep_graphs_on_the_sequents(graph_builds):
    info = build_graph.cache_info()
    rules = set()
    for frame, text in SEQUENT_SCOPED_GOALS:
        result = prove_formula(frame, parse_formula(text))
        assert result.proof is not None, text
        rules |= {node.rule for _, node in result.proof.walk()}
        bare = _fresh(_without_witnesses(result.proof))
        searched = len(graph_builds)
        assert check(CalculusSpec("NestedN", frame), bare).ok
        if any(node.rule == P_DIA for _, node in bare.walk()):
            # a p_dia without a witness searches its conclusion's graph
            assert len(graph_builds) > searched
    assert {P_DIA, S_EX1, S_EX2} <= rules
    assert graph_builds
    assert build_graph.cache_info() == info


def test_side_condition_builds_one_graph_per_sequent(graph_builds):
    calc = CalculusSpec("RefinedL", frame_spec(paths=[(0, 2)], inc=True))
    text = "wRv, vRu, y in D(u) |- w: <>p, u: exists x. q(x)"
    reach = RuleParams(label="w", formula=parse_formula("<>p"), target="u")
    avail = RuleParams(label="u", formula=parse_formula("exists x. q(x)"),
                       variable="y")
    seq = LS(text)
    for _ in range(2):
        assert side_condition(calc, P_DIA, seq, reach).holds
        assert side_condition(calc, S_EX1, seq, avail).holds
    assert len(graph_builds) == 1 and graph_builds[0] is seq
    # an equal but distinct sequent builds its own
    twin = LS(text)
    assert side_condition(calc, P_DIA, twin, reach).holds
    assert len(graph_builds) == 2 and graph_builds[1] is twin


S4 = frame_spec(paths=[(0, 0), (0, 2)])


def _checked_prover_proof(frame, text):
    """A prover proof, which the prover has checked: every view in it
    carries a replay mark."""
    proof = prove_formula(frame, parse_formula(text)).proof
    assert check(CalculusSpec("NestedN", frame), proof).ok
    return proof


def _at(proof: ProofTree, path, change) -> ProofTree:
    """proof with change(node) in place of the node at path; every
    other node keeps its conclusion, rule and params objects."""
    if not path:
        return change(proof)
    i = path[0]
    premises = list(proof.premises)
    premises[i] = _at(premises[i], path[1:], change)
    return replace(proof, premises=tuple(premises))


def _report_as_on_a_fresh_copy(calc, proof):
    """check's report on proof, which must equal the report of a full
    replay of a copy read from JSON, whose sequents carry no mark."""
    report = check(calc, proof)
    assert report == check(calc, _fresh(proof))
    return report


def test_a_replay_mark_does_not_pass_a_changed_node():
    calc = CalculusSpec("NestedN", S4)
    proof = _checked_prover_proof(S4, "[]p -> [][]p")
    path, node = next((path, node) for path, node in proof.walk()
                      if node.rule == P_DIA
                      and len(node.params.witness.chars) == 2)
    # the same conclusion object with a witness one step short
    witness = node.params.witness
    short = PropPath(witness.labels[:1] + witness.labels[2:],
                     witness.chars[1:])
    report = _report_as_on_a_fresh_copy(calc, _at(
        proof, path, lambda n: replace(n, params=replace(n.params,
                                                         witness=short))))
    assert not report.ok and report.node == path
    assert report.message == "p_dia: witness uses a missing edge"
    # a premise swapped for the sequent above it
    report = _report_as_on_a_fresh_copy(calc, _at(
        proof, (0,), lambda n: replace(n, conclusion=n.premises[0].conclusion)))
    assert not report.ok and report.node == (0,)
    assert report.message.startswith("premise 0 of ")
    # another rule on the same conclusion and params
    path = next(path for path, node in proof.walk() if node.rule == NEG_R)
    report = _report_as_on_a_fresh_copy(calc, _at(
        proof, path, lambda n: replace(n, rule=NEG_L)))
    assert not report.ok and report.node == path
    assert report.message == "neg_l: principal negation not present"
    # the checks below mark the nodes they replay with their own frames:
    # another frame object, over which the witness string is not derivable
    report = _report_as_on_a_fresh_copy(CalculusSpec("NestedN", frame_spec()),
                                        proof)
    assert not report.ok
    assert report.message == "p_dia: witness string eps not derivable"
    # an equal frame in another object replays and passes
    assert check(CalculusSpec("NestedN", frame_spec(paths=[(0, 0), (0, 2)])),
                 proof).ok


def test_a_replay_mark_still_asks_the_rule():
    proof = _checked_prover_proof(S4, "[]p -> [][]p")
    labeled = labelize(S4, proof)
    # the labeled reading shares the marked views; G3 has no p_dia
    report = _report_as_on_a_fresh_copy(CalculusSpec("G3", S4), labeled)
    assert not report.ok
    assert report.message == "p_dia: p_dia is not a rule of G3 over this frame"


def test_labelize_and_nestify_replay_no_node_of_a_checked_proof(monkeypatch):
    replayed = []
    apply_labeled = calculi._apply_labeled

    def counted(calc, seq, rule, params):
        replayed.append(rule)
        return apply_labeled(calc, seq, rule, params)

    monkeypatch.setattr(calculi, "_apply_labeled", counted)
    for frame, text in SEQUENT_SCOPED_GOALS:
        proof = prove_formula(frame, parse_formula(text)).proof
        assert len(replayed) >= proof.size()  # the prover's own check
        replayed.clear()
        nested = nestify(frame, labelize(frame, proof))
        assert replayed == [] and nested == proof, text


def test_a_replay_mark_keeps_no_premise_alive():
    goal = NestedSequent("w0", (), (), (parse_formula("~[]p | [][]p"),), ())
    proof = prove_sequent(S4, goal).proof
    assert proof.conclusion is goal and proof.size() > 1
    views = [weakref.ref(to_labeled(node.conclusion))
             for _, node in proof.walk()]
    # marks hold their premise views weakly, so the proof's sequents go
    # with it, without the garbage collector, while the goal stays
    gc.disable()
    try:
        del proof
        assert [view() for view in views[1:]] == [None] * (len(views) - 1)
        assert views[0]() is to_labeled(goal)
    finally:
        gc.enable()
    assert "_replayed" in to_labeled(goal).__dict__


def test_a_replay_mark_whose_premise_died_passes_no_misfit():
    calc = CalculusSpec("NestedN", S4)
    goal = NestedSequent("w0", (), (), (parse_formula("[]p -> [][]p"),), ())
    proof = prove_sequent(S4, goal).proof
    rule, params, above = proof.rule, proof.params, proof.premises[0]
    # a premise under another root has no view, and the goal's mark
    # holds a reference to a view that died with the proof
    misfit = ProofTree(NestedSequent("v"), above.rule, above.params)
    premise = weakref.ref(to_labeled(above.conclusion))
    gc.disable()
    try:
        del proof, above
        assert premise() is None
        report = check(calc, ProofTree(goal, rule, params, (misfit,)))
    finally:
        gc.enable()
    assert not report.ok and report.node == (0,)
    assert report.message.startswith(f"premise 0 of {rule} ")
