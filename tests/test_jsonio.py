"""Round trips and validation for the JSON codecs."""

import json
from itertools import accumulate

import pytest

from fomodal.calculi import RuleId, RuleParams
from fomodal.jsonio import (MAX_NESTING, JsonError, dumps, frame_from_json,
                            frame_to_json, loads, model_from_json,
                            model_to_json, params_from_json,
                            params_to_json, path_from_json, path_to_json,
                            proof_from_json, proof_to_json, rule_from_json,
                            rule_to_json, sequent_from_json, sequent_to_json,
                            system_from_json, system_to_json)
from fomodal.grammar import of_paths, s4, s5, union
from fomodal.propagation import PropPath
from fomodal.semantics import KripkeModel
from fomodal.prover import MAX_SEARCH_DEPTH
from fomodal.sequents import (NestedSequent, parse_labeled, parse_nested,
                              to_labeled)
from fomodal.syntax import (MAX_DEPTH, ArityError, FormulaError, frame_spec,
                            parse_formula, render_formula)

from fixtures import elimination_initial


def _via_json(obj):
    return json.loads(json.dumps(obj))


def test_frame_round_trip():
    frame = frame_spec(serial=True, paths=[(0, 2), (1, 1)], inc=True,
                       nonempty=True)
    assert frame_from_json(_via_json(frame_to_json(frame))) == frame
    assert frame_from_json({}) == frame_spec()


def test_frame_rejects_bad_paths():
    with pytest.raises(JsonError, match="pair of naturals"):
        frame_from_json({"paths": [[1]]})
    with pytest.raises(JsonError, match="pair of naturals"):
        frame_from_json({"paths": [[-1, 2]]})
    with pytest.raises(JsonError, match="expected dict"):
        frame_from_json([])


def test_frame_rejects_mistyped_fields():
    for obj, message in [({"serial": "no"}, "frame.serial: expected bool"),
                         ({"inc": [0]}, "frame.inc: expected bool"),
                         ({"nonempty": 1}, "frame.nonempty: expected bool"),
                         ({"paths": [[0, True]]}, "pair of naturals"),
                         ({"paths": 3}, "frame.paths: expected list")]:
        with pytest.raises(JsonError, match=message):
            frame_from_json(obj)


def test_labeled_sequent_round_trip():
    seq = parse_labeled("wRv, x in D(w), w: <>p(x) |- v: p(x), w: false")
    assert sequent_from_json(_via_json(sequent_to_json(seq))) == seq


def test_nested_sequent_round_trip():
    seq = parse_nested("<>r ; x |- exists y. q(y), [p(x) ; |- ]@v @u")
    assert sequent_from_json(_via_json(sequent_to_json(seq))) == seq


def test_sequent_rejects_malformed_input():
    with pytest.raises(JsonError, match="'labeled' or 'nested'"):
        sequent_from_json({"kind": "tableau"})
    with pytest.raises(JsonError, match="is not a pair of names"):
        sequent_from_json({"kind": "labeled", "rel": [["w"]]})
    with pytest.raises(JsonError, match="left formula"):
        sequent_from_json({"kind": "nested", "left": ["( p"]})
    with pytest.raises(JsonError, match="right formula: .* more than 200"):
        sequent_from_json({"kind": "nested", "right": ["~" * 201 + "p"]})
    with pytest.raises(JsonError, match="must be nested"):
        sequent_from_json({"kind": "nested",
                           "children": [{"kind": "labeled"}]})


@pytest.mark.parametrize("obj", [
    {"kind": "labeled", "left": [["w0", "p(x)"]], "right": [["w0", "p"]]},
    {"kind": "labeled", "rel": [["w0", "w1"]], "left": [["w1", "q"]],
     "right": [["w0", "q(y)"]]},
    {"kind": "nested", "left": ["p(x)"], "vars": ["x"], "right": ["p"]},
    {"kind": "nested", "right": ["p"],
     "children": [{"kind": "nested", "label": "w1", "right": ["p(x, y)"]}]}])
def test_sequent_arities_agree_across_the_sequent(obj):
    # as the text readers check, and with the same error
    with pytest.raises(ArityError, match="used with arity"):
        sequent_from_json(obj)
    text = json.dumps(obj)
    for clash in ("(x)", "(y)", "(x, y)"):
        text = text.replace(clash, "")
    assert sequent_from_json(json.loads(text)) is not None


def test_rule_round_trip():
    for rule in (RuleId("ax"), RuleId("p_dia"), RuleId("g", (0, 2)),
                 RuleId("g", (1, 1))):
        assert rule_from_json(_via_json(rule_to_json(rule))) == rule
    with pytest.raises(JsonError, match="cannot read rule"):
        rule_from_json("g(1)")


def test_path_round_trip():
    path = PropPath(("w", "u", "v"), ("b", "d"))
    assert path_from_json(_via_json(path_to_json(path))) == path
    with pytest.raises(JsonError, match="path.labels"):
        path_from_json({"chars": []})


def test_params_round_trip():
    params = RuleParams(label="w", target="v", formula=parse_formula("<>p"),
                        variable="x", chain_u=("w",), chain_v=("w", "u"),
                        witness=PropPath(("w", "u"), ("d",)))
    assert params_from_json(_via_json(params_to_json(params))) == params
    assert params_from_json({}) == RuleParams()


def test_params_reject_unknown_keys():
    with pytest.raises(JsonError, match="unknown params key 'world'"):
        params_from_json({"world": "w"})


def test_proof_round_trip():
    proof = elimination_initial()
    back = proof_from_json(_via_json(proof_to_json(proof)))
    assert back == proof


def test_proof_decode_parses_each_formula_text_once():
    back = proof_from_json(_via_json(proof_to_json(elimination_initial())))
    by_text = {}
    for _, node in back.walk():
        seq = node.conclusion
        for _, phi in seq.left + seq.right:
            by_text.setdefault(render_formula(phi), []).append(phi)
    assert max(len(found) for found in by_text.values()) > 1
    for found in by_text.values():
        assert all(phi is found[0] for phi in found)
    # a bad formula reads as it did before: the first text that fails
    with pytest.raises(FormulaError) as parse_err:
        parse_formula("( p")
    node = {"conclusion": {"kind": "labeled", "left": [["w", "p"]],
                           "right": [["w", "p"], ["w", "( p"]]},
            "rule": "ax", "params": {"label": "w", "formula": "p"}}
    with pytest.raises(JsonError) as err:
        proof_from_json(node)
    assert str(err.value) == f"right formula: {parse_err.value}"


def test_proof_needs_core_keys():
    with pytest.raises(JsonError, match="'conclusion' and 'rule'"):
        proof_from_json({"rule": "ax"})


def test_loads_limits_nesting_outside_strings():
    assert loads("[" * MAX_NESTING + "]" * MAX_NESTING) is not None
    with pytest.raises(JsonError, match=f"nested more than {MAX_NESTING}"):
        loads("[" * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1))
    # brackets inside strings, escaped quotes included, do not nest
    text = '{"a": "\\"' + "[" * 3000 + '", "b": ["{]"]}'
    assert loads(text) == {"a": '"' + "[" * 3000, "b": ["{]"]}
    with pytest.raises(JsonError, match="not valid JSON"):
        loads("{not json")


def test_sequents_as_deep_as_a_prover_conclusion_round_trip():
    # a goal nested MAX_DEPTH levels, one more level per search step
    depth = MAX_DEPTH + MAX_SEARCH_DEPTH
    seq = NestedSequent(f"w{depth}", (), ("x",), (parse_formula("p(x)"),))
    for n in reversed(range(depth)):
        seq = NestedSequent(f"w{n}", (), (), (), (seq,))
    text = dumps(sequent_to_json(seq))
    assert "\n" not in text  # compact: indentation grows with the depth
    assert max(accumulate(1 if c in "[{" else -1 if c in "]}" else 0
                          for c in text)) == 2 * depth + 2
    back = sequent_from_json(loads(text))
    assert back.labels() == seq.labels()
    assert to_labeled(back) == to_labeled(seq)
    with pytest.raises(JsonError, match="children of a nested sequent"):
        sequent_from_json({"kind": "nested", "children": [
            {"kind": "nested", "children": [{"kind": "labeled"}]}]})


def test_system_round_trip():
    for sys_ in (s4(), s5(), of_paths([(0, 2)]),
                 union(s4(), of_paths([(1, 1)]))):
        assert system_from_json(_via_json(system_to_json(sys_))) == sys_
    with pytest.raises(JsonError):
        system_from_json(["d => x"])


def test_model_round_trip():
    model = KripkeModel(2, frozenset({(0, 1)}),
                        (frozenset({0}), frozenset({0, 1})),
                        frozenset({("p", 1, (0,)), ("q", 0, ())}))
    assert model_from_json(_via_json(model_to_json(model))) == model


def test_model_rejects_bad_entries():
    with pytest.raises(JsonError, match="is not a world pair"):
        model_from_json({"worlds": 1, "rel": [[0]]})
    with pytest.raises(JsonError, match="is not a triple"):
        model_from_json({"worlds": 1, "valuation": [["p", 0]]})
