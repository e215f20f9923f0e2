"""End-to-end runs of the command line interface."""

import json
import time

import pytest

from fomodal.cli import main
from fomodal.jsonio import (MAX_NESTING, proof_from_json, proof_to_json,
                            sequent_from_json)
from fomodal.prover import MAX_SEARCH_DEPTH
from fomodal.refine import refine_proof
from fomodal.sequents import (NestedSequent, parse_labeled, parse_nested,
                              render_nested, to_labeled)

from fixtures import EX_FRAME, elimination_initial
from test_prover import deep_branch_goal


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _json(out):
    return json.loads(out)


def test_prove_serial_formula(capsys):
    code, out = _run(capsys, "prove", "--serial", "<> ~false")
    assert code == 0
    assert _json(out)["status"] == "proved"


def test_prove_failure_exit_code(capsys):
    code, out = _run(capsys, "prove", "<> ~false")
    assert code == 1
    payload = _json(out)
    assert payload["status"] == "exhausted"
    assert payload["complete"] is True


def test_prove_refuses_negative_budgets(capsys):
    for flag, goal in [("--max-creations", "p"), ("--max-depth", "~(p & ~p)"),
                       ("--max-nodes", "p")]:
        assert main(["prove", goal, flag, "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        name = flag[2:].replace("-", "_")
        assert captured.err == f"error: {name} must not be negative, got -1\n"
    # zero stays a budget
    code, out = _run(capsys, "prove", "p", "--max-creations", "0")
    assert code == 1 and _json(out)["complete"] is True


def test_prove_refuses_a_depth_past_the_limit(capsys):
    goal = deep_branch_goal(MAX_SEARCH_DEPTH, "deep_cli")
    code, out = _run(capsys, "prove", "--sequent", goal,
                     "--max-depth", str(MAX_SEARCH_DEPTH))
    assert code == 1 and _json(out)["status"] == "exhausted"
    assert main(["prove", "p -> p", "--max-depth",
                 str(MAX_SEARCH_DEPTH + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: max_depth must be at most "
                            f"{MAX_SEARCH_DEPTH}, got {MAX_SEARCH_DEPTH + 1}\n")


def test_prove_sequent_with_proof_payload(capsys):
    code, out = _run(capsys, "prove", "--sequent", "--path", "0:2",
                     "--proof", "<><> p ; |- <> p")
    assert code == 0
    payload = _json(out)
    tree = proof_from_json(payload["proof"])
    assert tree.conclusion == parse_nested("<><> p ; |- <> p")


def test_prove_budget_flags(capsys):
    code, out = _run(capsys, "prove", "--serial", "--max-creations", "2",
                     "<> <> <> <> ~false")
    assert code == 1
    assert _json(out)["complete"] is False


def test_grammar_member_and_pretty(capsys):
    code, out = _run(capsys, "grammar", "--system", "s4", "--start", "d",
                     "--string", "ddd", "--pretty")
    assert code == 0
    assert "member" in out
    code, out = _run(capsys, "grammar", "--system", "s4", "--start", "d",
                     "--string", "bdd", "--pretty")
    assert code == 1
    assert "non-member" in out


def test_grammar_explicit_productions(capsys):
    code, out = _run(capsys, "grammar", "--production", "d -> eps",
                     "--production", "d -> dd", "--start", "d",
                     "--string", "eps")
    assert code == 0
    assert _json(out)["member"] is True


def test_grammar_sg_needs_path(capsys):
    code, _ = _run(capsys, "grammar", "--system", "sg", "--start", "d",
                   "--string", "d")
    assert code == 3


def test_check_good_and_corrupted_proof(capsys, tmp_path):
    proof = elimination_initial()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(proof_to_json(proof)))
    code, out = _run(capsys, "check", "--calculus", "g3",
                     "--frame-paths", "0:2", "--inc-dom", str(good))
    assert code == 0
    assert _json(out)["ok"] is True

    obj = proof_to_json(proof)
    node = obj
    while node["premises"]:
        node = node["premises"][0]
    node["rule"] = "bot_l"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out = _run(capsys, "check", "--calculus", "g3",
                     "--frame-paths", "0:2", "--inc-dom", str(bad))
    assert code == 4
    payload = _json(out)
    assert payload["ok"] is False
    assert "node" in payload and "message" in payload


def test_translate_round_trip(capsys, tmp_path):
    text = "<>p ; x |- [p ; |- exists y. q(y)]@v @w"
    code, out = _run(capsys, "translate", "--to-labeled", text)
    assert code == 0
    labeled = tmp_path / "labeled.json"
    labeled.write_text(out)
    code, out = _run(capsys, "translate", "--to-nested", str(labeled))
    assert code == 0
    assert sequent_from_json(_json(out)) == parse_nested(text)


@pytest.mark.parametrize("text", ["v0Rv1,- v1: r |- v0: r", "|- ~v0: p",
                                  "v2@: q |- "])
def test_translate_refuses_labels_that_are_no_identifiers(capsys, text):
    assert main(["translate", "--to-nested", text]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("obj, key", [
    ({"kind": "labeled", "rel": [["w0", "- v1"]], "right": [["- v1", "p"]]},
     "rel entry"),
    ({"kind": "labeled", "rel": [["w0", "wR"]]}, "rel entry"),
    ({"kind": "labeled", "dom": [["x y", "w"]]}, "dom entry"),
    ({"kind": "labeled", "right": [["exists", "p"]]}, "right label"),
    ({"kind": "nested", "label": "1w"}, "label or vars entry"),
    ({"kind": "nested", "vars": ["x'y"]}, "label or vars entry")])
def test_json_labels_and_variables_are_names(capsys, obj, key):
    code = main(["translate", "--to-nested", "--pretty", json.dumps(obj)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"error: {key}: cannot read ")


@pytest.mark.parametrize("params, key", [
    ({"label": "w", "target": "v+"}, "params.target"),
    ({"label": "w", "chain_u": ["w", ""]}, "params.chain_u"),
    ({"label": "w", "witness": {"labels": ["w", "v v"], "chars": ["d"]}},
     "path label")])
def test_json_params_carry_names(capsys, params, key):
    node = {"conclusion": {"kind": "labeled", "left": [["w", "p"]],
                           "right": [["w", "p"]]},
            "rule": "ax", "params": params, "premises": []}
    code = main(["check", "--calculus", "refined", json.dumps(node)])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: {key}: cannot read ")


def test_prover_proofs_round_trip_through_json(capsys):
    code, out = _run(capsys, "prove", "--proof", "--path", "0:2", "--inc-dom",
                     "(exists x. []p(x)) -> [][]exists x. p(x)")
    assert code == 0
    proof = _json(out)["proof"]
    assert proof_to_json(proof_from_json(proof)) == proof
    assert _run(capsys, "check", "--calculus", "nested", "--path", "0:2",
                "--inc-dom", json.dumps(proof))[0] == 0
    code, out = _run(capsys, "check", "--calculus", "nested", "--inc-dom",
                     json.dumps(proof))
    assert code == 4 and "witness string dd not derivable" in out


@pytest.mark.parametrize("params, key", [
    ({"label": {"a": 1}, "target": "v"}, "params.label"),
    ({"label": "w", "target": ["v"]}, "params.target"),
    ({"label": "w", "target": "v", "variable": 3}, "params.variable")])
def test_check_refuses_mistyped_params(capsys, params, key):
    node = {"conclusion": {"kind": "labeled", "left": [["w", "p"]],
                           "right": [["w", "p"]]},
            "rule": "d", "params": params, "premises": []}
    code = main(["check", "--calculus", "refined", "--serial",
                 json.dumps(node)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"error: {key}: expected str")


def test_translate_rejects_wrong_direction(capsys):
    code, _ = _run(capsys, "translate", "--to-nested",
                   "<>p ; |- [p ; |- ]@v @w")
    assert code == 3


def test_refine_outputs_steps(capsys, tmp_path):
    src = tmp_path / "proof.json"
    src.write_text(json.dumps(proof_to_json(elimination_initial())))
    code, out = _run(capsys, "refine", "--path", "0:2", "--inc-dom", str(src))
    assert code == 0
    payload = _json(out)
    ops = [step["op"] for step in payload["steps"]]
    assert ops == ["retag", "swap", "absorb", "swap", "absorb"]
    refined = proof_from_json(payload["proof"])
    expected = refine_proof(EX_FRAME, elimination_initial())
    assert refined == expected.proof


def test_refine_wrong_frame_is_check_failure(capsys, tmp_path):
    src = tmp_path / "proof.json"
    src.write_text(json.dumps(proof_to_json(elimination_initial())))
    code, _ = _run(capsys, "refine", str(src))
    assert code == 4


def test_graph_lists_edges_and_reachability(capsys):
    text = "wRv, wRu, y in D(w), z in D(u) |- v: exists x. p(x), u: <>(q | r)"
    code, out = _run(capsys, "graph", "--source", "u", "--char", "d",
                     "--path", "1:1", "--inc-dom", text)
    assert code == 0
    payload = _json(out)
    assert set(payload["vertices"]) == {"w", "v", "u"}
    assert payload["vertices"]["w"] == ["y"]
    assert ["w", "d", "v"] in payload["edges"]
    assert "v" in payload["reachable"]
    assert payload["witnesses"]["v"]["chars"] == ["b", "d"]


def _chain(atoms: int) -> str:
    return ", ".join(f"w{i}Rw{i + 1}" for i in range(atoms)) + " |- "


def test_graph_refuses_a_graph_too_large_to_saturate(capsys):
    # 401 labels times 800 edges: refused before the saturation, which
    # took several seconds
    start = time.perf_counter()
    code = main(["graph", "--source", "w0", "--path", "0:2", _chain(400)])
    assert time.perf_counter() - start < 5
    assert code == 3
    err = capsys.readouterr().err
    assert "401 labels times 800 edges is more than 100000" in err
    # the graph alone is listed without saturating
    code, out = _run(capsys, "graph", _chain(400))
    assert code == 0 and len(_json(out)["edges"]) == 800
    code, out = _run(capsys, "graph", "--source", "w0", "--path", "0:2",
                     _chain(100))
    assert code == 0 and len(_json(out)["reachable"]) == 100


def test_path_conditions_too_long_are_refused(capsys):
    # check_frame's step sets for --path 2000:2000 took about 20 s
    for argv in (["countermodel", "--path", "201:200", "p"],
                 ["countermodel", "--path", "0:2,100:100", "--path", "99:100",
                  "p"],
                 ["grammar", "--system", "sg", "--path", "200000:200000",
                  "--start", "d", "--string", "d"]):
        start = time.perf_counter()
        assert main(argv) == 3, argv
        assert time.perf_counter() - start < 5
        assert "more than 400" in capsys.readouterr().err
    code, out = _run(capsys, "grammar", "--system", "sg", "--path", "200:200",
                     "--start", "d", "--string", "d")
    assert code == 0 and _json(out)["member"]


def test_countermodel_found_and_absent(capsys):
    code, out = _run(capsys, "countermodel", "exists x. (p(x) | ~p(x))")
    assert code == 2
    payload = _json(out)
    assert payload["status"] == "countermodel"
    assert payload["model"]["domains"] == [[]]
    code, out = _run(capsys, "countermodel", "--nonempty-dom",
                     "exists x. (p(x) | ~p(x))")
    assert code == 0
    assert _json(out)["status"] == "none"


@pytest.mark.parametrize("bounds", [("--max-worlds", "0"),
                                    ("--max-worlds", "-1"),
                                    ("--max-individuals", "-1")])
def test_countermodel_rejects_bad_bounds(capsys, bounds):
    code = main(["countermodel", "p", *bounds])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: bounds need")


@pytest.mark.parametrize("bounds", [("--max-worlds", "5"),
                                    ("--max-worlds", "4",
                                     "--max-individuals", "2"),
                                    ("--max-individuals", "5"),
                                    ("--max-worlds", "1",
                                     "--max-individuals", "10000000"),
                                    # one world, weighed by pool size
                                    ("--max-worlds", "1",
                                     "--max-individuals", "1000000"),
                                    ("--max-worlds", "1",
                                     "--max-individuals", "2000")])
def test_countermodel_refuses_out_of_reach_bounds(capsys, bounds):
    code = main(["countermodel", "p -> p", *bounds])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "out of reach" in captured.err


def test_countermodel_stops_at_the_valuation_limit(capsys):
    # two binary predicates at (3, 2): 2**24 valuations per structure
    # with three worlds and two individuals
    text = ("forall x. forall y. ((p(x, y) | q(x, y)) -> "
            "(p(x, y) | q(x, y)))")
    start = time.perf_counter()
    code = main(["countermodel", text])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert captured.out == ""
    assert "out of reach" in captured.err and "valuations" in captured.err
    # the same search over fewer individuals is in reach
    code, out = _run(capsys, "countermodel", "--max-individuals", "1", text)
    assert code == 0
    assert _json(out)["status"] == "none"
    # a countermodel in the first structures is found at (3, 2)
    code, out = _run(capsys, "countermodel",
                     "forall x. forall y. (p(x, y) | q(x, y))")
    assert code == 2
    assert _json(out)["status"] == "countermodel"


def test_countermodel_stops_at_the_assignment_limit(capsys):
    # six variables in scope at one world: 8**6 assignments per node
    # with eight individuals, over only 2**8 valuations
    text = ("forall a. forall b. forall c. forall d. forall e. forall g. "
            "((p(a) & p(b) & p(c) & p(d) & p(e) & p(g)) -> p(a))")
    start = time.perf_counter()
    code = main(["countermodel", "--max-worlds", "1",
                 "--max-individuals", "8", text])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert captured.out == ""
    assert "out of reach" in captured.err and "assignments" in captured.err
    code, out = _run(capsys, "countermodel", "--max-worlds", "1",
                     "--max-individuals", "4", text)
    assert code == 0
    assert _json(out)["status"] == "none"


def test_countermodel_reaches_four_worlds(capsys):
    # a path of three steps and none of four needs four worlds
    text = "~(<><><> ~false & [][][][] false)"
    code, out = _run(capsys, "countermodel", text)
    assert code == 0
    code, out = _run(capsys, "countermodel", "--max-worlds", "4",
                     "--max-individuals", "1", text)
    assert code == 2
    assert _json(out)["model"]["worlds"] == 4


@pytest.mark.parametrize("text", ["~" * 3000 + "p", " | ".join(["p"] * 3000)])
def test_over_deep_formula_is_an_input_error(capsys, text):
    for argv in (["prove", text], ["countermodel", text]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: formula nested more than 200")
    nested = json.dumps({"conclusion": {"kind": "nested", "right": [text]},
                         "rule": "id"})
    assert _run(capsys, "check", nested)[0] == 3


def test_over_deep_proof_json_is_an_input_error(capsys):
    leaf = '{"conclusion": {"kind": "labeled"}, "rule": "ax"}'
    text = ('{"conclusion": {"kind": "labeled"}, "rule": "ax", "premises": ['
            * 3000 + leaf + "]}" * 3000)
    for command in ("check", "refine"):
        code = main([command, text])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(
            f"error: JSON nested more than {MAX_NESTING} deep")


def test_check_takes_a_proof_near_the_prover_depth_limit(capsys):
    # or_r, 197 negation steps and ax: height 199, the default
    # SearchBudget.max_depth of 200 allows at most 201
    code, out = _run(capsys, "prove", "--proof", "~" * 197 + "p | p")
    assert code == 0
    proof = json.dumps(_json(out)["proof"])
    assert proof_from_json(json.loads(proof)).height() == 199
    assert _run(capsys, "check", "--calculus", "nested", proof)[0] == 0


def test_check_reads_back_a_proof_at_the_prover_depth_limit(capsys):
    # p0 -> <balanced disjunction of p1, ..., p259, p0>: or_r splits it
    # down a branch 262 high, past 500 JSON levels at two per premise
    goal = f"p0 -> {_balanced(260, first=1).replace('p260', 'p0')}"
    code, out = _run(capsys, "prove", "--proof", "--max-depth",
                     str(MAX_SEARCH_DEPTH), goal)
    assert code == 0
    proof = _json(out)["proof"]
    assert proof_from_json(proof).height() == 262
    assert _run(capsys, "check", "--calculus", "nested",
                json.dumps(proof))[0] == 0


def _balanced(atoms: int, first: int = 0) -> str:
    def part(lo, hi):
        if hi - lo == 1:
            return f"p{lo}"
        mid = (lo + hi) // 2
        return f"({part(lo, mid)} | {part(mid, hi)})"
    return part(first, first + atoms)


@pytest.mark.parametrize("argv", [
    # p_dia compares two diamond chains 200 deep, deep in a branch
    ["--sequent", f"; |- {_balanced(201)}, {'<>' * 200}q"],
    # s_ex1 hashes a fresh instance of a 198-deep chain, deeper still
    ["--max-depth", "300", "--sequent",
     f"; y |- {_balanced(290)}, exists x. {'<>' * 198}p(x)"],
])
def test_long_formulas_compare_and_hash_deep_in_a_branch(capsys, argv):
    code, out = _run(capsys, "prove", *argv)
    assert code == 1
    assert _json(out)["reason"] == "no proof exists for this goal"
    assert _json(out)["complete"] is True


def test_over_deep_nested_sequent_is_an_input_error(capsys):
    text = "p ; |- " + "[q ; |- " * 3000 + "r" + "]" * 3000
    for argv in (["translate", "--to-labeled", text],
                 ["prove", "--sequent", text], ["graph", text]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: sequent nested more than 200")


def test_translate_refuses_a_tree_deeper_than_nested_text_allows(capsys):
    def chain(levels):
        rel = ", ".join(f"w{i}Rw{i + 1}" for i in range(levels))
        return f"{rel} |- w{levels}: p"

    for levels in (3000, 201):
        code = main(["translate", "--to-nested", chain(levels)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: sequent nested more than 200")
    # 200 levels render, and the output reads back as JSON and as text
    code, out = _run(capsys, "translate", "--to-nested", chain(200))
    assert code == 0
    nested = sequent_from_json(_json(out))
    assert parse_nested(render_nested(nested)) == nested
    code, out = _run(capsys, "translate", "--to-labeled", out)
    assert code == 0
    assert sequent_from_json(_json(out)) == parse_labeled(chain(200))


def test_output_file_and_stdin(capsys, tmp_path):
    dest = tmp_path / "result.json"
    code, out = _run(capsys, "prove", "--serial", "-o", str(dest),
                     "<> ~false")
    assert code == 0
    assert json.loads(dest.read_text())["status"] == "proved"


def test_input_error_exit_codes(capsys):
    assert _run(capsys, "prove", "((p")[0] == 3
    # a predicate of two arities across a sequent, as within a formula
    assert _run(capsys, "prove", "p(x) | ~p")[0] == 3
    assert _run(capsys, "prove", "--sequent", "p(x) ; x |- p")[0] == 3
    assert _run(capsys, "translate", "--to-nested", "w0: p(x) |- w0: p")[0] == 3
    labeled = {"kind": "labeled", "left": [["w0", "p(x)"]], "right": [["w0", "p"]]}
    nested = {"kind": "nested", "left": ["p(x)"], "vars": ["x"], "right": ["p"]}
    for flag, obj in (("--to-nested", labeled), ("--to-labeled", nested)):
        assert main(["translate", flag, json.dumps(obj)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: predicate p used with arity 0 and 1\n"
    assert _run(capsys, "check", "{not json")[0] == 3
    assert _run(capsys, "no-such-command")[0] == 3
    assert _run(capsys, "grammar", "--start", "d", "--string", "d")[0] == 3


def test_prove_pretty_prints_proof_tree(capsys):
    code, out = _run(capsys, "prove", "--serial", "--proof", "--pretty",
                     "<> ~false")
    assert code == 0
    assert "[d]" in out or "[dia_l]" in out
