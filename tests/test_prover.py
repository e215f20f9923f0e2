"""Backward proof search over nested sequents."""

import random
import sys

import pytest

from fomodal import prover
from fomodal.calculi import (AX, OR_R, P_DIA, CalculusSpec, ProofTree,
                             RuleParams, check)
from fomodal.jsonio import proof_from_json, proof_to_json, rule_to_json
from fomodal.prover import (MAX_SEARCH_DEPTH, Exhausted, Proved, ProverError,
                            SearchBudget, prove_formula, prove_sequent)
from fomodal.sequents import (DuplicateLabelError, NestedSequent, components,
                              parse_labeled, parse_nested)
from fomodal.syntax import (MAX_DEPTH, Dia, Neg, Or, frame_spec, parse_formula,
                            rename_apart)
from oracles import prove_restarting, random_formula, walk_pairs
from test_acceptance import THEOREMS
from test_prover_output import NON_THEOREMS


def _proves(text, frame):
    result = prove_formula(frame, parse_formula(text))
    assert isinstance(result, Proved), (text, result)
    report = check(CalculusSpec("NestedN", frame), result.proof)
    assert report.ok, report.message
    return result


def _fails(text, frame):
    result = prove_formula(frame, parse_formula(text))
    assert isinstance(result, Exhausted), (text, result)
    assert result.complete
    return result


def test_propositional_theorems():
    frame = frame_spec()
    for text in ["p | ~p", "~(p & ~p)", "p -> p", "(p -> q) -> (~q -> ~p)",
                 "false -> p", "~~p -> p", "p -> ~~p"]:
        _proves(text, frame)


def test_propositional_non_theorems():
    frame = frame_spec()
    for text in ["p", "p -> q", "p | q", "~p", "<>p", "[]p -> p"]:
        _fails(text, frame)


def test_modal_axioms_match_frames():
    cases = [
        ("[](p -> q) -> ([]p -> []q)", frame_spec()),          # distribution
        ("[]p -> <>p", frame_spec(serial=True)),               # seriality
        ("<> ~false", frame_spec(serial=True)),
        ("p -> <>p", frame_spec(paths=[(0, 0)])),              # reflexivity
        ("p -> []<>p", frame_spec(paths=[(1, 0)])),            # symmetry
        ("<><>p -> <>p", frame_spec(paths=[(0, 2)])),          # transitivity
        ("<>p -> []<>p", frame_spec(paths=[(1, 1)])),          # euclidean
    ]
    for text, frame in cases:
        _proves(text, frame)
        if frame != frame_spec():
            _fails(text, frame_spec())


def test_quantifier_theorems():
    frame = frame_spec(nonempty=True)
    _proves("exists x. (p(x) | ~p(x))", frame)
    _fails("exists x. (p(x) | ~p(x))", frame_spec())
    _proves("(forall x. p(x)) -> ~(exists x. ~p(x))", frame_spec())


def test_barcan_formulas():
    barcan = "(forall x. []p(x)) -> [](forall x. p(x))"
    converse = "[](forall x. p(x)) -> (forall x. []p(x))"
    _proves(barcan, frame_spec(dec=True))
    _fails(barcan, frame_spec())
    _proves(converse, frame_spec(inc=True))
    _fails(converse, frame_spec())
    _proves(barcan, frame_spec(const=True))
    _proves(converse, frame_spec(const=True))


def test_prove_sequent_directly():
    frame = frame_spec(paths=[(0, 2)])
    result = prove_sequent(frame, parse_nested("<><>p ;  |- <>p"))
    assert isinstance(result, Proved)
    assert check(CalculusSpec("NestedN", frame), result.proof).ok
    assert result.proof.conclusion == parse_nested("<><>p ;  |- <>p")


def test_exhausted_carries_completeness():
    result = prove_formula(frame_spec(), parse_formula("p"))
    assert not result
    assert result.complete
    assert result.nodes > 0


def test_budget_abort_is_not_complete():
    frame = frame_spec(serial=True)
    tiny = SearchBudget(max_creations=8, max_depth=200, max_nodes=3)
    result = prove_formula(frame, parse_formula("<><><> ~false"), tiny)
    assert isinstance(result, Exhausted)
    assert not result.complete


def test_deep_goal_needs_creations():
    frame = frame_spec(serial=True)
    result = prove_formula(frame, parse_formula("<><><><> ~false"))
    assert isinstance(result, Proved)
    assert check(CalculusSpec("NestedN", frame), result.proof).ok
    small = SearchBudget(max_creations=2)
    capped = prove_formula(frame, parse_formula("<><><><> ~false"), small)
    assert isinstance(capped, Exhausted)
    assert not capped.complete  # ran out of creations, not of options


def test_prover_handles_transitive_chain_goals():
    frame = frame_spec(paths=[(0, 2)])
    for text in ["<><><>p -> <>p", "<><>p -> <>p"]:
        result = prove_formula(frame, parse_formula(text))
        assert isinstance(result, Proved), text
        assert check(CalculusSpec("NestedN", frame), result.proof).ok


def test_duplicate_root_labels_rejected():
    child = NestedSequent("w0", (), (), (parse_formula("q"),), ())
    seq = NestedSequent("w0", (), (parse_formula("p"),), (), (child,))
    with pytest.raises(DuplicateLabelError):
        prove_sequent(frame_spec(), seq)


def deep_branch_goal(depth: int, atom: str) -> str:
    """A nested goal whose search runs a branch of depth steps: or_r
    splits a balanced disjunction of depth + 1 atoms, and at the node
    at that depth neg_r puts on the left the body of a negation of
    syntax.MAX_DEPTH connectives, which is first rendered there."""
    def balanced(lo, hi):
        if hi - lo == 1:
            return f"p{lo}"
        mid = (lo + hi) // 2
        return f"({balanced(lo, mid)} | {balanced(mid, hi)})"
    deep = "~" + "exists x. " * (MAX_DEPTH - 1) + f"{atom}(x)"
    return f"; |- {balanced(0, depth + 1)}, {deep}"


def test_a_branch_at_the_depth_limit_stays_within_the_recursion_limit():
    budget = SearchBudget(max_depth=MAX_SEARCH_DEPTH)
    goal = parse_nested(deep_branch_goal(MAX_SEARCH_DEPTH, "deep_prover"))
    result = prove_sequent(frame_spec(), goal, budget)
    assert isinstance(result, Exhausted) and not result.complete
    # one more step and the branch would be cut below that node
    assert prove_sequent(frame_spec(), goal,
                         SearchBudget(max_depth=MAX_SEARCH_DEPTH - 1)).nodes \
        < result.nodes
    with pytest.raises(ValueError, match=f"max_depth must be at most "
                                         f"{MAX_SEARCH_DEPTH}, got "
                                         f"{MAX_SEARCH_DEPTH + 1}"):
        SearchBudget(max_depth=MAX_SEARCH_DEPTH + 1)


def test_negative_budgets_are_refused():
    for field in ("max_creations", "max_depth", "max_nodes"):
        with pytest.raises(ValueError, match=f"{field} must not be negative"):
            SearchBudget(**{field: -1})
    zero = SearchBudget(max_creations=0, max_depth=0, max_nodes=0)
    assert isinstance(prove_formula(frame_spec(), parse_formula("p"), zero),
                      Exhausted)


# the frame classes of the benchmark's random sweep
FRAME_CLASSES = (
    {}, {"serial": True}, {"paths": [(0, 0)]}, {"paths": [(1, 0)]},
    {"paths": [(0, 2)]}, {"paths": [(1, 1)]},
    {"serial": True, "paths": [(0, 2)]}, {"paths": [(0, 0), (0, 2)]},
    {"paths": [(0, 0), (1, 1)]}, {"inc": True}, {"dec": True},
    {"const": True}, {"nonempty": True})


def _goals():
    """(frame, goal, budget): the acceptance theorems, the pinned
    non-theorems and seeded random formulas over every frame class."""
    def goal(phi):
        return NestedSequent("w0", (), (), (phi,), ())

    for formula_text, sequent_text, frame, _ in THEOREMS:
        yield frame, goal(parse_formula(formula_text)), None
        if sequent_text is not None:
            yield frame, parse_nested(sequent_text), None
    for formula_text, conditions in NON_THEOREMS:
        yield frame_spec(**conditions), goal(parse_formula(formula_text)), None
    small = SearchBudget(max_creations=3, max_nodes=300)
    for seed in (2024, 2025):
        rng = random.Random(seed)
        for conditions in FRAME_CLASSES:
            for _ in range(8):
                # an implication with a diamond in its consequent, so that
                # both sides get decomposed and p_dia has work to do
                phi = Or(Neg(random_formula(rng, 5)),
                         Or(random_formula(rng, 5),
                            Dia(random_formula(rng, 4))))
                yield frame_spec(**conditions), goal(rename_apart(phi)), small


def test_search_carries_the_components_of_every_node(monkeypatch):
    attack = prover._Search._attack
    root, sizes = [None], []

    def checked(self, node, *rest):
        assert node.comps == components(node.seq, root[0])
        sizes.append(len(node.comps))
        return attack(self, node, *rest)

    monkeypatch.setattr(prover._Search, "_attack", checked)
    for frame, goal, budget in _goals():
        root[0] = goal.label
        prove_sequent(frame, goal, budget)
    assert len(sizes) > 1000 and max(sizes) >= 4


def test_every_p_dia_condition_the_search_asks_holds(monkeypatch):
    asked, side_condition = [], prover.side_condition

    def recording(calc, rule, seq, params):
        cond = side_condition(calc, rule, seq, params)
        if rule == P_DIA:
            asked.append(cond.holds)
        return cond

    monkeypatch.setattr(prover, "side_condition", recording)
    for frame, goal, budget in _goals():
        prove_sequent(frame, goal, budget)
    assert len(asked) > 200 and all(asked)


def test_each_rule_instance_is_applied_once_per_search(monkeypatch):
    """Rounds of one search share their nodes: a later round replays the
    premises an earlier one built instead of applying the rule again."""
    calls, apply_rule = [], prover.apply_rule

    def recording(calc, seq, rule, params):
        calls.append((seq, rule, params))
        return apply_rule(calc, seq, rule, params)

    monkeypatch.setattr(prover, "apply_rule", recording)
    repeats = total = 0
    for frame, goal, budget in _goals():
        calls.clear()
        prove_sequent(frame, goal, budget)
        repeats += len(calls) - len(set(calls))
        total += len(calls)
    assert total > 1000 and repeats < 0.05 * total, (repeats, total)


def test_search_matches_a_search_restarted_for_every_cap():
    """Proofs, node counts, reasons and completeness are those of the
    search that decides every node afresh in every round."""
    def outcome(result):
        if isinstance(result, Proved):
            return proof_to_json(result.proof), result.nodes
        return result.reason, result.complete, result.nodes

    # the acceptance theorems over the bare frame too, and a node limit
    bare = []
    for formula_text, sequent_text, _, _ in THEOREMS:
        bare.append((frame_spec(), NestedSequent(
            "w0", (), (), (parse_formula(formula_text),), ()), None))
        if sequent_text is not None:
            bare.append((frame_spec(), parse_nested(sequent_text), None))
    limited = (frame_spec(serial=True),
               NestedSequent("w0", (), (),
                             (parse_formula("<><><><> ~false"),), ()),
               SearchBudget(max_nodes=5))
    kinds = set()
    for frame, goal, budget in [*_goals(), *bare, limited]:
        result = prove_sequent(frame, goal, budget)
        assert outcome(result) == outcome(prove_restarting(frame, goal,
                                                            budget))
        kinds.add(True if result else (result.complete, result.reason[:8]))
    assert kinds == {True, (True, "no proof"), (False, "no proof"),
                     (False, "node lim")}


def _chain(length):
    leaf = parse_labeled("w0: p |- w0: p")
    chain = ProofTree(leaf, AX, RuleParams(label="w0"))
    for _ in range(length - 1):
        chain = ProofTree(leaf, OR_R, RuleParams(label="w0"), (chain,))
    return chain


def test_walk_matches_the_recursive_preorder():
    leaf = parse_labeled("w0: p |- w0: p")
    chain = _chain(2000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        pairs = walk_pairs(chain)
    finally:
        sys.setrecursionlimit(limit)
    assert len(pairs) == 2000
    assert [(path, id(node)) for path, node in chain.walk()] == \
        [(path, id(node)) for path, node in pairs]
    # a branching tree: premises come in order, each subtree at once
    rng = random.Random(5)
    nodes = [ProofTree(leaf, AX) for _ in range(40)]
    while len(nodes) > 1:
        k = min(len(nodes), rng.randint(1, 3))
        nodes[:k] = [ProofTree(leaf, OR_R, RuleParams(), tuple(nodes[:k]))]
    assert [(path, id(node)) for path, node in nodes[0].walk()] == \
        [(path, id(node)) for path, node in walk_pairs(nodes[0])]


def test_a_deep_chain_has_a_size_a_height_and_json():
    chain = _chain(2000)
    assert chain.size() == chain.height() == 2000
    node, count = proof_to_json(chain), 1
    while node["premises"]:
        (node,) = node["premises"]
        count += 1
    assert count == 2000 and node["rule"] == rule_to_json(AX)
    # == on ProofTree recurses, so the trees are compared node by node
    back = proof_from_json(proof_to_json(chain))
    assert [(path, node.conclusion, node.rule, node.params)
            for path, node in back.walk()] == \
        [(path, node.conclusion, node.rule, node.params)
         for path, node in chain.walk()]
    # a branching tree keeps its premises in order
    tree = ProofTree(chain.conclusion, OR_R, RuleParams(), (
        _chain(3), ProofTree(chain.conclusion, AX, RuleParams(label="w0"))))
    assert proof_to_json(tree)["premises"] == [proof_to_json(_chain(3)),
                                               proof_to_json(tree.premises[1])]
    assert proof_from_json(proof_to_json(tree)) == tree
    assert (tree.size(), tree.height()) == (5, 4)
