"""Acceptance suite.

One test per criterion so that a verbose run prints one pass/fail line
for each.  Criteria 8 and 9 range over the proof corpus built by
criteria 4 and 6, which is computed once and cached.
"""

import functools
import random
from dataclasses import replace

from fomodal.calculi import (P_DIA, S_EX1, CalculusSpec, RuleParams,
                             apply_rule, check, side_condition)
from fomodal.grammar import derives, of_paths, s4, s5, union
from fomodal.propagation import PropagationGraph, build_graph, reachable
from fomodal.prover import Proved, prove_formula, prove_sequent
from fomodal.refine import labelize, refine_proof
from fomodal.semantics import (check_frame, enumerate_models, eval_formula,
                               find_countermodel, labeled_sequent_valid)
from fomodal.sequents import (is_labeled_tree, labeled_alpha_eq, parse_labeled,
                              parse_nested, render_labeled, to_labeled,
                              to_nested)
from fomodal.syntax import (frame_spec, parse_formula, predicate_arities)

from fixtures import (EX_FRAME, PROP_FRAME, PROP_SEQ, elimination_display_2,
                      elimination_display_3, elimination_display_4,
                      elimination_initial)
from oracles import (all_strings, earley_member, random_edges,
                     random_labeled_tree, random_nested, saturated_members)

CORPUS_SYSTEMS = (
    ("s4", s4()),
    ("s5", s5()),
    ("s(1,1)", of_paths([(1, 1)])),
    ("s(0,2)", of_paths([(0, 2)])),
    ("s4+s(0,2)", union(s4(), of_paths([(0, 2)]))),
)

BARCAN = "(forall x. []p(x)) -> [](forall x. p(x))"
CONVERSE = "[](forall x. p(x)) -> (forall x. []p(x))"

# (formula for the model oracle, sequent goal or None, frame, whether
# the frame condition can be dropped for the negative suite)
THEOREMS = (
    ("~ <> false", None, frame_spec(), False),
    ("<> ~false", None, frame_spec(serial=True), True),
    ("<><>p -> <>p", "<><> p ; |- <> p", frame_spec(paths=[(0, 2)]), True),
    ("p -> <>p", None, frame_spec(paths=[(0, 0)]), True),
    (BARCAN, None, frame_spec(dec=True), True),
    (CONVERSE, None, frame_spec(inc=True), True),
    (BARCAN, None, frame_spec(const=True), True),
    (CONVERSE, None, frame_spec(const=True), True),
    ("exists x. (p(x) | ~p(x))", None, frame_spec(nonempty=True), True),
)


def _walk(proof):
    yield proof
    for premise in proof.premises:
        yield from _walk(premise)


@functools.lru_cache(maxsize=None)
def _elimination_corpus():
    initial = elimination_initial()
    refined = refine_proof(EX_FRAME, initial)
    return initial, refined


@functools.lru_cache(maxsize=None)
def _theorem_corpus():
    rows = []
    for formula_text, sequent_text, frame, removable in THEOREMS:
        if sequent_text is None:
            result = prove_formula(frame, parse_formula(formula_text))
        else:
            result = prove_sequent(frame, parse_nested(sequent_text))
        labeled = labelize(frame, result.proof) if isinstance(result, Proved) \
            else None
        rows.append((formula_text, sequent_text, frame, removable, result,
                     labeled))
    return tuple(rows)


def test_criterion_1_grammar_oracle_equivalence():
    strings = list(all_strings(6))
    for name, sys_ in CORPUS_SYSTEMS:
        for char in ("d", "b"):
            members = saturated_members(sys_, char, 6)
            for s in strings:
                assert derives(sys_, char, s) == (s in members), \
                    (name, char, s)
    for s in strings:
        assert derives(s4(), "d", s) == (s == "d" * len(s)), s
        assert derives(s5(), "d", s) and derives(s5(), "b", s), s


def test_criterion_2_reachability_oracle_equivalence():
    max_len = 10
    words = list(all_strings(max_len + 1))
    member = {(name, char): {w for w in words
                             if earley_member(sys_, char, w)}
              for name, sys_ in CORPUS_SYSTEMS for char in ("d", "b")}
    rng = random.Random(2024)
    for trial in range(200):
        vertices, edges = random_edges(rng)
        graph = PropagationGraph({v: frozenset() for v in vertices}, edges)
        n = len(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        step = {"d": [0] * n, "b": [0] * n}
        for w, c, u in edges:
            step[c][index[w]] |= 1 << index[u]
        # walk targets for every word, grouped by word via one relation-
        # valued trie sweep; row i of a relation is the bitmask of
        # vertices reached from vertex i
        acc = {key: [0] * n for key in member}
        sat = {key: [0] * n for key in member}

        def visit(word, rel, depth):
            for key, language in member.items():
                if word in language:
                    rows = sat[key]
                    for i in range(n):
                        rows[i] |= rel[i]
                    if depth <= max_len:
                        rows = acc[key]
                        for i in range(n):
                            rows[i] |= rel[i]
            if depth > max_len or not any(rel):
                return
            for c in ("d", "b"):
                mat = step[c]
                nxt = []
                for i in range(n):
                    bits, row = rel[i], 0
                    while bits:
                        j = bits.bit_length() - 1
                        bits ^= 1 << j
                        row |= mat[j]
                    nxt.append(row)
                visit(word + c, nxt, depth + 1)

        visit("", [1 << i for i in range(n)], 0)
        for name, sys_ in CORPUS_SYSTEMS:
            for char in ("d", "b"):
                key = (name, char)
                assert sat[key] == acc[key], ("saturation", trial, key)
                for v in vertices:
                    want = frozenset(vertices[j] for j in range(n)
                                     if acc[key][index[v]] >> j & 1)
                    assert reachable(graph, sys_, char, v) == want, \
                        (trial, key, v)


def test_criterion_3_propagation_example_regression():
    graph = build_graph(PROP_SEQ)
    assert graph.vertices == {"w": frozenset({"y"}), "v": frozenset(),
                              "u": frozenset({"z"})}
    assert graph.edges == frozenset({("w", "d", "v"), ("v", "b", "w"),
                                     ("w", "d", "u"), ("u", "b", "w")})

    calc = CalculusSpec("Mixed", PROP_FRAME)
    params = RuleParams(label="u", formula=parse_formula("<>(q | r)"),
                        target="v")
    cond = side_condition(calc, P_DIA, PROP_SEQ, params)
    assert cond.holds
    assert tuple(cond.witness.labels) == ("u", "w", "v")
    assert tuple(cond.witness.chars) == ("b", "d")
    (premise,) = apply_rule(calc, PROP_SEQ, P_DIA,
                            replace(params, witness=cond.witness))
    assert premise == parse_labeled(
        "wRv, wRu, y in D(w), z in D(u) |- "
        "v: exists x. p(x), u: <>(q | r), v: q | r")

    params = RuleParams(label="v", formula=parse_formula("exists x. p(x)"),
                        variable="y")
    cond = side_condition(calc, S_EX1, PROP_SEQ, params)
    assert cond.holds and cond.target == "w"
    assert tuple(cond.witness.labels) == ("v", "w")
    assert tuple(cond.witness.chars) == ("b",)
    (premise,) = apply_rule(calc, PROP_SEQ, S_EX1,
                            replace(params, target=cond.target,
                                    witness=cond.witness))
    assert premise == parse_labeled(
        "wRv, wRu, y in D(w), z in D(u) |- "
        "v: exists x. p(x), u: <>(q | r), v: p(y)")


def test_criterion_4_elimination_regression():
    initial, refined = _elimination_corpus()
    assert check(CalculusSpec("G3", EX_FRAME), initial).ok
    for node in _walk(refined.proof):
        assert node.rule.name not in {"g", "id", "dd", "nd"}, node.rule
    assert refined.proof.conclusion == initial.conclusion
    assert check(CalculusSpec("RefinedL", EX_FRAME), refined.proof).ok
    mixed = CalculusSpec("Mixed", EX_FRAME)
    assert check(mixed, elimination_display_2()).ok
    assert check(mixed, elimination_display_3()).ok
    assert check(CalculusSpec("RefinedL", EX_FRAME),
                 elimination_display_4()).ok


def test_criterion_5_translation_round_trips():
    phi = parse_nested("exists x. p(x) ; |- t | r, "
                       "[s ; y |- q(y), [<>s ; y, z |- <>t]@u]@v")
    lab = to_labeled(phi)
    assert lab == parse_labeled(
        "w0Rv, vRu, y in D(v), y in D(u), z in D(u), "
        "w0: exists x. p(x), v: s, u: <>s |- w0: t | r, v: q(y), u: <>t")
    assert to_nested(lab) == phi

    rng = random.Random(5)
    for _ in range(500):
        nested = random_nested(rng)
        assert to_nested(to_labeled(nested)) == nested
    for _ in range(500):
        tree = random_labeled_tree(rng)
        assert labeled_alpha_eq(to_labeled(to_nested(tree)), tree)


def test_criterion_6_theorem_suite():
    for formula_text, sequent_text, frame, _, result, labeled \
            in _theorem_corpus():
        assert isinstance(result, Proved), (formula_text, frame, result)
        assert check(CalculusSpec("NestedN", frame), result.proof).ok
        assert labeled is not None
        phi = parse_formula(formula_text)
        assert find_countermodel(phi, frame, max_worlds=3,
                                 max_individuals=2) is None, formula_text


def test_criterion_7_negative_suite():
    bare = frame_spec()
    for formula_text, sequent_text, frame, removable in THEOREMS:
        if not removable:
            continue
        phi = parse_formula(formula_text)
        if sequent_text is None:
            result = prove_formula(bare, phi)
        else:
            result = prove_sequent(bare, parse_nested(sequent_text))
        assert not result, (formula_text, result)
        found = find_countermodel(phi, bare, max_worlds=3, max_individuals=2)
        assert found is not None, formula_text
        model, world = found
        assert check_frame(model, bare)
        assert not check_frame(model, frame), formula_text
        assert not eval_formula(model, world, phi)


def test_criterion_8_fixed_root_property():
    _, refined = _elimination_corpus()
    proofs = [refined.proof, elimination_display_4()]
    proofs += [labeled for *_, labeled in _theorem_corpus()
               if labeled is not None]
    assert len(proofs) >= 10
    for proof in proofs:
        ok, root = is_labeled_tree(proof.conclusion)
        assert ok
        for node in _walk(proof):
            node_ok, node_root = is_labeled_tree(node.conclusion)
            assert node_ok and node_root == root, (node.rule, node_root, root)


def test_criterion_9_checker_soundness_sweep():
    corpus = {}
    initial, _ = _elimination_corpus()
    corpus[(EX_FRAME, render_labeled(initial.conclusion))] = \
        (EX_FRAME, initial.conclusion)
    for *_, frame, _removable, result, _labeled in _theorem_corpus():
        if isinstance(result, Proved):
            seq = to_labeled(result.proof.conclusion)
            corpus[(frame, render_labeled(seq))] = (frame, seq)
    assert len(corpus) >= 9
    for frame, seq in corpus.values():
        signature = predicate_arities([f for _, f in seq.left + seq.right])
        count = 0
        for model in enumerate_models(signature, 2, 2, frame):
            assert labeled_sequent_valid(model, seq), \
                (render_labeled(seq), model)
            count += 1
        assert count > 0
