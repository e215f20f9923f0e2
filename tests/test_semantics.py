"""Model evaluation, frame checking and countermodel search."""

import functools
import itertools
import random
from collections import Counter

import pytest

from fomodal import semantics
from fomodal.semantics import (LANE_BYTES, InterpretationError, KripkeModel,
                               SemanticsError, _all_structures,
                               _check_bounds, check_frame, enumerate_models,
                               enumerate_structures, eval_formula,
                               find_countermodel, labeled_sequent_valid)
from fomodal.sequents import parse_labeled
from fomodal.syntax import (ArityError, Bottom, Dia, Exists, Neg, Or, Pred,
                            box, conj, frame_spec, implies, parse_formula,
                            predicate_arities)

import oracles
from oracles import least_structures, structure_images


def _chain_model():
    # two worlds 0 -> 1, one individual at each, p true at 1
    return KripkeModel(2, frozenset({(0, 1)}),
                       (frozenset({0}), frozenset({0})),
                       frozenset({("p", 1, ())}))


def test_model_validation():
    with pytest.raises(SemanticsError):
        KripkeModel(0, frozenset(), (), frozenset())
    with pytest.raises(SemanticsError):
        KripkeModel(1, frozenset({(0, 1)}), (frozenset(),), frozenset())
    with pytest.raises(SemanticsError):
        KripkeModel(1, frozenset(), (frozenset(),),
                    frozenset({("p", 0, (3,))}))


def test_eval_propositional():
    model = _chain_model()
    assert eval_formula(model, 1, parse_formula("p"))
    assert not eval_formula(model, 0, parse_formula("p"))
    assert eval_formula(model, 0, parse_formula("~p"))
    assert eval_formula(model, 0, parse_formula("p | ~p"))
    assert not eval_formula(model, 0, parse_formula("false"))


def test_eval_modal():
    model = _chain_model()
    assert eval_formula(model, 0, parse_formula("<>p"))
    assert not eval_formula(model, 1, parse_formula("<>p"))
    assert eval_formula(model, 1, box(parse_formula("false")))


def test_eval_quantifier_ranges_over_local_domain():
    model = KripkeModel(2, frozenset({(0, 1)}),
                        (frozenset({0}), frozenset({0, 1})),
                        frozenset({("p", 0, (1,)), ("p", 1, (1,))}))
    # at world 0 only individual 0 exists, and p(0) is false there
    assert not eval_formula(model, 0, parse_formula("exists x. p(x)"))
    assert eval_formula(model, 1, parse_formula("exists x. p(x)"))


def test_eval_actualist_quantifier_in_modal_context():
    # <> exists x p(x) looks at the successor's domain
    model = KripkeModel(2, frozenset({(0, 1)}),
                        (frozenset(), frozenset({0})),
                        frozenset({("p", 1, (0,))}))
    assert eval_formula(model, 0, parse_formula("<> exists x. p(x)"))
    assert not eval_formula(model, 0, parse_formula("exists x. <> p(x)"))


def test_labeled_sequent_validity():
    model = _chain_model()
    assert labeled_sequent_valid(model, parse_labeled("w: p |- w: p"))
    assert labeled_sequent_valid(model, parse_labeled("wRv, w: []p |- v: p"))
    assert not labeled_sequent_valid(model, parse_labeled("w: p |- w: q"))
    # relational atoms constrain the interpretations that count
    assert labeled_sequent_valid(model, parse_labeled("vRw, wRv |- v: false"))


def test_check_frame_conditions():
    refl = KripkeModel(1, frozenset({(0, 0)}), (frozenset(),), frozenset())
    bare = KripkeModel(1, frozenset(), (frozenset(),), frozenset())
    assert check_frame(refl, frame_spec(paths=[(0, 0)]))
    assert not check_frame(bare, frame_spec(paths=[(0, 0)]))
    assert not check_frame(bare, frame_spec(serial=True))
    assert check_frame(refl, frame_spec(serial=True))

    chain = KripkeModel(3, frozenset({(0, 1), (1, 2)}),
                        (frozenset(),) * 3, frozenset())
    assert not check_frame(chain, frame_spec(paths=[(0, 2)]))
    closed = KripkeModel(3, frozenset({(0, 1), (1, 2), (0, 2)}),
                         (frozenset(),) * 3, frozenset())
    assert check_frame(closed, frame_spec(paths=[(0, 2)]))

    grow = KripkeModel(2, frozenset({(0, 1)}),
                       (frozenset(), frozenset({0})), frozenset())
    assert check_frame(grow, frame_spec(inc=True))
    assert not check_frame(grow, frame_spec(dec=True))
    assert not check_frame(grow, frame_spec(nonempty=True))


def test_enumerate_structures_respects_frame():
    serial = frame_spec(serial=True)
    kept = list(enumerate_structures(2, 1, serial))
    assert kept == [s for s in _all_structures(2, 1)
                    if check_frame(KripkeModel(*s, frozenset()), serial)]
    # a second pass over the same frame and bounds yields the same
    assert list(enumerate_structures(2, 1, serial)) == kept


@pytest.mark.parametrize("bounds", [(m, k) for m in (1, 2, 3)
                                    for k in (0, 1, 2)] + [(1, 3), (2, 3)])
def test_structure_table_matches_the_reference(bounds):
    assert _all_structures(*bounds) == least_structures(*bounds)


def test_structure_table_counts_relation_classes():
    # binary relations on 1..4 unlabeled points (OEIS A000595)
    table = _all_structures(4, 0)
    assert len(table) == 3160
    assert [sum(1 for s in table if s[0] == n) for n in (1, 2, 3, 4)] == [
        2, 10, 104, 3044]


def test_structure_table_is_isomorph_free_at_four_worlds():
    table = _all_structures(4, 1)
    kept = set(table)
    rng = random.Random(1998)
    # no other structure of the table is an image of a sampled one
    for n, rel, domains in rng.sample(table, 300):
        pool = len(frozenset().union(*domains))
        for image in structure_images(rel, domains, pool):
            assert image == (rel, domains) or (n, *image) not in kept
    # every sampled candidate has an image in the table
    for _ in range(300):
        n = rng.randint(1, 4)
        pairs = [(w, u) for w in range(n) for u in range(n)]
        rel = frozenset(pair for pair in pairs if rng.random() < 0.5)
        pool = rng.randint(0, 1)
        domains = tuple(frozenset(i for i in range(pool)
                                  if rng.random() < 0.5) for _ in range(n))
        if len(frozenset().union(*domains)) < pool:
            domains = (frozenset(range(pool)),) + domains[1:]
        assert any((n, *image) in kept
                   for image in structure_images(rel, domains, pool))


@pytest.mark.parametrize("bounds", [(5, 0), (4, 2), (3, 5), (2, 11),
                                    (1, 10 ** 9), (1, 10 ** 6), (1, 2000),
                                    (1, 1447), (1, 1024)])
def test_enumerate_structures_refuses_out_of_reach_bounds(bounds):
    with pytest.raises(SemanticsError, match="out of reach"):
        enumerate_structures(*bounds)
    with pytest.raises(SemanticsError, match="out of reach"):
        find_countermodel(parse_formula("p"), frame_spec(), *bounds)


def test_bounds_in_reach_stay_accepted():
    # the corpus bounds, four worlds with one individual, ten and four
    # individuals at two and three worlds, and one world with a
    # thousand individuals and with the most it takes
    for bounds in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 0), (4, 1), (2, 10),
                   (3, 4), (1, 1000), (1, 1023)]:
        _check_bounds(*bounds)


def test_find_countermodel_stops_at_the_valuation_limit():
    # two binary predicates: 2**24 valuations per structure at (3, 2)
    binary = parse_formula("forall x. forall y. ((p(x, y) | q(x, y)) -> "
                           "(p(x, y) | q(x, y)))")
    with pytest.raises(SemanticsError, match="out of reach: .* valuations"):
        find_countermodel(binary, frame_spec(), 3, 2)
    assert find_countermodel(binary, frame_spec(), 2, 2) is None
    # three unary predicates: 2**18 valuations per such structure
    unary = parse_formula("forall x. ((p(x) | q(x) | r(x)) -> "
                          "(p(x) | q(x) | r(x)))")
    with pytest.raises(SemanticsError, match="out of reach"):
        find_countermodel(unary, frame_spec(), 3, 2)
    # a countermodel met before the limit is still found
    model, world = find_countermodel(
        parse_formula("forall x. forall y. (p(x, y) | q(x, y))"),
        frame_spec(), 3, 2)
    assert (model.worlds, world) == (1, 0)


SIX_VARIABLES = ("forall a. forall b. forall c. forall d. forall e. forall g. "
                 "((p(a) & p(b) & p(c) & p(d) & p(e) & p(g)) -> p(a))")


def test_find_countermodel_stops_at_the_assignment_limit():
    # six variables in scope: pool**6 assignments for some nodes, at a
    # single world, where the valuations stay few
    six = parse_formula(SIX_VARIABLES)
    for bounds in [(1, 8), (1, 6)]:
        with pytest.raises(SemanticsError,
                           match="out of reach: .* assignments"):
            find_countermodel(six, frame_spec(), *bounds)
    assert find_countermodel(six, frame_spec(), 1, 4) is None
    assert find_countermodel(six, frame_spec(), 2, 2) is None


# -- the compiled evaluator against the tree walker ------------------------

def _random_model(rng):
    """1-3 worlds, 0-3 individuals with random (possibly empty)
    domains, and random atoms over them of the predicates that
    oracles.random_formula draws: p, q, r, p1, q1, p2 and q2."""
    n = rng.randint(1, 3)
    k = rng.randint(0, 3)
    domains = tuple(frozenset(d for d in range(k) if rng.random() < 0.6)
                    for _ in range(n))
    pool = sorted(frozenset().union(*domains))
    signature = {"p": 0, "q": 0, "r": 0, "p1": 1, "q1": 1, "p2": 2, "q2": 2}
    atoms = [(name, w, args) for name, arity in signature.items()
             for w in range(n)
             for args in itertools.product(pool, repeat=arity)]
    return KripkeModel(
        n, frozenset((w, u) for w in range(n) for u in range(n)
                     if rng.random() < 0.4), domains,
        frozenset(atom for atom in atoms if rng.random() < 0.5))


def test_eval_formula_matches_the_tree_walker():
    rng = random.Random(20261019)
    truths = []
    for _ in range(400):
        model = _random_model(rng)
        phi = oracles.random_formula(rng, 4, ("y", "z"))
        # 7 lies outside every domain
        candidates = sorted(model.individuals()) + [7]
        assignment = {"y": rng.choice(candidates), "z": rng.choice(candidates)}
        ev = semantics.Evaluator(model)
        for w in range(model.worlds):
            expected = oracles.eval_formula(model, w, phi, assignment)
            assert eval_formula(model, w, phi, assignment) == expected, \
                (model, w, phi, assignment)
            assert ev.formula(w, phi, assignment) == expected
            truths.append(expected)
    assert len(truths) > 700 and 0.2 < sum(truths) / len(truths) < 0.8


def test_labeled_sequent_valid_matches_the_tree_walker():
    rng = random.Random(20261020)
    outcomes = []
    for _ in range(150):
        model = _random_model(rng)
        seq = oracles.random_labeled_tree(rng, 3)
        got = labeled_sequent_valid(model, seq)
        assert got == oracles.labeled_sequent_valid(model, seq), (model, seq)
        outcomes.append(got)
    assert any(outcomes) and not all(outcomes)


def test_eval_formula_refuses_past_the_assignment_limit():
    six = parse_formula("forall a. forall b. forall c. forall d. forall e. "
                        "forall f. (p(a, b, c, d, e, f) | ~p(a, b, c, d, e, f))")
    four = KripkeModel(1, frozenset(), (frozenset(range(4)),), frozenset())
    assert eval_formula(four, 0, six)
    # 9**6 assignments of the innermost nodes
    nine = KripkeModel(1, frozenset(), (frozenset(range(9)),), frozenset())
    with pytest.raises(SemanticsError, match="out of reach: .* assignments"):
        eval_formula(nine, 0, six)


def test_eval_formula_refuses_a_world_outside_the_model():
    model = _chain_model()
    for world in (-1, 2):
        with pytest.raises(InterpretationError, match="no world"):
            eval_formula(model, world, parse_formula("p"))
    with pytest.raises(InterpretationError, match="unassigned"):
        eval_formula(model, 0, parse_formula("p(x)"))


def test_enumerate_models_covers_valuations():
    seen = set()
    for model in enumerate_models({"p": 0}, 1, 0):
        seen.add(("p", 0, ()) in model.valuation)
    assert seen == {True, False}


def test_find_countermodel_positive():
    found = find_countermodel(parse_formula("<> ~false"), frame_spec())
    assert found is not None
    model, world = found
    assert not eval_formula(model, world, parse_formula("<> ~false"))
    assert not model.successors(world)


def test_find_countermodel_respects_frame():
    assert find_countermodel(parse_formula("<> ~false"),
                             frame_spec(serial=True)) is None
    assert find_countermodel(parse_formula("p -> <>p"),
                             frame_spec(paths=[(0, 0)])) is None
    found = find_countermodel(parse_formula("p -> <>p"), frame_spec())
    assert found is not None


def test_find_countermodel_barcan():
    # Barcan needs decreasing domains, its converse increasing ones.
    # The dot of a binder reaches as far right as it can, hence the
    # parentheses around each quantified half.
    barcan = parse_formula("(forall x. []p(x)) -> [](forall x. p(x))")
    converse = parse_formula("[](forall x. p(x)) -> (forall x. []p(x))")
    assert find_countermodel(barcan, frame_spec(dec=True)) is None
    assert find_countermodel(converse, frame_spec(inc=True)) is None
    for phi, frame in ((barcan, frame_spec()), (converse, frame_spec())):
        found = find_countermodel(phi, frame)
        assert found is not None
        model, world = found
        assert not eval_formula(model, world, phi)


def test_find_countermodel_requires_closed_formula():
    with pytest.raises(SemanticsError):
        find_countermodel(parse_formula("p(x)"), frame_spec())


@pytest.mark.parametrize("phi", [
    Exists("x", Or(Pred("p", ("x",)), Pred("p"))),
    # shared subformulas: the repeated q(x) is compiled once
    Exists("x", Or(Or(Pred("q", ("x",)), Pred("p")),
                   Or(Pred("q", ("x",)), Dia(Pred("q", ("x", "x"))))))])
def test_find_countermodel_reports_an_arity_clash_of_a_built_formula(phi):
    with pytest.raises(ArityError) as error:
        predicate_arities([phi])
    with pytest.raises(ArityError) as found:
        find_countermodel(phi, frame_spec())
    assert str(found.value) == str(error.value)
    with pytest.raises(ArityError, match=str(error.value)):
        oracles.find_countermodel(phi, frame_spec())
    # an open formula is refused as open first
    with pytest.raises(SemanticsError, match=r"free: \['x'\]"):
        find_countermodel(phi.body, frame_spec())


def test_eval_formula_compiles_each_formula_once():
    phi = parse_formula("(forall x. []p(x)) -> [](forall x. p(x))")
    model, world = find_countermodel(phi, frame_spec())
    semantics._compile.cache_clear()
    assert not eval_formula(model, world, phi)
    assert not eval_formula(model, world, phi)
    info = semantics._compile.cache_info()
    assert info.misses == 1 and info.hits == 1
    assert info.maxsize is not None
    assert isinstance(semantics._compile(phi), tuple)


def test_compile_matches_the_free_variable_reference():
    rng = random.Random(18)
    x, y = Pred("p", ("x", "y")), Pred("q", ("y",))
    formulas = [Exists("z", x), Exists("x", Exists("x", x)),
                Or(Exists("y", x), Exists("y", Or(x, y))), Or(y, Neg(y)),
                Exists("a", Or(Pred("r", ("a", "a", "b")),
                               Dia(Pred("r", ("b", "a", "a")))))]
    formulas += [oracles.random_formula(rng, rng.randint(0, 6),
                                        rng.choice([(), ("y",), ("x0", "z")]))
                 for _ in range(1500)]
    for phi in formulas:
        assert semantics._compile(phi) == oracles.compile_program(phi), phi


def test_envs_lists_one_assignment_list_per_arity():
    program = semantics._compile(parse_formula(
        "exists x. exists y. (p(x, y) | q(x) | q(y) | r | <>r)"))
    scopes = Counter(len(names) for _, names, _ in program)
    assert set(scopes) == {0, 1, 2} and len(program) > len(scopes)
    envs = semantics._envs(scopes, 3)
    assert set(envs) == {0, 1, 2}
    for k, assignments in envs.items():
        assert assignments == list(itertools.product(range(3), repeat=k))


@pytest.mark.parametrize("bounds", [(0, 2), (-1, 2), (3, -1)])
def test_find_countermodel_rejects_bad_bounds(bounds):
    with pytest.raises(SemanticsError, match="bounds"):
        find_countermodel(parse_formula("p"), frame_spec(), *bounds)


# -- the search against the brute-force reference ------------------------

def _reference(phi, frame, max_worlds, max_individuals):
    """The first (model, world) of enumerate_models falsifying phi."""
    signature = predicate_arities([phi])
    for model in enumerate_models(signature, max_worlds, max_individuals,
                                  frame):
        for w in range(model.worlds):
            if not oracles.eval_formula(model, w, phi):
                return model, w
    return None


FRAMES = [frame_spec(), frame_spec(serial=True), frame_spec(paths=[(0, 0)]),
          frame_spec(paths=[(1, 0)]), frame_spec(paths=[(0, 2)]),
          frame_spec(paths=[(1, 1)]), frame_spec(paths=[(0, 0), (1, 1)]),
          frame_spec(inc=True), frame_spec(dec=True), frame_spec(const=True),
          frame_spec(nonempty=True),
          frame_spec(serial=True, paths=[(0, 2), (1, 1)])]


def _random_formula(rng, depth, bound=()):
    if depth == 0 or rng.random() < 0.2:
        if bound and rng.random() < 0.5:
            return Pred("q", (rng.choice(bound),))
        return rng.choice([Pred("p"), Pred("r"), Bottom()])
    pick = rng.randrange(4)
    if pick == 0:
        return Neg(_random_formula(rng, depth - 1, bound))
    if pick == 1:
        return Or(_random_formula(rng, depth - 1, bound),
                  _random_formula(rng, depth - 1, bound))
    if pick == 2:
        return Dia(_random_formula(rng, depth - 1, bound))
    var = f"x{len(bound)}"
    return Exists(var, _random_formula(rng, depth - 1, bound + (var,)))


def _cases():
    rng = random.Random(20221003)
    for _ in range(40):
        phi = _random_formula(rng, 3)
        shape = rng.randrange(3)
        if shape == 1:  # valid: every structure is searched
            phi = implies(phi, phi)
        elif shape == 2:  # valid, modal
            phi = implies(Dia(phi), Dia(Or(phi, _random_formula(rng, 1))))
        yield phi, rng.choice(FRAMES), rng.choice([(1, 1), (2, 1), (2, 2)])
    barcan = parse_formula("(forall x. []p(x)) -> [](forall x. p(x))")
    yield barcan, frame_spec(dec=True), (2, 1)
    yield barcan, frame_spec(), (2, 1)


def test_find_countermodel_matches_the_reference():
    outcomes = []
    for phi, frame, bounds in _cases():
        found = find_countermodel(phi, frame, *bounds)
        assert found == _reference(phi, frame, *bounds), (phi, frame, bounds)
        outcomes.append(found is None)
    assert any(outcomes) and not all(outcomes)


def test_find_countermodel_past_the_first_block():
    # valuations come in blocks of 2**12.  With 13 atoms the only
    # countermodel of the negated conjunction makes every atom true:
    # the last valuation of the second block
    names = [f"p{i}" for i in range(1, 14)]
    conjunction = parse_formula("~(" + " & ".join(names) + ")")
    everything = frozenset((name, 0, ()) for name in names)
    assert find_countermodel(conjunction, frame_spec(), 1, 0) == (
        KripkeModel(1, frozenset(), (frozenset(),), everything), 0)
    # 14 atoms a..n, of which m and n are fixed per block: every block
    # but the first has countermodels, and the search must return the
    # first of them, which makes a..m true
    low = "abcdefghijkl"
    phi = parse_formula(f"~(n | (m & {' & '.join(low)}))")
    true = frozenset((name, 0, ()) for name in low + "m")
    assert find_countermodel(phi, frame_spec(), 1, 0) == (
        KripkeModel(1, frozenset(), (frozenset(),), true), 0)


# -- the run-parallel search against the per-structure search -------------

def _atom_formula(rng, names, depth):
    """A modal formula over the nullary predicates names, each of them
    occurring, so that every one counts as an atom of the search."""
    def draw(depth):
        if depth == 0 or rng.random() < 0.25:
            return Pred(rng.choice(names))
        pick = rng.randrange(3)
        if pick == 0:
            return Neg(draw(depth - 1))
        if pick == 1:
            return Or(draw(depth - 1), draw(depth - 1))
        return Dia(draw(depth - 1))
    phi = draw(depth)
    for name in names:
        phi = Or(phi, conj(Pred(name), Neg(Pred(name))))
    return phi


def _differential_cases():
    rng = random.Random(20261018)
    # random formulas over every frame class at three worlds
    for i in range(160):
        phi = _random_formula(rng, 3)
        if i % 3 == 1:
            phi = implies(phi, phi)
        yield phi, FRAMES[i % len(FRAMES)], ((3, 1), (3, 2))[i // 12 % 2]
    # 13 to 21 atoms: valuation blocks, with several structures per chunk
    thirteen = [f"p{i}" for i in range(13)]
    seven = thirteen[:7]
    for i in range(46):
        names, bounds = ((thirteen, (1, 0)), (seven, (2, 0)),
                         (seven, (3, 0)))[min(i // 20, 2)]
        phi = _atom_formula(rng, names, 4)
        if i % 3 == 1:
            phi = implies(phi, phi)
        yield phi, rng.choice(FRAMES), bounds
    # where the chunk's structures and blocks compete: the reflexive
    # point is falsified in every block, the irreflexive one in none;
    # only with p9, past the first block, or only with p0, whose lanes
    # come after those of the reflexive point falsified without it
    atoms = " | ".join(thirteen)
    for text in ["[]false", "~((p9 & []false) | (~p9 & <>~false))",
                 "~((p0 & []false) | (~p0 & <>~false))"]:
        yield (parse_formula(f"{text} | (false & ({atoms}))"), frame_spec(),
               (1, 0))
    # the limits.  21 atoms at (3, 0): 2**21 valuations per three-world
    # structure, so the valuation limit is passed at the eighth of them.
    # Three worlds told apart by a1 and a2 falsify the first formula,
    # and the fifth three-world structure does; the second is valid.
    rest = " | (a3 & a4 & a5 & a6 & a7 & ~a3)"
    yield (parse_formula("~(a1 & <>(~a1 & a2) & <>(~a1 & ~a2))" + rest),
           frame_spec(), (3, 0))
    yield parse_formula("a1 | ~a1 | a2" + rest), frame_spec(), (3, 0)
    # 22 atoms at (2, 0): the limit is passed at the fourth two-world
    # structure, the first with two successors at one world
    rest = " | (false & (" + " | ".join(f"a{i}" for i in range(1, 11)) + "))"
    yield parse_formula("~(<>a0 & <>~a0)" + rest), frame_spec(), (2, 0)
    # both limits passed at once, at the first structure of a run: the
    # valuation limit is named
    yield (parse_formula("forall x. forall y. (p(x, y) | ~p(x, y))"),
           frame_spec(), (1, 5))


def _outcome(search, phi, frame, bounds):
    try:
        return search(phi, frame, *bounds)
    except SemanticsError as error:
        return str(error)


@functools.lru_cache(maxsize=1)
def _per_structure_outcomes():
    return [(case, _outcome(oracles.find_countermodel, *case))
            for case in _differential_cases()]


@pytest.mark.parametrize("chunk_bits", [semantics._CHUNK_BITS, 1])
def test_find_countermodel_matches_the_per_structure_search(chunk_bits,
                                                            monkeypatch):
    # two lanes per chunk: a chunk holds a single structure, or two
    # when the goal has no atom
    monkeypatch.setattr(semantics, "_CHUNK_BITS", chunk_bits)
    searched = _searching(monkeypatch)
    built = _counting(monkeypatch, "_chunks")
    expected = _per_structure_outcomes()
    assert len(expected) >= 200
    for case, outcome in expected:
        assert _outcome(find_countermodel, *case) == outcome, case
    if chunk_bits == 1:
        # no run reuses the chunks of 2**14 lanes kept by earlier
        # searches: each builds its own at the patched width
        assert searched and {(run, bits) for run, bits, _ in searched} <= {
            (run, bits) for run, bits, step, _ in built if step == _step(bits)}
    outcomes = [outcome for _, outcome in expected]
    assert None in outcomes
    assert any(isinstance(outcome, str) for outcome in outcomes)
    model, _ = outcomes[-4]
    assert model.worlds == 3
    assert all("valuations" in outcome for outcome in outcomes[-3:])


# -- chunks shared by goals with the same block width ----------------------

def _profile_formula(rng, arities, depth):
    """A closed formula over predicates of the given arities, each of
    them occurring, their arguments drawn from the bound variables."""
    names = list(arities)

    def draw(depth, bound):
        if depth == 0 or rng.random() < 0.25:
            name = rng.choice(names)
            if arities[name] and not bound:
                return Exists("v", Pred(name, ("v",) * arities[name]))
            return Pred(name, tuple(rng.choice(bound)
                                    for _ in range(arities[name])))
        pick = rng.randrange(4)
        if pick == 0:
            return Neg(draw(depth - 1, bound))
        if pick == 1:
            return Or(draw(depth - 1, bound), draw(depth - 1, bound))
        if pick == 2:
            return Dia(draw(depth - 1, bound))
        var = f"x{len(bound)}"
        return Exists(var, draw(depth - 1, bound + (var,)))

    phi = draw(depth, ())
    for name in names:
        atom = Pred(name, ("u",) * arities[name])
        phi = Or(phi, Exists("u", conj(atom, Neg(atom))))
    return phi


# 0-ary, unary and binary predicates, with names in several sort orders
PROFILES = [{"p": 0}, {"q": 1}, {"r": 2}, {"a": 0, "b": 1}, {"a": 1, "b": 0},
            {"z": 0, "m": 1, "c": 2}, {"c": 0, "m": 2, "z": 1},
            {"b1": 1, "b0": 1}, {"m": 2, "a": 0, "n": 0}]


def _profile_cases():
    rng = random.Random(20261021)
    for i in range(60):
        arities = PROFILES[i % len(PROFILES)]
        phi = _profile_formula(rng, arities, 3)
        if i % 3 == 1:  # valid: every structure is searched
            phi = implies(phi, phi)
        binary = [name for name, arity in arities.items() if arity == 2]
        if i % 3 == 2 and binary:
            # falsified only where some binary atom holds one way only
            x, y = Pred(binary[0], ("x", "y")), Pred(binary[0], ("y", "x"))
            phi = Neg(Exists("x", Exists("y", conj(conj(x, Neg(y)), phi))))
        bounds = rng.choice([(2, 1), (2, 2)] if 2 in arities.values()
                            else [(2, 1), (2, 2), (3, 1)])
        yield phi, FRAMES[i % 4], bounds
    # where the order of a binary atom's arguments decides the answer
    for text in ["~exists x. exists y. (r(x, y) & ~r(y, x) & <>r(x, x))",
                 "~exists x. (q(x) & exists y. (r(x, y) & ~r(y, x)))",
                 "~exists x. exists y. (r(y, x) & ~q(y) & <>(q(x) & "
                 "~r(x, y)))"]:
        yield parse_formula(text), frame_spec(), (2, 2)


def test_find_countermodel_over_arity_profiles_matches_the_reference():
    # four frame classes, so that goals of other arities meet the chunks
    # kept for one run
    semantics._runs.cache_clear()
    outcomes = []
    for case in _profile_cases():
        expected = _outcome(oracles.find_countermodel, *case)
        assert _outcome(find_countermodel, *case) == expected, case
        assert _outcome(find_countermodel, *case) == expected, case
        outcomes.append(expected)
    assert None in outcomes
    found = [outcome for outcome in outcomes if isinstance(outcome, tuple)]
    assert len(found) > 10
    assert {len(args) for model, _ in found
            for _, _, args in model.valuation} == {0, 1, 2}


def _renamed(phi, names: dict):
    match phi:
        case Pred(name=name, args=args):
            return Pred(names.get(name, name), args)
        case Neg(body=body):
            return Neg(_renamed(body, names))
        case Dia(body=body):
            return Dia(_renamed(body, names))
        case Or(left=left, right=right):
            return Or(_renamed(left, names), _renamed(right, names))
        case Exists(bound=bound, body=body):
            return Exists(bound, _renamed(body, names))
    return phi


def _counting(monkeypatch, name):
    """The argument tuples of the calls of semantics.<name>."""
    calls = []
    original = getattr(semantics, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(semantics, name, counted)
    return calls


def _searching(monkeypatch):
    """The (run, bits, count) of the calls of semantics._Run.chunks."""
    calls = []
    original = semantics._Run.chunks

    def counted(run, bits, count):
        calls.append((run, bits, count))
        return original(run, bits, count)
    monkeypatch.setattr(semantics._Run, "chunks", counted)
    return calls


def test_a_renamed_goal_is_searched_with_the_kept_plan(monkeypatch):
    phi = parse_formula("~(q0 & exists x. (p1(x) & <>~p1(x) & <><>q0))")
    frame = frame_spec()
    semantics._runs.cache_clear()
    chunks = _counting(monkeypatch, "_chunks")
    first = find_countermodel(phi, frame, 3, 2)
    assert first == oracles.find_countermodel(phi, frame, 3, 2)
    model, world = first
    assert {name for name, _, _ in model.valuation} == {"p1", "q0"}
    made = len(chunks)
    assert made
    # the same arities in name order, under other names: no chunk is built
    for names in ({"p1": "a", "q0": "b"}, {"p1": "x_s1j7", "q0": "y_s1j7"}):
        renamed = _renamed(phi, names)
        assert find_countermodel(renamed, frame, 3, 2) == (KripkeModel(
            model.worlds, model.rel, model.domains,
            frozenset((names[name], w, args)
                      for name, w, args in model.valuation)), world)
        assert find_countermodel(renamed, frame, 3, 2) == \
            oracles.find_countermodel(renamed, frame, 3, 2)
        assert len(chunks) == made
    # the arities in the other order: the same block widths, so the same
    # chunks
    swapped = _renamed(phi, {"p1": "b", "q0": "a"})
    assert find_countermodel(swapped, frame, 3, 2) == \
        oracles.find_countermodel(swapped, frame, 3, 2)
    assert len(chunks) == made


def _step(bits):
    """The structures of a chunk of width bits, as _Run.chunks takes them."""
    return max(1, (1 << semantics._CHUNK_BITS) >> bits)


def _charge(run, bits):
    """The bytes a run's kept chunk list of width bits is charged: 256,
    and 64 for each int of its chunks plus the bytes of their lanes."""
    total = len(run.structures)
    ints = run.n * (run.n + run.p) + bits
    return 256 + ints * (64 * -(-total // _step(bits)) + (total << bits) // 8)


def test_kept_chunks_share_one_room_and_are_reused_by_width(monkeypatch):
    rng = random.Random(20261020)
    searched = _searching(monkeypatch)
    built = _counting(monkeypatch, "_chunks")
    semantics._runs.cache_clear()
    shared = fresh = spent = 0
    for frame in FRAMES[::4]:
        for bounds in ((2, 2), (3, 2)):
            runs = semantics._runs(*bounds, frame)
            owners = {}  # the arities of the goal that kept each list
            for arities in PROFILES:
                phi = _profile_formula(rng, arities, 3)
                goal = implies(phi, phi)  # valid: every run is searched
                profile = tuple(arities[name] for name in sorted(arities))
                room = runs[0]._room[0]  # left before each run is searched
                calls, made = len(searched), len(built)
                assert _outcome(find_countermodel, goal, frame, bounds) == \
                    _outcome(oracles.find_countermodel, goal, frame, bounds)
                # the room is shared by the runs and charged what they keep
                kept = {(run, bits) for run in runs for bits, _ in run._kept}
                assert all(run._room is runs[0]._room for run in runs)
                assert sum(_charge(*key) for key in kept) == \
                    LANE_BYTES - runs[0]._room[0] <= LANE_BYTES
                new = {(run, bits) for run, bits, _, _ in built[made:]}
                whole = [(run, bits) for run, bits, count in searched[calls:]
                         if count == len(run.structures)]
                for key in whole:
                    if key in owners:
                        # kept by an earlier goal: nothing is built
                        assert key not in new
                        shared += owners[key] != profile
                    else:
                        # not kept before: its chunks are built, and
                        # kept while the room lasts
                        assert key in new
                        if key in kept:
                            # another width than the run kept before
                            fresh += any(run is key[0] for run, _ in owners)
                            owners[key] = profile
                            room -= _charge(*key)
                        else:
                            spent += _charge(*key) <= LANE_BYTES
                            assert _charge(*key) > room
    # goals of other arities used the chunks kept for one width, goals
    # of another width built their own, and some found the room spent
    assert shared and fresh and spent
    # a run that no structure of the frame survives keeps nothing and is
    # charged nothing: on nonempty domains, the runs over no individuals
    frame = frame_spec(nonempty=True)
    runs = semantics._runs(3, 2, frame)
    goal = implies(Pred("p"), Pred("p"))
    assert find_countermodel(goal, frame, 3, 2) is None
    empty = [run for run in runs if not run.structures]
    assert [(run.n, run.p) for run in empty] == [(1, 0), (2, 0), (3, 0)]
    assert not any(run._kept for run in empty)
    assert sum(_charge(run, bits) for run in runs for bits, _ in run._kept) \
        == LANE_BYTES - runs[0]._room[0]


def test_the_limits_stop_at_the_same_structure_with_a_kept_plan():
    # the limit cases of the differential sweep, searched twice, then
    # under other names with the same arities
    for phi, frame, bounds in list(_differential_cases())[-4:]:
        renamed = _renamed(phi, {f"a{i}": f"z{i}" for i in range(22)})
        for goal in (phi, phi, renamed):
            assert _outcome(find_countermodel, goal, frame, bounds) == \
                _outcome(oracles.find_countermodel, goal, frame, bounds)
    six = parse_formula(SIX_VARIABLES)
    for _ in range(2):
        with pytest.raises(SemanticsError, match="assignments"):
            find_countermodel(six, frame_spec(), 1, 6)


def test_eval_formula_ignores_atoms_of_other_arities():
    # p holds as a unary predicate, q as a binary one, at both worlds
    model = KripkeModel(2, frozenset({(0, 1)}),
                        (frozenset({0}), frozenset({0, 1})),
                        frozenset({("p", 0, (0,)), ("p", 1, (1,)),
                                   ("q", 1, (1, 0)), ("r", 0, ())}))
    for text in ["p", "<>p", "exists x. p(x)", "<>exists x. p(x)",
                 "r & ~p", "<>exists x. exists y. q(x, y)",
                 "exists x. (p(x) | <>q(x, x))", "q"]:
        phi = parse_formula(text)
        for w in range(2):
            assert eval_formula(model, w, phi) == \
                oracles.eval_formula(model, w, phi), (text, w)


# -- runs checked against the frame when first searched --------------------

def test_runs_are_checked_against_the_frame_when_first_searched(monkeypatch):
    checks = _counting(monkeypatch, "check_frame")
    frame = frame_spec()
    _all_structures(1, 1000)  # the table is built once per process
    semantics._runs.cache_clear()
    # p is false at the first structure: only the first run is checked
    found = find_countermodel(parse_formula("p"), frame, 1, 1000)
    assert found == (KripkeModel(1, frozenset(), (frozenset(),),
                                 frozenset()), 0)
    runs = semantics._runs(1, 1000, frame)
    assert len(runs) == 1001 and len(checks) == len(runs[0].structures) == 2
    # a search that reaches further checks the runs it reaches
    assert find_countermodel(parse_formula("~exists x. p(x)"), frame,
                             1, 1000)[0].domains == (frozenset({0}),)
    assert len(checks) == 4
    # and enumeration still yields every run in order
    serial = frame_spec(serial=True)
    find_countermodel(parse_formula("<>~false -> p"), serial, 3, 2)
    lazy = list(enumerate_structures(3, 2, serial))
    assert lazy == [s for s in _all_structures(3, 2)
                    if check_frame(KripkeModel(*s, frozenset()), serial)]
    assert list(enumerate_structures(3, 2, serial)) == lazy
