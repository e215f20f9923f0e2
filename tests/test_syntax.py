"""Formula construction, substitution and the concrete syntax."""

import copy
import gc
import pickle
import random

import pytest

from fomodal import semantics, syntax
from fomodal.syntax import (ArityError, Bottom, Dia, Exists, Neg, Or, ParseError,
                            Pred, _Parser, all_vars, alpha_eq, box, conj,
                            forall, frame_spec, free_vars, fresh_variable,
                            implies, parse_formula, predicate_arities,
                            rename_apart, render_formula, substitute)

import oracles
from oracles import random_formula


def test_connective_shapes():
    phi = Or(Neg(Pred("p")), Dia(Pred("q", ("x",))))
    assert phi.left == Neg(Pred("p"))
    assert phi.right.body.args == ("x",)


def _neg_chain(depth: int, atom: str):
    phi = Pred(atom, ("x",))
    for _ in range(depth):
        phi = Neg(phi)
    return phi


def test_deep_formulas_hash_and_compare_without_recursion():
    a, b, c = _neg_chain(5000, "p"), _neg_chain(5000, "p"), _neg_chain(5000, "q")
    assert a is b
    assert hash(a) == hash(b) and a == b and not a != b
    assert a != c and not a == c
    assert {a: 1}[b] == 1


def test_formula_hashes_are_the_hashes_of_their_fields():
    p = Pred("p", ("x",))
    phi = Or(Exists("x", Dia(p)), Neg(Bottom()))
    assert hash(p) == hash(("p", ("x",))) and hash(Bottom()) == hash(())
    assert hash(phi) == hash((phi.left, phi.right))
    assert hash(phi.left) == hash(("x", Dia(p)))
    assert Exists("x", p) != Exists("y", p) and Neg(p) != Dia(p)


def test_equal_formulas_are_one_object():
    text = "forall x. (p(x) -> <>q(x, y)) & ~false"
    assert parse_formula(text) is parse_formula(text)
    assert Pred("p") is Pred("p", ()) is parse_formula("p")
    assert Exists("x", Pred("p", ("x",))) is not Exists("y", Pred("p", ("x",)))


def test_formulas_are_immutable_and_copy_to_themselves():
    phi = parse_formula("exists x. p(x) | <>~q")
    with pytest.raises(AttributeError):
        phi.bound = "y"
    with pytest.raises(AttributeError):
        del phi.body
    with pytest.raises(TypeError):
        Or(phi)
    assert phi.bound == "x" and free_vars(phi) == frozenset()
    assert copy.copy(phi) is phi and copy.deepcopy(phi) is phi
    assert pickle.loads(pickle.dumps(phi)) is phi
    assert repr(Pred("p", ("x",))) == "Pred(name='p', args=('x',))"


def test_dead_formulas_leave_the_table():
    def live():
        return sum(1 for key in syntax._table if key[1:2] == ("marker",))

    for i in range(500):
        phi = Neg(Or(Pred("marker", (f"x{i}",)), Dia(Bottom())))
        assert free_vars(phi) == {f"x{i}"} and all_vars(phi) == {f"x{i}"}
        render_formula(phi)
    assert live() > 0
    del phi
    free_vars.cache_clear()
    all_vars.cache_clear()
    semantics._compile.cache_clear()
    gc.collect()
    assert live() == 0


def test_box_and_forall_are_abbreviations():
    assert box(Pred("p")) == Neg(Dia(Neg(Pred("p"))))
    assert forall("x", Pred("p", ("x",))) == Neg(Exists("x", Neg(Pred("p", ("x",)))))
    assert conj(Pred("p"), Pred("q")) == Neg(Or(Neg(Pred("p")), Neg(Pred("q"))))
    assert implies(Pred("p"), Pred("q")) == Or(Neg(Pred("p")), Pred("q"))


def test_free_and_all_vars():
    phi = Exists("x", Or(Pred("p", ("x", "y")), Dia(Pred("q", ("z",)))))
    assert free_vars(phi) == frozenset({"y", "z"})
    assert all_vars(phi) == frozenset({"x", "y", "z"})
    assert free_vars(Bottom()) == frozenset()


def test_fresh_variable_avoids_and_primes():
    assert fresh_variable("x", {"y"}) == "x"
    assert fresh_variable("x", {"x"}) == "x'"
    assert fresh_variable("x", {"x", "x'"}) == "x''"


def test_substitute_plain():
    phi = Or(Pred("p", ("x",)), Pred("q", ("y",)))
    assert substitute(phi, "z", "x") == Or(Pred("p", ("z",)), Pred("q", ("y",)))


def test_substitute_skips_bound_occurrences():
    phi = Exists("x", Pred("p", ("x",)))
    assert substitute(phi, "z", "x") == phi


def test_substitute_capture_avoiding():
    # replacing y by x under a binder on x must rename the binder
    phi = Exists("x", Pred("p", ("x", "y")))
    out = substitute(phi, "x", "y")
    assert isinstance(out, Exists)
    assert out.bound != "x"
    assert out.body == Pred("p", (out.bound, "x"))


def test_alpha_eq():
    a = Exists("x", Pred("p", ("x",)))
    b = Exists("y", Pred("p", ("y",)))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, Exists("y", Pred("p", ("x",))))


def _deep_formula(rng, depth, seed):
    """A formula with a branch of depth connectives, each drawn at
    random, and random subformulas beside it; seed names its atoms, so
    that no part of it has been rendered before."""
    phi = Pred(f"a{seed}", ("x0",))
    for level in range(depth):
        side = random_formula(rng, 2, ("x0",))
        pick = rng.randrange(4)
        if pick == 0:
            phi = Neg(phi)
        elif pick == 1:
            phi = Dia(phi)
        elif pick == 2:
            phi = Or(phi, side) if rng.random() < 0.5 else Or(side, phi)
        else:
            phi = Exists(f"x{level % 3}", phi)
    return phi


def test_render_matches_the_recursive_reference():
    rng = random.Random(20261020)
    formulas = [random_formula(rng, rng.randint(0, 7), ("x", "y"))
                for _ in range(600)]
    formulas += [_deep_formula(rng, depth, seed) for seed, depth
                 in enumerate([200, 200, 200, 150, 60, 20, 1])]
    # a new formula over children rendered before, and one sharing a child
    formulas += [Or(formulas[-1], Neg(formulas[-2])),
                 Or(_deep_formula(rng, 30, 99), _deep_formula(rng, 30, 99))]
    for phi in formulas:
        expected = oracles.render(phi)
        assert render_formula(phi) == expected
        assert render_formula(phi) is render_formula(phi)
    assert max(map(syntax._depth, formulas)) >= 200


def test_parse_render_round_trip():
    texts = ["p", "~p", "p | q", "<>p", "[]p", "false",
             "exists x. p(x)", "forall x. (p(x) -> q(x))",
             "p & q", "<> ~false", "exists x. exists y. r(x, y)"]
    for text in texts:
        phi = parse_formula(text)
        again = parse_formula(render_formula(phi))
        assert alpha_eq(phi, again), text


def test_parse_precedence():
    # -> binds weaker than |, which binds weaker than the prefixes
    phi = parse_formula("p | q -> <>r")
    assert phi == implies(Or(Pred("p"), Pred("q")), Dia(Pred("r")))


def test_parse_rejects_arity_clash():
    with pytest.raises(ArityError):
        parse_formula("p(x) | p(x, y)")


def _raw_parse(text):
    """The parse before renaming and arity checks, and what the two
    walks over it give: rename_apart's formula and predicate_arities'
    signature, or the ArityError message."""
    raw = _Parser(text).formula()
    try:
        return raw, rename_apart(raw), predicate_arities([raw])
    except ArityError as error:
        return raw, None, str(error)


def test_parse_matches_the_walks_over_the_raw_parse():
    rng = random.Random(18)
    clashes = binder_free = 0
    for i in range(600):
        phi = random_formula(rng, rng.randint(0, 5),
                             rng.choice([(), ("y",), ("x0", "y")]))
        text = render_formula(phi)
        if i % 2:
            # one name for predicates of every arity, so that they clash
            for name in ("p1", "p2", "q1", "q2"):
                text = text.replace(name + "(", "p(")
        raw, renamed, arities = _raw_parse(text)
        parser = _Parser(text)
        if renamed is None:
            clashes += 1
            with pytest.raises(ArityError) as error:
                parser.checked_formula()
            assert str(error.value) == arities, text
            continue
        got = parser.checked_formula()
        assert got == renamed and parser.arities == arities, text
        assert render_formula(got) == render_formula(renamed)
        assert parse_formula(text) == renamed
        if "exists" not in text:
            binder_free += 1
            assert renamed is raw and rename_apart(got) is got
    print(clashes, binder_free)
    assert clashes > 20 and binder_free > 100


def test_parse_renames_only_formulas_with_binders(monkeypatch):
    calls = []

    def counted(phi):
        calls.append(phi)
        return rename_apart(phi)

    monkeypatch.setattr(syntax, "rename_apart", counted)
    for text in ["p", "[]p(x) -> <>(q & ~r(x, y))", "false | ~<>false"]:
        parse_formula(text)
    assert calls == []
    assert render_formula(parse_formula("forall x. p(x) | exists x. q(x)")) \
        == "~(exists x. ~(p(x) | (exists x'. q(x'))))"
    assert render_formula(parse_formula("(forall x. p(x)) | forall x. q(x)")) \
        == "~(exists x. ~p(x)) | ~(exists x'. ~q(x'))"
    assert len(calls) == 2


@pytest.mark.parametrize("text, message", [
    ("p(x) | p(x, y)", "predicate p used with arity 2 and 1"),
    # the first clash in text order, through the expanded connectives
    ("q(x) | p | q | p(x)", "predicate q used with arity 0 and 1"),
    ("p(x) & (q -> p)", "predicate p used with arity 0 and 1"),
    ("[]p(x, y) | forall z. <>p(z)", "predicate p used with arity 1 and 2"),
    ("exists x. (r(x) & exists x. r) | r(x, x)",
     "predicate r used with arity 0 and 1")])
def test_parse_reports_the_first_arity_clash_in_text_order(text, message):
    with pytest.raises(ArityError) as error:
        parse_formula(text)
    assert str(error.value) == message
    assert _raw_parse(text)[2] == message


def test_parse_reports_depth_and_syntax_before_arity():
    with pytest.raises(ParseError, match="more than 200"):
        parse_formula("p(x) | " + "<>" * 201 + "p")
    with pytest.raises(ParseError, match="expected a formula"):
        parse_formula("p(x) | p |")


def test_parse_rejects_garbage():
    for bad in ["", "p |", "(p", "exists x p(x)", "p(", "1p",
                # sequent punctuation is no part of a formula
                "p ; q", "p |- q", "[p", "p]", "p @w", "w: p"]:
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_parse_depth_limit():
    # depth counts the connectives on the longest branch of the
    # expanded tree; parentheses add none
    for text in ["<>" * 200 + "p", "~(" * 200 + "p" + ")" * 200,
                 " | ".join(["p"] * 201), "(" * 3000 + "p" + ")" * 3000]:
        parse_formula(text)
    for text in ["<>" * 201 + "p", "~(" * 201 + "p" + ")" * 201,
                 " | ".join(["p"] * 202), "[]" * 67 + "p",
                 "exists x. " * 3000 + "p(x)", "p -> " * 3000 + "p"]:
        with pytest.raises(ParseError, match="more than 200"):
            parse_formula(text)


def test_parse_binders_renamed_apart():
    phi = parse_formula("exists x. p(x) | exists x. q(x)")
    bound = []

    def walk(f):
        if isinstance(f, Exists):
            bound.append(f.bound)
            walk(f.body)
        elif isinstance(f, Or):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, (Neg, Dia)):
            walk(f.body)

    walk(phi)
    assert len(bound) == len(set(bound))


def test_rename_apart_keeps_what_it_does_not_rename():
    p = lambda *args: Pred("p", args)
    q = lambda *args: Pred("q", args)
    distinct = Neg(Dia(Or(Exists("x", Exists("y", p("x", "y"))),
                          Or(q("z"), Exists("u", Neg(q("u")))))))
    assert rename_apart(distinct) is distinct
    # a renamed binder rebuilds only the spine above it
    phi = Or(Exists("y", q("y")),
             Neg(Dia(Or(Exists("x", Exists("x", p("x"))), q("z")))))
    renamed = rename_apart(phi)
    assert render_formula(renamed) == \
        "(exists y. q(y)) | ~<>((exists x. exists x'. p(x')) | q(z))"
    assert renamed.left is phi.left
    assert renamed.right.body.body.right is phi.right.body.body.right
    for before, after in [
            (Or(Exists("x", p("x")), Exists("x", q("x"))),
             "(exists x. p(x)) | (exists x'. q(x'))"),
            (Or(p("x"), Exists("x", q("x"))), "p(x) | (exists x'. q(x'))"),
            (Exists("x", Or(Exists("x", p("x", "x1")), Exists("x1", q("x1")))),
             "exists x. (exists x'. p(x',x1)) | (exists x1'. q(x1'))")]:
        assert render_formula(rename_apart(before)) == after


def test_frame_spec_const_expands():
    frame = frame_spec(const=True)
    assert frame.inc and frame.dec and frame.const
    assert frame_spec(paths=[(0, 2)]).paths == frozenset({(0, 2)})
    with pytest.raises(ValueError):
        frame_spec(paths=[(-1, 0)])
