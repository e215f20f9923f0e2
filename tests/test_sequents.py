"""Labeled and nested sequents, their text forms and translations."""

import random
import sys
from dataclasses import dataclass

import pytest

from fomodal import sequents, syntax
from fomodal.calculi import AX, NEG_R, ProofTree, RuleParams
from fomodal.sequents import (DuplicateLabelError, LabeledSequent, NestedSequent,
                              NotATreeError, SequentError, check_unique_labels,
                              components, fresh_label, is_labeled_tree,
                              labeled_alpha_eq, nested_alpha_eq, parse_labeled,
                              parse_nested, render_labeled, render_nested,
                              shape_key, to_labeled, to_nested)
from fomodal.syntax import (ArityError, Dia, FormulaError, Or, ParseError,
                            Pred, parse_formula, render_formula)
from oracles import random_labeled_tree, random_nested


def test_fresh_label():
    assert fresh_label(set()) == "w0"
    assert fresh_label({"w0", "w1"}) == "w2"
    assert fresh_label({"w0"}, base="v") == "v0"
    # a suffix of digit characters that int() cannot read is no number
    assert fresh_label({"w\u00b2", "w1"}) == "w2"


def test_labeled_sequent_is_canonical():
    a = LabeledSequent(rel=(("w", "v"), ("w", "u")), dom=(),
                       left=(("w", Pred("p")),), right=())
    b = LabeledSequent(rel=(("w", "u"), ("w", "v")), dom=(),
                       left=(("w", Pred("p")),), right=())
    assert a == b
    assert a.labels() == frozenset({"w", "v", "u"})


def test_parse_labeled_round_trip():
    texts = ["wRv, x in D(w), w: <>p |- v: p",
             "|- w: p | q",
             "uRv, wRu, y in D(w), v: p(y) |- v: exists x. p(x)",
             "w: p, w: p |- "]
    for text in texts:
        seq = parse_labeled(text)
        again = parse_labeled(render_labeled(seq))
        assert seq == again, text


def test_parse_labeled_rejects_misplaced_atoms():
    with pytest.raises(Exception):
        parse_labeled("w: p |- wRv")
    with pytest.raises(Exception):
        parse_labeled("w: p |- x in D(w)")


def test_labeled_alpha_eq_is_alpha_on_bound_variables_only():
    a = parse_labeled("wRv, w: exists x. p(x) |- v: q")
    b = parse_labeled("wRv, w: exists y. p(y) |- v: q")
    c = parse_labeled("uRv, u: exists x. p(x) |- v: q")
    assert labeled_alpha_eq(a, b)
    # labels are rule parameters, so they stay significant
    assert not labeled_alpha_eq(a, c)


def test_is_labeled_tree():
    ok, root = is_labeled_tree(parse_labeled("wRv, wRu, uRt, w: p |- "))
    assert ok and root == "w"
    for bad in ["wRv, uRv, u: p |- ",          # two parents
                "wRv, vRw |- ",                # cycle
                "wRv, uRt |- "]:               # forest
        ok, _ = is_labeled_tree(parse_labeled(bad))
        assert not ok, bad
    ok, root = is_labeled_tree(parse_labeled("w: p |- w: q"))
    assert ok and root == "w"


def test_nested_walk_and_labels():
    seq = parse_nested("p ; x |- [q ;  |- [ ; y |- r]@t]@v, [ ;  |- s]@u")
    assert set(seq.labels()) == {"w0", "v", "t", "u"}
    assert ("y", "t") in to_labeled(seq).dom
    check_unique_labels(seq)
    clash = NestedSequent("a", (), (), (), (NestedSequent("a", (), (), (), ()),))
    with pytest.raises(DuplicateLabelError):
        check_unique_labels(clash)


def test_to_labeled_refuses_a_repeated_label():
    clash = NestedSequent("w0", children=(
        NestedSequent("v", children=(NestedSequent("u"),)),
        NestedSequent("u", right=(Pred("p"),))))
    for _ in range(2):
        with pytest.raises(DuplicateLabelError, match="^label u occurs twice$"):
            to_labeled(clash)
    assert "_view" not in clash.__dict__


def test_a_deep_chain_flattens_renders_and_reads_back():
    # 3000 components built through the API, far past the recursion limit
    phi = NestedSequent("w2999", right=(Pred("p"),))
    text = " ;  |- p"
    for i in range(2998, -1, -1):
        phi = NestedSequent(f"w{i}", children=(phi,))
        text = f" ;  |- [{text}]@w{i + 1}"
    assert phi.labels() == [f"w{i}" for i in range(3000)]
    view = to_labeled(phi)
    assert set(view.rel) == {(f"w{i}", f"w{i + 1}") for i in range(2999)}
    assert view.right == (("w2999", Pred("p")),) and not view.left
    assert str(phi) == render_nested(phi) == text
    assert to_nested(view) is phi
    # a copy of the view, which keeps no nested sequent, reads back
    back = to_nested(LabeledSequent(view.rel, view.dom, view.left, view.right))
    assert back is not phi and str(back) == text
    assert to_labeled(back) == view


def _chain(leaf, n=3000):
    """A chain of n components built through the API, leaf on the right
    of the last."""
    phi = NestedSequent(f"w{n - 1}", right=(leaf,))
    for i in range(n - 2, -1, -1):
        phi = NestedSequent(f"w{i}", children=(phi,))
    return phi


def test_deep_chains_compare_hash_and_print():
    a, b, c = _chain(Pred("p")), _chain(Pred("p")), _chain(Pred("q"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c and not a == c
    text = repr(a)
    assert text.startswith("NestedSequent(label='w0', left=(), vars=(), "
                           "right=(), children=(NestedSequent(label='w1', ")
    assert text.endswith("right=(Pred(name='p', args=()),), children=())"
                         + ",))" * 2999)
    assert repr(b) == text and repr(c) != text


@dataclass(frozen=True)
class _Nested:
    """NestedSequent's fields with the methods dataclass generates."""
    label: str
    left: tuple
    vars: tuple
    right: tuple
    children: tuple


@dataclass(frozen=True)
class _Proof:
    """ProofTree's fields with the methods dataclass generates."""
    conclusion: object
    rule: object
    params: object
    premises: tuple


def test_tree_methods_agree_with_the_dataclass_ones():
    rng = random.Random(20261022)
    formulas = (Pred("p"), Pred("q"))

    def nested(depth):
        kids = tuple(nested(depth - 1) for _ in range(rng.randint(0, 2 * (depth > 0))))
        return NestedSequent(rng.choice(("w0", "w1")),
                             rng.sample(formulas, rng.randint(0, 1)), (),
                             rng.sample(formulas, rng.randint(0, 1)), kids)

    def proof(depth):
        kids = tuple(proof(depth - 1) for _ in range(rng.randint(0, 2 * (depth > 0))))
        return ProofTree(nested(1), rng.choice((AX, NEG_R)),
                         RuleParams(label=rng.choice(("w0", None))), kids)

    def reference(tree):
        if isinstance(tree, NestedSequent):
            return _Nested(tree.label, tree.left, tree.vars, tree.right,
                           tuple(map(reference, tree.children)))
        return _Proof(reference(tree.conclusion), tree.rule, tree.params,
                      tuple(map(reference, tree.premises)))

    for build in (nested, proof):
        trees = [build(rng.randint(0, 2)) for _ in range(60)]
        # children in the other order: equal only when they are alike
        trees += [NestedSequent(t.label, t.left, t.vars, t.right, t.children[::-1])
                  if build is nested else
                  ProofTree(t.conclusion, t.rule, t.params, t.premises[::-1])
                  for t in trees[:20]]
        refs = list(map(reference, trees))
        equal = 0
        for a, ref_a in zip(trees, refs):
            for b, ref_b in zip(trees, refs):
                same = ref_a == ref_b
                assert (a == b) is same and (a != b) is not same
                if same:
                    assert hash(a) == hash(b)
                    equal += a is not b
            expected = repr(ref_a).replace("_Nested(", "NestedSequent(")
            assert repr(a) == expected.replace("_Proof(", "ProofTree(")
            assert a != "text"
        assert equal > 20


def test_render_nested_matches_the_recursive_reference():
    rng = random.Random(20261023)
    for _ in range(300):
        seq = random_nested(rng, depth=rng.randint(0, 4))
        if rng.random() < 0.3:
            seq = NestedSequent("v", seq.left, seq.vars, seq.right, seq.children)
        assert render_nested(seq) == _render(seq)


def _render(seq, top=True):
    """render_nested written as a recursion."""
    rights = [render_formula(f) for f in seq.right]
    rights += [f"[{_render(kid, False)}]@{kid.label}" for kid in seq.children]
    body = (f"{', '.join(map(render_formula, seq.left))} ; "
            f"{', '.join(seq.vars)} |- {', '.join(rights)}")
    return body if not top or seq.label == "w0" else f"{body} @{seq.label}"


def test_nested_alpha_eq_is_alpha_on_bound_variables_only():
    a = parse_nested("exists x. p(x) ;  |- [ ;  |- q]@v")
    b = parse_nested("exists y. p(y) ;  |- [ ;  |- q]@v")
    c = parse_nested("exists x. p(x) ;  |- [ ;  |- q]@z")
    assert nested_alpha_eq(a, b)
    assert not nested_alpha_eq(a, c)


def test_components_read_the_tree_in_preorder():
    seq = parse_labeled("w0Rw1, w0Rw2, w1Rw3, x in D(w2), w3: p |- w0: q")
    parts = components(seq)
    # preorder; label order would give w0, w1, w2, w3
    assert [part.label for part in parts] == ["w0", "w1", "w3", "w2"]
    assert [part.children for part in parts] == [("w1", "w2"), ("w3",), (), ()]
    assert parts[0].right == (parse_formula("q"),)
    assert parts[2].left == (parse_formula("p"),)
    assert parts[3].vars == ("x",)
    assert components(LabeledSequent(), root="v")[0].label == "v"
    with pytest.raises(NotATreeError):
        components(parse_labeled("wRv, uRv |- "))


def test_shape_key_forgets_label_names():
    def key(text):
        return shape_key(components(parse_labeled(text)))
    a = key("w0Rv, w0: p |- v: q")
    assert a == key("w0Rz, w0: p |- z: q")
    assert a == key("uRw0, u: p |- w0: q")
    assert a != key("w0Rv, w0: p |- v: r")
    # children are compared as a multiset, whatever their labels
    assert key("w0Rv, w0Rz, v: p |- z: q") == key("w0Rv, w0Rz, z: p |- v: q")


def test_to_labeled_shape():
    seq = parse_nested("p ; x |- q, [<>r ; y |- ]@v")
    lab = to_labeled(seq)
    assert lab == parse_labeled(
        "w0Rv, x in D(w0), y in D(v), w0: p, v: <>r |- w0: q")


def test_a_labeled_sequent_keeps_its_labels():
    seq = parse_labeled("wRv, y in D(u), w: p |- t: q")
    assert seq.labels() is seq.labels()
    assert seq.labels() == {"w", "v", "u", "t"}
    # a copy reads its own labels, not the ones kept on seq
    copy = seq.replace(("right", ("t", parse_formula("q"))), rel=(("v", "s"),))
    assert copy.labels() is not seq.labels()
    assert copy.labels() == {"w", "v", "u", "s"}
    assert seq.replace().labels() == seq.labels()
    assert seq.replace().labels() is not seq.labels()
    # labels kept on a sequent are not part of its value
    assert parse_labeled("wRv, y in D(u), w: p |- t: q") == seq
    assert "_labels" not in repr(seq)


def test_to_nested_requires_tree():
    with pytest.raises(NotATreeError):
        to_nested(parse_labeled("wRv, uRv |- "))


def test_to_nested_and_replace_sort_as_the_constructors_do():
    # several formulas and variables per label, listed out of order
    seq = parse_labeled("w0Rw10, w0Rw2, z in D(w0), x in D(w0), y in D(w2), "
                        "w0: q, w0: <>p, w2: r | p, w2: p, w10: q "
                        "|- w0: p & q, w0: false, w10: r, w10: <>r")
    f = parse_formula
    assert to_nested(seq) == NestedSequent(
        "w0", (f("q"), f("<>p")), ("z", "x"), (f("p & q"), f("false")),
        (NestedSequent("w2", (f("r | p"), f("p")), ("y",)),
         NestedSequent("w10", (f("q"),), (), (f("<>r"), f("r")))))
    left = (("w10", f("p")), ("w2", f("q | p")), ("w2", f("<>q")),
            ("w0", f("p")))
    dom = (("y", "w10"), ("x", "w10"), ("x", "w2"))
    # replace drops one item and inserts the others in slot order
    dropped = ("w2", f("r | p"))
    kept = tuple(item for item in seq.left if item != dropped)
    assert seq.replace(("left", dropped), left=left, dom=dom) == \
        LabeledSequent(seq.rel, seq.dom + dom, kept + left, seq.right)
    with pytest.raises(ValueError):
        seq.replace(("right", dropped))


def test_round_trip_nested_to_labeled():
    rng = random.Random(7)
    for _ in range(100):
        seq = random_nested(rng)
        again = to_nested(to_labeled(seq))
        assert again == seq


def test_round_trip_labeled_tree_to_nested():
    rng = random.Random(8)
    for _ in range(100):
        seq = random_labeled_tree(rng)
        again = to_labeled(to_nested(seq))
        assert labeled_alpha_eq(seq, again)


def test_render_parse_nested_round_trip():
    rng = random.Random(9)
    for _ in range(50):
        seq = random_nested(rng)
        again = parse_nested(render_nested(seq))
        assert nested_alpha_eq(seq, again)


def test_parse_nested_depth_limit():
    def brackets(n):
        return "p ; |- " + "[q ; |- " * n + "r" + "]" * n
    assert len(parse_nested(brackets(200)).labels()) == 201
    with pytest.raises(SequentError, match="nested more than 200 brackets"):
        parse_nested(brackets(201))


@pytest.mark.parametrize("text", ["v0Rv1,- v1: r |- v0: r", "|- ~v0: p",
                                  "v2@: q |- ", "wRv1 , w 1: p |- ",
                                  "0 in D(w) |- ", "falseRw |- ", "aRbRc |- "])
def test_parse_labeled_refuses_labels_that_are_no_identifiers(text):
    with pytest.raises((SequentError, FormulaError)):
        parse_labeled(text)


@pytest.mark.parametrize("read, text", [
    (parse_nested, "p(x) ; x |- p"), (parse_nested, "; |- p, [ ; |- p(x, y)]"),
    (parse_labeled, "w0: p(x) |- w0: p"),
    (parse_labeled, "w0Rw1, w1: q |- w0: q(y)")])
def test_sequent_readers_check_arities_across_the_sequent(read, text):
    with pytest.raises(ArityError, match="used with arity"):
        read(text)
    # each predicate with one arity throughout is read
    read(text.replace("(x)", "").replace("(x, y)", "").replace("(y)", ""))


@pytest.mark.parametrize("read, text, message", [
    (parse_labeled, "w0: p(x), w1: q |- w0: q(x, y), w1: p",
     "predicate q used with arity 2 and 0"),
    (parse_labeled, "w0Rw1, w1: p(x) | r |- w0: r(x) | p(x, x)",
     "predicate r used with arity 1 and 0"),
    (parse_nested, "p(x), q ; x |- [ ; |- q(x) ], p",
     "predicate q used with arity 1 and 0"),
    (parse_nested, "; |- r, [ p ; |- [ ; |- p(x, y) ]@v, r(x)]",
     "predicate p used with arity 2 and 0")])
def test_sequent_readers_report_the_first_arity_clash(read, text, message):
    # formulas are read left to right, sharing one table of arities
    with pytest.raises(ArityError) as error:
        read(text)
    assert str(error.value) == message


@pytest.mark.parametrize("text", ["; 0 |- ", "; x y |- ", "; |- [ ; |- ]@",
                                  "; |- [ ; |- ]@~v", "; |- p @5", "p |- q",
                                  "; |- p q", "; |- [ ; |- p", "; |- p]",
                                  "; |- [ ; |- p @v]"])
def test_parse_nested_refuses_malformed_text(text):
    with pytest.raises((SequentError, FormulaError)):
        parse_nested(text)


def test_sequent_text_is_read_by_tokens():
    assert parse_labeled("x in  D (v) |- ") == parse_labeled("x in D(v) |- ")
    # a label may end in primes on either side of R
    assert set(parse_labeled("w0'Rw1, w1Rw2'' |- ").rel) == {("w0'", "w1"),
                                                             ("w1", "w2''")}
    # empty items are skipped, as before
    assert parse_labeled(", w: p,, w: q |- ,") == parse_labeled("w: p, w: q |- ")
    assert parse_nested("p,, q ; , x |- , [ ; |- ]@v,") == parse_nested(
        "p, q ; x |- [ ; |- ]@v")


def test_parse_nested_reports_columns_of_the_whole_text():
    text = "p ; |- [q ; |- r & ]@v"
    with pytest.raises(ParseError) as err:
        parse_nested(text)
    assert err.value.position == text.index("]")
    text = "p ; |- [q |- r]@v"
    with pytest.raises(SequentError, match=f"at column {text.index('|- r') + 1}"):
        parse_nested(text)


def test_parse_nested_renames_binders_apart_in_each_formula():
    seq = parse_nested("(exists x0. q1(x0)) | (exists x0. r) ;  |- ")
    assert render_formula(seq.left[0]) == "(exists x0. q1(x0)) | (exists x0'. r)"


def _parser_lines(text: str) -> int:
    """Lines of the sequents and syntax modules executed while parsing
    text: the formulas of a nested sequent are read by syntax."""
    count = 0
    files = {sequents.__file__, syntax.__file__}

    def line(frame, event, arg):
        nonlocal count
        count += event == "line"
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        parse_nested(text)
    finally:
        sys.settrace(before)
    return count


def test_parse_nested_work_is_linear_in_the_text():
    # the text is read once, not rescanned at every level; rescanning
    # made the count grow with depth times length
    item = ", ".join(f"p{i}" for i in range(10))
    for depth in (5, 40, 150):
        text = (f"{item} ; |- " + f"[{item} ; x |- {item}, " * depth + "q"
                + "]" * depth)
        assert _parser_lines(text) <= 30 * len(text), depth
