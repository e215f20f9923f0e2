"""Rewriting systems and language membership."""

import os
import random
import subprocess
import sys

import pytest

import fomodal
from fomodal import grammar
from fomodal.calculi import availability_system, propagation_system
from fomodal.grammar import (BDIA, DIA, GrammarError, Production, ThueSystem,
                             converse_string, derives, empty_system, of_paths,
                             parse_production, s4, s5, system, to_cfg, union)
from fomodal.syntax import frame_spec
from oracles import all_strings, earley_member, one_step, saturated_members


def test_converse_reverses_and_flips():
    assert converse_string("") == ""
    assert converse_string("d") == "b"
    assert converse_string("dbb") == "ddb"
    assert converse_string(converse_string("dbdb")) == "dbdb"


def test_production_validation():
    with pytest.raises(GrammarError):
        Production("x", "d")
    with pytest.raises(GrammarError):
        Production("d", "dx")
    assert str(Production("d", "")) == "d -> eps"


def test_parse_production():
    assert parse_production("d -> bd") == Production("d", "bd")
    assert parse_production("b->eps") == Production("b", "")
    with pytest.raises(GrammarError):
        parse_production("dd -> b")


def test_canonical_systems():
    assert {str(p) for p in s4().productions} == {
        "d -> eps", "b -> eps", "d -> dd", "b -> bb"}
    assert {str(p) for p in s5().productions} == {
        "d -> eps", "b -> eps", "d -> bd", "b -> bd"}
    assert {str(p) for p in of_paths([(1, 1)]).productions} == {
        "d -> bd", "b -> bd"}
    assert {str(p) for p in of_paths([(0, 2)]).productions} == {
        "d -> dd", "b -> bb"}


def test_union_joins_productions():
    joined = union(s4(), of_paths([(0, 2)]))
    assert joined.productions == s4().productions | of_paths([(0, 2)]).productions


def _to_cfg_lines(sys_: ThueSystem) -> int:
    """Lines of the grammar module executed by to_cfg(sys_), uncached."""
    count = 0

    def line(frame, event, arg):
        nonlocal count
        count += event == "line"
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == grammar.__file__ else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        to_cfg.__wrapped__(sys_)
    finally:
        sys.settrace(before)
    return count


def test_to_cfg_work_is_linear_in_the_right_sides():
    # marking a long nullable right side one helper per pass would make
    # the count grow with the square of its length
    for n in (50, 200):
        assert _to_cfg_lines(union(s4(), of_paths([(n, n)]))) <= 60 * n, n


def test_one_step():
    assert one_step("d", s4()) == {"", "dd"}
    assert one_step("bd", of_paths([(1, 1)])) == {"bdd", "bbd"}
    assert one_step("", s4()) == set()


def test_directed_language_is_iterated_forward_letter():
    for target in all_strings(6):
        expected = set(target) <= {DIA}
        assert derives(s4(), DIA, target) == expected, target


def test_undirected_language_is_everything():
    for char in (DIA, BDIA):
        for target in all_strings(6):
            assert derives(s5(), char, target), (char, target)


def test_empty_system_language_is_the_letter_itself():
    for char in (DIA, BDIA):
        for target in all_strings(4):
            assert derives(empty_system(), char, target) == (target == char)


def test_derives_matches_closure_oracle():
    systems = [s4(), s5(), of_paths([(1, 1)]), of_paths([(0, 2)]),
               union(s4(), of_paths([(0, 2)]))]
    for sys_ in systems:
        for char in (DIA, BDIA):
            truth = saturated_members(sys_, char, 5)
            for target in all_strings(5):
                assert derives(sys_, char, target) == (target in truth), \
                    (str(sys_), char, target)


def test_derives_rejects_bad_input():
    with pytest.raises(GrammarError):
        derives(s4(), "x", "d")
    with pytest.raises(GrammarError):
        derives(s4(), "d", "dx")


def test_reflexive_path_system_erases():
    # the (0, 0) closure contributes erasing productions
    sys_ = of_paths([(0, 0)])
    assert derives(sys_, DIA, "")
    assert not derives(sys_, DIA, "b")


# the 13 frame classes of the benchmark's random sweep, plus KD45
FRAME_CLASSES = [
    frame_spec(), frame_spec(serial=True), frame_spec(paths=[(0, 0)]),
    frame_spec(paths=[(1, 0)]), frame_spec(paths=[(0, 2)]),
    frame_spec(paths=[(1, 1)]), frame_spec(serial=True, paths=[(0, 2)]),
    frame_spec(paths=[(0, 0), (0, 2)]), frame_spec(paths=[(0, 0), (1, 1)]),
    frame_spec(inc=True), frame_spec(dec=True), frame_spec(const=True),
    frame_spec(nonempty=True),
    frame_spec(serial=True, paths=[(0, 2), (1, 1)])]


def _frame_systems():
    systems = [propagation_system(frame) for frame in FRAME_CLASSES]
    systems += [avail[0] for avail in map(availability_system, FRAME_CLASSES)
                if avail is not None]
    return list(dict.fromkeys(systems))


def test_derives_matches_earley_recognizer():
    # the frame classes have right sides of length two at most; the last
    # three systems also exercise the binarization of longer ones
    systems = _frame_systems() + [of_paths([(1, 2)]),
                                  of_paths([(0, 0), (2, 1)]),
                                  union(s4(), of_paths([(0, 3)]))]
    for sys_ in systems:
        for char in (DIA, BDIA):
            for target in all_strings(8):
                assert derives(sys_, char, target) == \
                    earley_member(sys_, char, target), (str(sys_), char, target)
    rng = random.Random(3)
    for _ in range(200):
        sys_, char = rng.choice(systems), rng.choice((DIA, BDIA))
        target = "".join(rng.choice((DIA, BDIA))
                         for _ in range(rng.randint(9, 32)))
        assert derives(sys_, char, target) == \
            earley_member(sys_, char, target), (str(sys_), char, target)


_SATURATE = """
from fomodal.grammar import of_paths, s5, saturate
edges = []
for w, u in [("w0", "w1"), ("w0", "w2"), ("w1", "w3"), ("w2", "w4")]:
    edges += [(w, "d", u), (u, "b", w)]
for system in (s5(), of_paths([(1, 1)])):
    print(sorted(saturate(system, ["w0", "w1", "w2", "w3", "w4"],
                          edges).items()))
"""


def _saturate_tables(hash_seed: str) -> str:
    src = os.path.dirname(os.path.dirname(fomodal.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _SATURATE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout


def test_saturate_records_the_same_derivations_under_any_hash_seed():
    # which derivation a triple keeps, and so which witness path is
    # read back, must not depend on the string hash seed
    first = _saturate_tables("0")
    assert first.count("\n") == 2
    assert first == _saturate_tables("1")
