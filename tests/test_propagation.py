"""Propagation graphs and language-constrained reachability."""

import random

import pytest

from fomodal.grammar import of_paths, s4, s5, union
from fomodal.propagation import (PropagationError, PropagationGraph, PropPath,
                                 build_graph, edge_path, empty_path, graph_of,
                                 join_paths, path_in, reachable, witness_path)
from fomodal.sequents import LabeledSequent, parse_labeled
from fomodal.syntax import parse_formula
from oracles import earley_member, enumerate_reachable, random_edges


def test_prop_path_basics():
    path = PropPath(("w", "u", "v"), ("d", "b"))
    assert path.source == "w"
    assert path.target == "v"
    assert path.string() == "db"
    assert tuple(path.steps()) == (("w", "d", "u"), ("u", "b", "v"))
    assert empty_path("w").string() == ""
    assert join_paths(edge_path("w", "d", "u"),
                      edge_path("u", "b", "v")) == path


def test_prop_path_validation():
    with pytest.raises(PropagationError):
        PropPath(("w", "u"), ())
    with pytest.raises(PropagationError):
        join_paths(edge_path("w", "d", "u"), edge_path("v", "b", "w"))


def test_build_graph_from_labeled():
    seq = parse_labeled("wRv, wRu, y in D(w), z in D(u), w: p |- v: q")
    graph = build_graph(seq)
    assert set(graph.vertices) == {"w", "v", "u"}
    assert graph.vertices["w"] == frozenset({"y"})
    assert graph.vertices["v"] == frozenset()
    assert graph.edges == {("w", "d", "v"), ("v", "b", "w"),
                           ("w", "d", "u"), ("u", "b", "w")}
    assert ("w", "d", "v") in graph.edges
    assert ("v", "d", "w") not in graph.edges


def test_validate_path():
    seq = parse_labeled("wRv, y in D(u) |- ")
    assert path_in(seq, PropPath(("w", "v", "w"), ("d", "b")))
    assert not path_in(seq, PropPath(("w", "v"), ("b",)))
    assert not path_in(seq, PropPath(("w", "v"), ("dd",)))
    assert not path_in(seq, PropPath(("t",), ()))
    assert path_in(seq, PropPath(("u",), ()))


def test_a_sequent_keeps_its_graph(graph_builds):
    text = "wRv, vRu, y in D(u), w: p |- u: q"
    seq = parse_labeled(text)
    info = build_graph.cache_info()
    assert graph_of(seq) is graph_of(seq)
    assert graph_builds == [seq]
    # an equal sequent builds its own graph, with the same vertices and edges
    twin = parse_labeled(text)
    assert twin == seq and twin is not seq
    assert graph_of(twin) is not graph_of(seq)
    assert len(graph_builds) == 2
    assert graph_of(twin).vertices == graph_of(seq).vertices
    assert graph_of(twin).edges == graph_of(seq).edges
    # build_graph caches the same graph process-wide; graph_of leaves it
    assert build_graph.cache_info() == info
    assert build_graph(seq).edges == graph_of(seq).edges
    with pytest.raises(TypeError):
        graph_of("wRv |- ")


def test_path_in_agrees_with_the_graph():
    # a path of the sequent is a walk of its graph, and only such
    rng = random.Random(14)
    names = ["w", "u", "v", "t"]
    chars = ["d", "b", "d", "b", "dd", ""]
    agreed = 0
    for _ in range(2000):
        seq = LabeledSequent(
            rel=tuple((rng.choice(names), rng.choice(names))
                      for _ in range(rng.randint(0, 4))),
            dom=tuple(("y", rng.choice(names)) for _ in range(rng.randint(0, 1))),
            right=tuple((rng.choice(names), parse_formula("p"))
                        for _ in range(rng.randint(0, 1))))
        graph = build_graph.__wrapped__(seq)
        for _ in range(10):
            labels = [rng.choice(names)]
            steps = []
            for _ in range(rng.randint(0, 3)):
                here = [e for e in graph.edges if e[0] == labels[-1]]
                if here and rng.random() < 0.7:
                    _, c, u = rng.choice(here)
                else:
                    c, u = rng.choice(chars), rng.choice(names)
                steps.append(c)
                labels.append(u)
            path = PropPath(tuple(labels), tuple(steps))
            want = (path.source in graph.vertices
                    and all(step in graph.edges for step in path.steps()))
            assert path_in(seq, path) == want, (seq, path)
            agreed += want
    assert 2000 < agreed < 18000


def test_reachable_under_empty_word():
    # with reflexivity the empty word counts, so a vertex reaches itself
    graph = build_graph(parse_labeled("wRv |- "))
    out = reachable(graph, of_paths([(0, 0)]), "d", "v")
    assert "v" in out


def test_reachable_transitive():
    seq = parse_labeled("wRu, uRv |- ")
    graph = build_graph(seq)
    assert reachable(graph, of_paths([(0, 2)]), "d", "w") == {"u", "v"}
    assert reachable(graph, s4(), "d", "w") == {"w", "u", "v"}
    # without a closure the d-language is just the single letter
    from fomodal.grammar import empty_system
    assert reachable(graph, empty_system(), "d", "w") == {"u"}


def test_witness_path_is_valid_and_in_language():
    seq = parse_labeled("wRu, uRv |- ")
    graph = build_graph(seq)
    sys_ = of_paths([(0, 2)])
    path = witness_path(graph, sys_, "d", "w", "v")
    assert path is not None
    assert path.source == "w" and path.target == "v"
    assert path_in(seq, path)
    assert earley_member(sys_, "d", path.string())
    assert witness_path(graph, sys_, "b", "w", "v") is None


def test_graphs_with_one_skeleton_share_one_closure():
    # formulas and variables differ, labels and relational atoms agree
    a = build_graph(parse_labeled("wRu, uRv, y in D(u), w: p |- v: q"))
    b = build_graph(parse_labeled("uRv, wRu, v: r |- w: p, u: q"))
    other = build_graph(parse_labeled("wRu, uRv, wRt |- "))
    sys_ = of_paths([(0, 2)])
    assert a is not b
    assert a.closure(sys_) is b.closure(sys_)
    assert a.closure(sys_) is not other.closure(sys_)
    assert witness_path(a, sys_, "d", "w", "v") == witness_path(b, sys_, "d", "w", "v")
    assert reachable(b, sys_, "d", "w") == {"u", "v"}
    # the variable sets stay per graph
    assert a.vertices["u"] == {"y"} and b.vertices["u"] == frozenset()


def test_reachable_matches_walk_enumeration():
    rng = random.Random(20)
    systems = [s4(), s5(), of_paths([(1, 1)]), of_paths([(0, 2)]),
               union(s4(), of_paths([(0, 2)]))]
    for trial in range(25):
        vertices, edges = random_edges(rng)
        graph = PropagationGraph({v: frozenset() for v in vertices}, edges)
        sys_ = systems[trial % len(systems)]
        for char in ("d", "b"):
            source = rng.choice(vertices)
            got = reachable(graph, sys_, char, source)
            want = enumerate_reachable(edges, vertices, sys_, char, source, 7)
            more = enumerate_reachable(edges, vertices, sys_, char, source, 8)
            assert want == more, "walk enumeration not saturated"
            assert got == want, (trial, char, source)
