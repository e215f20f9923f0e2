"""Propagation graphs and string-constrained reachability.

A sequent induces a graph whose vertices are its labels, each carrying
the set of variables known to exist there, and whose edges record the
relational atoms: wRu contributes a forward edge (w, d, u) and a
backward edge (u, b, w).  A path spells out a string of d's and b's,
and a rewriting system S picks out the paths whose string lies in the
language of a start letter.  Reachability under that constraint is what
licenses the propagation and availability side conditions of the
refined calculi.  A path already found is checked without a graph,
on the sequent's relational atoms by path_in: graphs serve searches.
A sequent keeps its graph as a nested sequent keeps its labeled view:
graph_of builds it on first use and stores it on the sequent, so it
lives exactly as long as the sequent.  build_graph keeps a
process-wide cache of graphs, and remains only for API callers.

Reachability is decided by grammar.saturate, the CFL-reachability
engine that also decides grammar membership: it reads S as a binarized
context-free grammar and derives every triple (nonterminal, source,
target) of the graph.  Each triple keeps the one derivation that
produced it, so a concrete witness path is read back from the table
without any further search, and each path read back is kept with the
table.  A table depends only on the system, the labels and the edges,
so graphs with the same skeleton share one table from a bounded cache;
graphs are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import grammar
from .grammar import DIA, BDIA, LETTER_SYMBOL, ThueSystem, saturate
from .sequents import LabeledSequent


class PropagationError(Exception):
    pass


@dataclass(frozen=True)
class PropPath:
    """A walk through a propagation graph: n labels joined by n-1
    letters.  The empty path at w is PropPath((w,), ())."""
    labels: tuple[str, ...]
    chars: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise PropagationError("a path visits at least one label")
        if len(self.chars) != len(self.labels) - 1:
            raise PropagationError(
                f"{len(self.labels)} labels need {len(self.labels) - 1} letters, "
                f"got {len(self.chars)}")
        for c in self.chars:
            grammar.check_string(c)

    @property
    def source(self) -> str:
        return self.labels[0]

    @property
    def target(self) -> str:
        return self.labels[-1]

    def string(self) -> str:
        return "".join(self.chars)

    def steps(self):
        for i, c in enumerate(self.chars):
            yield (self.labels[i], c, self.labels[i + 1])


def empty_path(label: str) -> PropPath:
    return PropPath((label,), ())


def edge_path(source: str, char: str, target: str) -> PropPath:
    return PropPath((source, target), (char,))


def join_paths(first: PropPath, second: PropPath) -> PropPath:
    if first.target != second.source:
        raise PropagationError(
            f"paths do not meet: {first.target} vs {second.source}")
    return PropPath(first.labels + second.labels[1:], first.chars + second.chars)


def path_in(seq: LabeledSequent, path: PropPath) -> bool:
    """Is path a walk of graph_of(seq), read off seq: each d step along
    a relational atom, each b step against one, an empty path at a label?"""
    if not path.chars:
        return path.source in seq.labels()
    rel = seq.rel
    return all((w, u) in rel if c == DIA else c == BDIA and (u, w) in rel
               for w, c, u in path.steps())


class PropagationGraph:
    """Vertices with their variable sets and directed labeled edges."""

    def __init__(self, vertices: dict[str, frozenset[str]], edges):
        self.vertices = dict(vertices)
        self.edges = frozenset(edges)
        for w, c, u in self.edges:
            if w not in self.vertices or u not in self.vertices:
                raise PropagationError(f"edge ({w},{c},{u}) leaves the vertex set")
            grammar.check_string(c)

    def closure(self, system: ThueSystem) -> "_Closure":
        return _closure(system, frozenset(self.vertices), self.edges)


_NO_VARIABLES: frozenset[str] = frozenset()


def graph_of(seq: LabeledSequent) -> PropagationGraph:
    """The graph of seq, built on first use and kept on seq, as
    to_labeled keeps a nested sequent's view."""
    graph = getattr(seq, "_graph", None)
    if graph is None:
        graph = _graph(seq)
        object.__setattr__(seq, "_graph", graph)
    return graph


def _graph(seq: LabeledSequent) -> PropagationGraph:
    """Graph of a labeled sequent: one vertex per label occurring
    anywhere in it, so reachability questions make sense even at labels
    that carry only formulas."""
    if not isinstance(seq, LabeledSequent):
        raise TypeError(f"cannot build a propagation graph from {seq!r}")
    vertices = {}
    for label in seq.labels():
        # most labels know no variable: they share one empty set
        vertices[label] = frozenset(x for x, w in seq.dom if w == label) \
            or _NO_VARIABLES
    edges = set()
    for w, u in seq.rel:
        edges.add((w, DIA, u))
        edges.add((u, BDIA, w))
    return PropagationGraph(vertices, edges)


# graph_of with a process-wide cache, for API callers that keep no sequent
build_graph = lru_cache(maxsize=None)(_graph)


@lru_cache(maxsize=1024)
def _closure(system: ThueSystem, labels: frozenset[str],
             edges: frozenset) -> "_Closure":
    return _Closure(system, labels, edges)


class _Closure:
    """All triples (nonterminal, source, target) for one graph skeleton
    and one rewriting system, with one remembered derivation per
    triple."""

    def __init__(self, system: ThueSystem, labels: frozenset[str], edges):
        self.back = saturate(system, labels, edges)
        self.paths: dict[tuple, PropPath] = {}  # the triples expanded so far
        self.by_source: dict[tuple, set[str]] = {}
        for nt, u, v in self.back:
            self.by_source.setdefault((nt, u), set()).add(v)

    def targets(self, char: str, source: str) -> frozenset[str]:
        nt = LETTER_SYMBOL[char]
        return frozenset(self.by_source.get((nt, source), ()))

    def witness(self, char: str, source: str, target: str) -> PropPath | None:
        triple = (LETTER_SYMBOL[char], source, target)
        if triple not in self.back:
            return None
        return self._expand(triple)

    def _expand(self, triple) -> PropPath:
        path = self.paths.get(triple)
        if path is None:
            reason = self.back[triple]
            kind = reason[0]
            if kind == "empty":
                path = empty_path(triple[1])
            elif kind == "edge":
                path = edge_path(*reason[1])
            elif kind == "unit":
                path = self._expand(reason[1])
            else:
                path = join_paths(self._expand(reason[1]),
                                  self._expand(reason[2]))
            self.paths[triple] = path
        return path


def reachable(graph: PropagationGraph, system: ThueSystem, char: str,
              source: str) -> frozenset[str]:
    """Labels u such that some path from source to u spells a string in
    the language of char under system; source itself is included
    exactly when the empty string is in that language."""
    if source not in graph.vertices:
        raise PropagationError(f"unknown label {source}")
    return graph.closure(system).targets(char, source)


def witness_path(graph: PropagationGraph, system: ThueSystem, char: str,
                 source: str, target: str) -> PropPath | None:
    """Some path witnessing reachability, or None.  The witness is
    valid but not necessarily shortest."""
    if source not in graph.vertices:
        raise PropagationError(f"unknown label {source}")
    if target not in graph.vertices:
        return None
    return graph.closure(system).witness(char, source, target)
