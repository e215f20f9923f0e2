"""Span tracing around the public functions of each fomodal module.

The library's modules import each other's functions by name (calculi
does `from .grammar import derives`, prover does `from .calculi import
check`), so a wrapper replaces the function under every name that
refers to it in every loaded fomodal module, then puts the originals
back.  `Evaluator.formula` is wrapped on its class.  Generator
functions are wrapped so that each `next()` is one span.

Each span records its name, start, end, parent span and job.  Self
time, a span's duration minus the time its child spans cover, is summed
as spans close.  Spans stay in memory and `save` writes them out.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute, kind); kind "gen" marks a generator
# function, "method" an attribute of semantics.Evaluator
TARGETS = (
    ("syntax.parse_formula", "syntax", "parse_formula", "fn"),
    ("sequents.to_labeled", "sequents", "to_labeled", "fn"),
    ("sequents.to_nested", "sequents", "to_nested", "fn"),
    ("grammar.derives", "grammar", "derives", "fn"),
    ("propagation.build_graph", "propagation", "build_graph", "fn"),
    ("propagation.witness_path", "propagation", "witness_path", "fn"),
    ("propagation.reachable", "propagation", "reachable", "fn"),
    ("calculi.apply_rule", "calculi", "apply_rule", "fn"),
    ("calculi.side_condition", "calculi", "side_condition", "fn"),
    ("calculi.check", "calculi", "check", "fn"),
    ("prover.prove_formula", "prover", "prove_formula", "fn"),
    ("refine.refine_proof", "refine", "refine_proof", "fn"),
    ("refine.nestify", "refine", "nestify", "fn"),
    ("refine.labelize", "refine", "labelize", "fn"),
    ("semantics.find_countermodel", "semantics", "find_countermodel", "fn"),
    ("semantics.enumerate_models", "semantics", "enumerate_models", "gen"),
    ("semantics.enumerate_structures", "semantics", "enumerate_structures", "gen"),
    ("semantics.check_frame", "semantics", "check_frame", "fn"),
    ("semantics.eval", "semantics", "Evaluator.formula", "method"),
    ("jsonio.proof_to_json", "jsonio", "proof_to_json", "fn"),
    ("jsonio.proof_from_json", "jsonio", "proof_from_json", "fn"),
)

LAYERS = ("syntax", "sequents", "grammar", "propagation", "calculi",
          "prover", "refine", "semantics", "jsonio")


class Tracer:
    """Records spans while installed; `install` and `uninstall` may
    alternate any number of times.  fomodal must be imported first."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[list] = []    # [span index, child time]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # counts taken inside wrappers
        self.current_job = -1
        self._site_list: list[tuple] | None = None
        self._installed = False
        self._wrappers = {name: self._make_wrapper(name, module, attr, kind)
                          for name, module, attr, kind in TARGETS}

    # -- spans --------------------------------------------------------

    def enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append([index, 0.0])
        self.start.append(time.perf_counter())

    def exit(self) -> None:
        now = time.perf_counter()
        index, child = self._stack.pop()
        self.end[index] = now
        duration = now - self.start[index]
        name = self.names[self.name_id[index]]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    # -- wrappers -----------------------------------------------------

    def _make_wrapper(self, name, module, attr, kind):
        tracer = self
        original = self._lookup(module, attr)

        if kind == "gen":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer._traced_generator(name, original(*args, **kwargs))
        else:
            after = _AFTER.get(name)
            before = _BEFORE.get(name)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(tracer, args)
                tracer.enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.exit()
                if after is not None:
                    after(tracer, result)
                return result

        for cache_attr in ("cache_info", "cache_clear"):
            if hasattr(original, cache_attr):
                setattr(wrapper, cache_attr, getattr(original, cache_attr))
        return original, wrapper

    def _traced_generator(self, name, gen):
        count_key = name + ".yielded"
        while True:
            self.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.exit()
            self.counts[count_key] += 1
            yield item

    def _lookup(self, module, attr):
        mod = sys.modules[f"fomodal.{module}"]
        if attr == "Evaluator.formula":
            return mod.Evaluator.formula
        return getattr(mod, attr)

    def _sites(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every name that
        refers to a wrapped function."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fomodal" or name.startswith("fomodal.")]
        sites = []
        for span_name, module, attr, kind in TARGETS:
            original, wrapper = self._wrappers[span_name]
            if kind == "method":
                owner = sys.modules[f"fomodal.{module}"].Evaluator
                sites.append((owner, "formula", original, wrapper))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        sites.append((mod, key, original, wrapper))
        return sites

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._site_list is None:
            self._site_list = self._sites()
        for owner, key, _, wrapper in self._site_list:
            setattr(owner, key, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, key, original, _ in self._site_list:
                setattr(owner, key, original)
            self._installed = False

    # -- reading ------------------------------------------------------

    def spans_named(self, name: str):
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [i for i, n in enumerate(self.name_id) if n == nid]

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def save(self, stem: str) -> None:
        """Write the spans to stem.bin (int32 name, parent and job
        arrays, then float64 start and end arrays, each of `count`
        entries) with a stem.json header naming the spans."""
        with open(stem + ".json", "w") as out:
            json.dump({"count": len(self.start), "names": self.names,
                       "fields": ["name:i4", "parent:i4", "job:i4",
                                  "start:f8", "end:f8"]}, out)
        with open(stem + ".bin", "wb") as out:
            for arr in (self.name_id, self.parent, self.job, self.start,
                        self.end):
                arr.tofile(out)


def _count_check_nodes(tracer, args):
    tracer.counts["calculi.check.nodes"] += args[1].size()


def _count_holds(tracer, result):
    if result.holds:
        tracer.counts["calculi.side_condition.holds"] += 1


def _count_frame_pass(tracer, result):
    if result:
        tracer.counts["semantics.check_frame.passed"] += 1


_BEFORE = {"calculi.check": _count_check_nodes}
_AFTER = {"calculi.side_condition": _count_holds,
          "semantics.check_frame": _count_frame_pass}
