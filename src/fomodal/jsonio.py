"""JSON encoding of formulas, sequents, proofs, frames and models.

Formulas travel as their ASCII rendering and are parsed back on read,
so the schemas stay readable and independent of the AST layout.  Equal
texts give one formula, as formulas are interned, and one decode (of a
sequent, parameters or a whole proof) parses each distinct text once
and notes its predicates' arities in one table, so a predicate used
with two arities anywhere in the decode is an ArityError, as across a
sequent read from text.  Labels and variables must be names
the text readers take back, with no R in a relational atom.  Every
from_json function validates its input and raises JsonError with a
message naming the offending key; every list of fixed-size entries is
read by _entries, whose messages name the list and the entry refused.

Proofs of any height and nested sequents of any depth are written and
read by sequents.fold, without recursion; proof_from_json checks a node
on entering it and decodes it on leaving, so errors come in a
recursion's order.  JSON text from outside is read with loads, which
refuses arrays and objects nested more than MAX_NESTING deep, and
written with dumps on one line, since indentation grows with the
depth of a proof.  MAX_NESTING is the deepest JSON a prover proof
takes, so every proof prove_sequent emits is read back.  The json
module recurses once per level and counts its levels against Python's
recursion limit, so loads and dumps raise that limit by MAX_NESTING for
the length of the call.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from itertools import accumulate, chain
from operator import attrgetter

from .calculi import ProofTree, RuleId, RuleParams
from .grammar import GrammarError, ThueSystem, parse_production, system
from .propagation import PropPath
from .prover import MAX_SEARCH_DEPTH
from .semantics import KripkeModel
from .sequents import (LabeledSequent, NestedSequent, _rel_label, fold,
                       is_name)
from .syntax import (MAX_DEPTH, Formula, FormulaError, FrameSpec,
                     parse_formula, predicate_arities, render_formula)


class JsonError(Exception):
    pass


# A proof node at search depth h sits 2h + 1 deep (two levels per
# premise), and its conclusion's components 2 deeper per level; the
# goal nests at most MAX_DEPTH levels and each search step adds at most
# one, and a component's formula lists are one level further in.
MAX_NESTING = 2 * MAX_SEARCH_DEPTH + 2 * (MAX_DEPTH + MAX_SEARCH_DEPTH) + 3

_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
_JSON_BRACKET = re.compile(r"[][{}]")
_NESTING_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


@contextmanager
def _nesting_room():
    """Python's recursion limit raised by MAX_NESTING, for the json
    module's one recursion per level."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + MAX_NESTING)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def loads(text: str):
    """json.loads for text from outside, with nesting at most
    MAX_NESTING deep; too deep or malformed text is a JsonError."""
    brackets = _JSON_BRACKET.findall(_JSON_STRING.sub("", text))
    if max(accumulate(map(_NESTING_STEP.__getitem__, brackets)),
           default=0) > MAX_NESTING:
        raise JsonError(f"JSON nested more than {MAX_NESTING} deep")
    try:
        with _nesting_room():
            return json.loads(text)
    except ValueError as exc:
        raise JsonError(f"not valid JSON: {exc}") from None


def dumps(obj) -> str:
    """json.dumps on one line, for values nested up to MAX_NESTING deep."""
    with _nesting_room():
        return json.dumps(obj)


def _expect(obj, kind, what: str):
    if not isinstance(obj, kind):
        name = kind.__name__ if isinstance(kind, type) else "value"
        raise JsonError(f"{what}: expected {name}, got {type(obj).__name__}")
    return obj


def _entries(obj, what: str, size: int, shape: str, fits=None):
    """The entries of the list obj, each checked to be a list of size
    items that fits accepts, if given; what names obj in messages and
    shape what an entry must be.  Each entry is checked as it is taken,
    so a caller's checks of one entry come before the next entry's."""
    where = f"{what} entry"
    for entry in _expect(obj, list, what):
        if not isinstance(entry, list) or len(entry) != size or (
                fits is not None and not fits(entry)):
            _expect(entry, list, where)
            raise JsonError(f"{where} {entry!r} is not {shape}")
        yield entry


def _str_pair(pair) -> bool:
    return isinstance(pair[0], str) and isinstance(pair[1], str)


def _names(words, what: str, fits=is_name):
    """Refuse any of the strings words that is not a name, or not a label
    of a relational atom when fits is sequents._rel_label."""
    if not all(map(fits, words)):
        word = next(word for word in words if not fits(word))
        raise JsonError(f"{what}: cannot read {word!r} as a name")


class _Decode:
    """The formulas of one decode: each distinct text is parsed once,
    and the arity of each predicate it uses is noted in one table for
    the decode, so a predicate used with two arities anywhere in it
    raises ArityError, as the text readers raise across a sequent."""

    def __init__(self):
        self.parsed: dict[str, Formula] = {}
        self.arities: dict[str, int] = {}

    def formula(self, text, what: str) -> Formula:
        _expect(text, str, what)
        phi = self.parsed.get(text)
        if phi is None:
            try:
                phi = parse_formula(text)
            except FormulaError as err:
                raise JsonError(f"{what}: {err}") from None
            predicate_arities([phi], self.arities)
            self.parsed[text] = phi
        return phi


# ===================================================================
# Frames
# ===================================================================

def frame_to_json(frame: FrameSpec) -> dict:
    return {"serial": frame.serial,
            "paths": sorted(list(p) for p in frame.paths),
            "inc": frame.inc, "dec": frame.dec, "nonempty": frame.nonempty}


def frame_from_json(obj) -> FrameSpec:
    _expect(obj, dict, "frame")
    paths = frozenset(map(tuple, _entries(
        obj.get("paths", []), "frame.paths", 2, "a pair of naturals",
        lambda pair: all(type(n) is int and n >= 0 for n in pair))))
    flags = {key: _expect(obj.get(key, False), bool, f"frame.{key}")
             for key in ("serial", "inc", "dec", "nonempty")}
    return FrameSpec(paths=paths, **flags)


# ===================================================================
# Sequents
# ===================================================================

def sequent_to_json(seq) -> dict:
    if isinstance(seq, NestedSequent):
        return fold(seq, lambda node, children: {
            "kind": "nested",
            "label": node.label,
            "left": [render_formula(f) for f in node.left],
            "vars": list(node.vars),
            "right": [render_formula(f) for f in node.right],
            "children": list(children)}, attrgetter("children"))
    if isinstance(seq, LabeledSequent):
        return {"kind": "labeled",
                "rel": [list(pair) for pair in seq.rel],
                "dom": [list(pair) for pair in seq.dom],
                "left": [[w, render_formula(f)] for w, f in seq.left],
                "right": [[w, render_formula(f)] for w, f in seq.right]}
    raise JsonError(f"not a sequent: {type(seq).__name__}")


def _labeled_pairs(obj, what: str, decode: _Decode):
    label, formula = f"{what} label", f"{what} formula"
    out = tuple((_expect(w, str, label), decode.formula(text, formula))
                for w, text in _entries(obj, what, 2, "a pair"))
    _names([w for w, _ in out], label)
    return out


def sequent_from_json(obj):
    """The sequent obj encodes.  Raises ArityError when a predicate is
    used with two arities across it, as the text readers do."""
    return _sequent(obj, _Decode())


def _sequent(obj, decode: _Decode):
    _expect(obj, dict, "sequent")
    kind = obj.get("kind")
    if kind == "labeled":
        atoms = []
        for key in ("rel", "dom"):
            pairs = tuple(map(tuple, _entries(
                obj.get(key, []), key, 2, "a pair of names", _str_pair)))
            _names(list(chain.from_iterable(pairs)), f"{key} entry",
                   _rel_label if key == "rel" else is_name)
            atoms.append(pairs)
        return LabeledSequent(rel=atoms[0], dom=atoms[1],
                              left=_labeled_pairs(obj.get("left", []), "left",
                                                  decode),
                              right=_labeled_pairs(obj.get("right", []), "right",
                                                   decode))
    if kind == "nested":
        return fold(obj, lambda node, children: _component(node, children,
                                                           decode),
                    _children)
    raise JsonError(f"sequent.kind must be 'labeled' or 'nested', got {kind!r}")


def _children(obj) -> list:
    """The children of a nested sequent's component, which must be
    nested components themselves."""
    children = _expect(obj.get("children", []), list, "children")
    for child in children:
        kind = _expect(child, dict, "sequent").get("kind")
        if kind == "labeled":
            raise JsonError("children of a nested sequent must be nested")
        if kind != "nested":
            raise JsonError(f"sequent.kind must be 'labeled' or 'nested', "
                            f"got {kind!r}")
    return children


def _component(obj, children, decode: _Decode) -> NestedSequent:
    label = _expect(obj.get("label", "w0"), str, "label")
    left = tuple(decode.formula(t, "left formula")
                 for t in _expect(obj.get("left", []), list, "left"))
    right = tuple(decode.formula(t, "right formula")
                  for t in _expect(obj.get("right", []), list, "right"))
    vars_ = tuple(_expect(v, str, "vars entry")
                  for v in _expect(obj.get("vars", []), list, "vars"))
    _names((label, *vars_), "label or vars entry")
    return NestedSequent(label, left, vars_, right, children)


# ===================================================================
# Rules, parameters, proofs
# ===================================================================

def rule_to_json(rule: RuleId) -> str:
    return str(rule)


def rule_from_json(obj) -> RuleId:
    text = _expect(obj, str, "rule")
    m = re.fullmatch(r"g\((\d+),\s*(\d+)\)", text)
    if m:
        return RuleId("g", (int(m.group(1)), int(m.group(2))))
    if re.fullmatch(r"[a-z_0-9]+", text):
        return RuleId(text)
    raise JsonError(f"cannot read rule name {text!r}")


def path_to_json(path: PropPath) -> dict:
    return {"labels": list(path.labels), "chars": list(path.chars)}


def path_from_json(obj) -> PropPath:
    _expect(obj, dict, "path")
    labels = tuple(_expect(x, str, "path label")
                   for x in _expect(obj.get("labels"), list, "path.labels"))
    _names(labels, "path label")
    chars = tuple(_expect(c, str, "path char")
                  for c in _expect(obj.get("chars"), list, "path.chars"))
    return PropPath(labels, chars)


def params_to_json(params: RuleParams) -> dict:
    out = {}
    for key in ("label", "target", "variable"):
        value = getattr(params, key)
        if value is not None:
            out[key] = value
    if params.formula is not None:
        out["formula"] = render_formula(params.formula)
    for key in ("chain_u", "chain_v"):
        value = getattr(params, key)
        if value is not None:
            out[key] = list(value)
    if params.witness is not None:
        out["witness"] = path_to_json(params.witness)
    return out


def params_from_json(obj) -> RuleParams:
    return _params(obj, _Decode())


def _params(obj, decode: _Decode) -> RuleParams:
    _expect(obj, dict, "params")
    known = {"label", "target", "variable", "formula", "chain_u", "chain_v",
             "witness"}
    for key in obj:
        if key not in known:
            raise JsonError(f"unknown params key {key!r}")
    names = {key: _expect(obj[key], str, f"params.{key}")
             for key in ("label", "target", "variable") if key in obj}
    for key in ("chain_u", "chain_v"):
        if key in obj:
            names[key] = tuple(_expect(x, str, f"{key} label")
                               for x in _expect(obj[key], list, key))
    for key, value in names.items():
        _names((value,) if isinstance(value, str) else value, f"params.{key}")
    return RuleParams(
        formula=(decode.formula(obj["formula"], "params.formula")
                 if "formula" in obj else None),
        witness=path_from_json(obj["witness"]) if "witness" in obj else None,
        **names)


def proof_to_json(tree: ProofTree) -> dict:
    return fold(tree, lambda node, premises: {
        "conclusion": sequent_to_json(node.conclusion),
        "rule": rule_to_json(node.rule),
        "params": params_to_json(node.params),
        "premises": list(premises)})


def proof_from_json(obj) -> ProofTree:
    """The proof obj encodes.  Raises ArityError when a predicate is
    used with two arities anywhere in it."""
    decode = _Decode()

    def enter(node) -> list:
        _expect(node, dict, "proof node")
        if "conclusion" not in node or "rule" not in node:
            raise JsonError("proof node needs 'conclusion' and 'rule'")
        return _expect(node.get("premises", []), list, "premises")

    def build(node, premises) -> ProofTree:
        return ProofTree(_sequent(node["conclusion"], decode),
                         rule_from_json(node["rule"]),
                         _params(node.get("params", {}), decode),
                         premises)

    return fold(obj, build, enter)


# ===================================================================
# Rewriting systems and models
# ===================================================================

def system_to_json(sys: ThueSystem) -> list:
    return [str(p) for p in sys.sorted_productions()]


def system_from_json(obj) -> ThueSystem:
    _expect(obj, list, "system")
    try:
        return system(*(parse_production(_expect(t, str, "production"))
                        for t in obj))
    except GrammarError as err:
        raise JsonError(str(err)) from None


def model_to_json(model: KripkeModel) -> dict:
    return {"worlds": model.worlds,
            "rel": sorted(list(p) for p in model.rel),
            "domains": [sorted(d) for d in model.domains],
            "valuation": sorted([name, world, list(args)]
                                for name, world, args in model.valuation)}


def model_from_json(obj) -> KripkeModel:
    _expect(obj, dict, "model")
    worlds = _expect(obj.get("worlds"), int, "model.worlds")
    rel = frozenset(map(tuple, _entries(
        obj.get("rel", []), "model.rel", 2, "a world pair",
        lambda pair: all(isinstance(x, int) for x in pair))))
    domains = []
    for dom in _expect(obj.get("domains", []), list, "model.domains"):
        _expect(dom, list, "model.domains entry")
        domains.append(frozenset(_expect(i, int, "individual") for i in dom))
    valuation = set()
    for name, world, args in _entries(obj.get("valuation", []),
                                      "model.valuation", 3, "a triple"):
        _expect(name, str, "valuation predicate")
        _expect(world, int, "valuation world")
        _expect(args, list, "valuation arguments")
        valuation.add((name, world,
                       tuple(_expect(a, int, "valuation argument") for a in args)))
    return KripkeModel(worlds, rel, tuple(domains),
                       frozenset(valuation))
