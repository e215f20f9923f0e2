"""Batch command line front end.

Subcommands: prove, check, translate, refine, grammar, graph and
countermodel.  Output is JSON on stdout unless --pretty asks for a
human rendering; -o writes the JSON payload to a file instead.

Exit codes: 0 proved / checked / valid / member, 1 search exhausted or
non-member, 2 countermodel found, 3 bad input, 4 a proof failed to
check.

Positional inputs are read from a file when one exists under that
name, from stdin when the argument is -, and as literal text
otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .calculi import CalculusSpec, ProofTree, check, propagation_system
from .grammar import (ALPHABET, GrammarError, check_string, derives,
                      of_paths, parse_production, s4, s5, system, union)
from .jsonio import (JsonError, dumps, loads, model_to_json, path_to_json,
                     proof_from_json, proof_to_json, sequent_from_json,
                     sequent_to_json, system_to_json)
from .propagation import (PropagationError, graph_of, reachable,
                          witness_path)
from .prover import ProverError, SearchBudget, prove_formula, prove_sequent
from .refine import RefineError, nestify, refine_proof
from .semantics import SemanticsError, find_countermodel
from .sequents import (LabeledSequent, NestedSequent, SequentError, fold,
                       parse_labeled, parse_nested, to_labeled, to_nested)
from .syntax import MAX_DEPTH, FormulaError, frame_spec, parse_formula

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_COUNTERMODEL = 2
EXIT_INPUT = 3
EXIT_CHECK = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad arguments; the contract here
    reserves 2 for countermodels, so remap to the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


# ===================================================================
# Shared helpers
# ===================================================================

def _read_input(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as handle:
            return handle.read()
    return value


def _print(args, payload: dict, pretty_lines) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dumps(payload) + "\n")
    elif not args.pretty:
        print(dumps(payload))
    if args.pretty:
        for line in pretty_lines:
            print(line)


_PATH_RE = re.compile(r"^(\d+):(\d+)$")

# check_frame's step sets for a path condition n:k grow with n + k
MAX_PATH_TOTAL = 400


def _parse_paths(entries) -> list[tuple[int, int]]:
    pairs = []
    for entry in entries:
        for part in entry.split(","):
            part = part.strip()
            if not part:
                continue
            matched = _PATH_RE.match(part)
            if not matched:
                raise CliError(f"bad path condition {part!r}, expected N:K")
            pairs.append((int(matched.group(1)), int(matched.group(2))))
    if sum(n + k for n, k in pairs) > MAX_PATH_TOTAL:
        raise CliError(f"path conditions add n + k up to more than {MAX_PATH_TOTAL}")
    return pairs


def _frame(args):
    return frame_spec(serial=args.serial, paths=_parse_paths(args.paths),
                      inc=args.inc_dom, dec=args.dec_dom,
                      const=args.const_dom, nonempty=args.nonempty_dom)


def _add_frame_args(parser) -> None:
    group = parser.add_argument_group("frame class")
    group.add_argument("--serial", action="store_true",
                       help="every world has a successor")
    group.add_argument("--inc-dom", action="store_true",
                       help="domains grow along the relation")
    group.add_argument("--dec-dom", action="store_true",
                       help="domains shrink along the relation")
    group.add_argument("--const-dom", action="store_true",
                       help="constant domains, implies --inc-dom --dec-dom")
    group.add_argument("--nonempty-dom", action="store_true",
                       help="every domain is inhabited")
    group.add_argument("--path", "--frame-paths", dest="paths",
                       action="append", default=[], metavar="N:K",
                       help="edge closing an n-step and a k-step path; "
                            "repeatable, commas allowed")


def _add_output_args(parser) -> None:
    parser.add_argument("--pretty", action="store_true",
                        help="human rendering instead of JSON")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="write the JSON payload to FILE")


def _parse_sequent(text: str):
    """Sequent input: a JSON object from this tool, or text in either
    the labeled or the nested notation."""
    text = text.strip()
    if text.startswith("{"):
        return sequent_from_json(loads(text))
    if ";" in text.split("|-")[0]:
        return parse_nested(text)
    return parse_labeled(text)


def _proof_lines(tree: ProofTree) -> list[str]:
    return [f"{'  ' * len(path)}[{node.rule}] {node.conclusion}"
            for path, node in tree.walk()]


def _node_name(node) -> str:
    if not node:
        return "root"
    return ".".join(str(i) for i in node)


# ===================================================================
# prove
# ===================================================================

def _cmd_prove(args) -> int:
    frame = _frame(args)
    try:
        budget = SearchBudget(max_creations=args.max_creations,
                              max_depth=args.max_depth,
                              max_nodes=args.max_nodes)
    except ValueError as err:
        raise CliError(str(err)) from None
    text = _read_input(args.goal)
    if args.sequent:
        goal = parse_nested(text)
        result = prove_sequent(frame, goal, budget)
    else:
        result = prove_formula(frame, parse_formula(text), budget)
    if result:
        payload = {"status": "proved", "nodes": result.nodes}
        lines = [f"proved, {result.nodes} nodes searched"]
        if args.proof:
            payload["proof"] = proof_to_json(result.proof)
            lines += _proof_lines(result.proof)
        _print(args, payload, lines)
        return EXIT_OK
    payload = {"status": "exhausted", "reason": result.reason,
               "complete": result.complete, "nodes": result.nodes}
    _print(args, payload,
           [f"not proved: {result.reason} ({result.nodes} nodes)"])
    return EXIT_NEGATIVE


# ===================================================================
# check
# ===================================================================

_CALC_NAMES = {"g3": "G3", "refined": "RefinedL", "nested": "NestedN",
               "mixed": "Mixed"}


def _cmd_check(args) -> int:
    frame = _frame(args)
    calc = CalculusSpec(_CALC_NAMES[args.calculus], frame)
    proof = proof_from_json(loads(_read_input(args.proof)))
    report = check(calc, proof)
    payload = {"ok": report.ok}
    if report.ok:
        _print(args, payload, ["ok"])
        return EXIT_OK
    payload["node"] = list(report.node or ())
    payload["message"] = report.message
    _print(args, payload,
           [f"fail at node {_node_name(report.node)}: {report.message}"])
    return EXIT_CHECK


# ===================================================================
# translate
# ===================================================================

def _cmd_translate(args) -> int:
    seq = _parse_sequent(_read_input(args.sequent))
    if args.to_labeled:
        if isinstance(seq, LabeledSequent):
            raise CliError("--to-labeled expects a nested sequent")
        out = to_labeled(seq)
    else:
        if isinstance(seq, NestedSequent):
            raise CliError("--to-nested expects a labeled sequent")
        out = to_nested(seq)
        # parse_nested reads the rendering back up to this deep
        if fold(out, lambda node, depths: 1 + max(depths, default=-1),
                lambda node: node.children) > MAX_DEPTH:
            raise CliError(f"sequent nested more than {MAX_DEPTH} brackets deep")
    _print(args, sequent_to_json(out), [str(out)])
    return EXIT_OK


# ===================================================================
# refine
# ===================================================================

def _cmd_refine(args) -> int:
    frame = _frame(args)
    proof = proof_from_json(loads(_read_input(args.proof)))
    result = refine_proof(frame, proof)
    out = result.proof
    if args.nested:
        out = nestify(frame, out)
    payload = {"proof": proof_to_json(out),
               "steps": [{"op": s.op, "detail": s.detail}
                         for s in result.steps]}
    lines = [f"{s.op}: {s.detail}" for s in result.steps]
    lines += _proof_lines(out)
    _print(args, payload, lines)
    return EXIT_OK


# ===================================================================
# grammar
# ===================================================================

def _grammar_system(args):
    paths = _parse_paths(args.paths)
    name = args.system or "sg"
    if paths and (args.production or name not in ("sg", "s4+sg")):
        raise CliError("--path goes only with --system sg or s4+sg")
    if args.production:
        if args.system:
            raise CliError("--system and --production are exclusive")
        return system(*(parse_production(p) for p in args.production))
    if name in ("sg", "s4+sg") and not paths:
        raise CliError(f"--system {name} needs at least one --path N:K")
    if name == "s4":
        return s4()
    if name == "s5":
        return s5()
    if name == "sg":
        return of_paths(paths)
    return union(s4(), of_paths(paths))


def _cmd_grammar(args) -> int:
    sys_ = _grammar_system(args)
    target = args.string.strip()
    if target == "eps":
        target = ""
    check_string(target)
    member = derives(sys_, args.start, target)
    payload = {"system": system_to_json(sys_), "start": args.start,
               "string": target, "member": member}
    _print(args, payload, ["member" if member else "non-member"])
    return EXIT_OK if member else EXIT_NEGATIVE


# ===================================================================
# graph
# ===================================================================

# reachability saturates the graph in time growing about cubically with
# its labels: labels times edges past this bound are refused first
MAX_SATURATION = 100_000


def _cmd_graph(args) -> int:
    seq = _parse_sequent(_read_input(args.sequent))
    if isinstance(seq, NestedSequent):
        seq = to_labeled(seq)
    graph = graph_of(seq)
    payload = {"vertices": {label: sorted(vars_)
                            for label, vars_ in sorted(graph.vertices.items())},
               "edges": sorted([a, c, b] for a, c, b in graph.edges)}
    lines = [f"vertex {label}: {', '.join(sorted(vars_)) or '(no terms)'}"
             for label, vars_ in sorted(graph.vertices.items())]
    lines += [f"edge {a} -{c}-> {b}" for a, c, b in sorted(graph.edges)]
    if args.source is not None:
        if len(graph.vertices) * len(graph.edges) > MAX_SATURATION:
            raise CliError(
                f"graph out of reach: {len(graph.vertices)} labels times "
                f"{len(graph.edges)} edges is more than {MAX_SATURATION}")
        frame = _frame(args)
        sys_ = propagation_system(frame)
        targets = reachable(graph, sys_, args.char, args.source)
        witnesses = {}
        for target in sorted(targets):
            found = witness_path(graph, sys_, args.char, args.source, target)
            if found is not None:
                witnesses[target] = path_to_json(found)
        payload["source"] = args.source
        payload["char"] = args.char
        payload["system"] = system_to_json(sys_)
        payload["reachable"] = sorted(targets)
        payload["witnesses"] = witnesses
        lines.append(f"reachable from {args.source} by {args.char}: "
                     f"{', '.join(sorted(targets)) or '(none)'}")
    _print(args, payload, lines)
    return EXIT_OK


# ===================================================================
# countermodel
# ===================================================================

def _model_lines(model, world) -> list[str]:
    lines = [f"falsified at world {world}",
             "worlds   " + " ".join(str(w) for w in range(model.worlds)),
             "edges    " + (" ".join(f"{a}->{b}" for a, b in sorted(model.rel))
                            or "(none)")]
    for w in range(model.worlds):
        names = " ".join(f"c{i}" for i in sorted(model.domains[w]))
        lines.append(f"D({w})     {names or '(empty)'}")
    entries = sorted(model.valuation)
    lines.append("true     " + ("; ".join(
        f"{name}({', '.join(f'c{a}' for a in args)}) at {w}"
        for name, w, args in entries) or "(nothing)"))
    return lines


def _cmd_countermodel(args) -> int:
    frame = _frame(args)
    phi = parse_formula(_read_input(args.formula))
    found = find_countermodel(phi, frame, max_worlds=args.max_worlds,
                              max_individuals=args.max_individuals)
    if found is None:
        payload = {"status": "none",
                   "max_worlds": args.max_worlds,
                   "max_individuals": args.max_individuals}
        _print(args, payload, ["no countermodel within bounds"])
        return EXIT_OK
    model, world = found
    payload = {"status": "countermodel", "world": world,
               "model": model_to_json(model)}
    _print(args, payload, _model_lines(model, world))
    return EXIT_COUNTERMODEL


# ===================================================================
# Wiring
# ===================================================================

def _build_parser() -> _Parser:
    parser = _Parser(prog="fomodal",
                     description="prove, check, refine and translate "
                                 "sequent proofs for first-order modal "
                                 "logics over definable frame classes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", parents=(), help="search for a proof")
    p.add_argument("goal", help="formula, or nested sequent with --sequent")
    p.add_argument("--sequent", action="store_true",
                   help="read the goal as a nested sequent")
    p.add_argument("--proof", action="store_true",
                   help="include the proof in the output")
    p.add_argument("--max-creations", type=int,
                   default=SearchBudget.max_creations)
    p.add_argument("--max-depth", type=int, default=SearchBudget.max_depth)
    p.add_argument("--max-nodes", type=int, default=SearchBudget.max_nodes)
    _add_frame_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("check", help="replay a proof against a calculus")
    p.add_argument("proof", help="proof JSON, file or literal")
    p.add_argument("--calculus", choices=sorted(_CALC_NAMES),
                   default="mixed")
    _add_frame_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("translate",
                       help="move a sequent between the labeled and the "
                            "nested notation")
    p.add_argument("sequent", help="sequent, JSON or text")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-labeled", action="store_true")
    direction.add_argument("--to-nested", action="store_true")
    _add_output_args(p)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("refine",
                       help="eliminate relational rules from a proof")
    p.add_argument("proof", help="proof JSON, file or literal")
    p.add_argument("--nested", action="store_true",
                   help="emit the result as a nested proof")
    _add_frame_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("grammar",
                       help="decide membership in a rewriting language")
    p.add_argument("--system", choices=("s4", "s5", "sg", "s4+sg"),
                   help="sg takes its productions from --path flags")
    p.add_argument("--production", action="append", metavar="'d -> bd'",
                   help="explicit production, repeatable")
    p.add_argument("--start", choices=ALPHABET, required=True)
    p.add_argument("--string", required=True,
                   help="word over {d, b}; eps for the empty word")
    p.add_argument("--path", "--frame-paths", dest="paths", action="append",
                   default=[], metavar="N:K")
    _add_output_args(p)
    p.set_defaults(func=_cmd_grammar)

    p = sub.add_parser("graph",
                       help="show a sequent's propagation graph")
    p.add_argument("sequent", help="sequent, JSON or text")
    p.add_argument("--source", help="also list reachable vertices")
    p.add_argument("--char", choices=ALPHABET, default="d")
    _add_frame_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("countermodel",
                       help="search small models falsifying a formula")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--max-individuals", type=int, default=2)
    _add_frame_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_countermodel)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FormulaError, SequentError, JsonError, GrammarError,
            PropagationError, SemanticsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RefineError, ProverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
