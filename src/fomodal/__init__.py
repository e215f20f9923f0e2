"""Proof toolkit for first-order modal logics over Horn-definable
frame classes.

The package provides formula and sequent syntax, labeled and nested
sequent calculi with a shared rule checker, string-rewriting systems
that decide when propagation rules apply, a refinement procedure that
eliminates relational rules from labeled proofs, a backward proof
search with iterative deepening, bounded countermodel search, and JSON
serialization for every object the command line round trips.
"""

from .calculi import (AX, BOT_L, D, DD, DIA_L, DIA_R, EXISTS_L, EXISTS_R, ID,
                      ND, NEG_L, NEG_R, OR_L, OR_R, P_DIA, S_EX1, S_EX2,
                      CalculusSpec, CheckReport, Condition, FreshnessViolation,
                      MalformedParams, PrincipalMissing, ProofTree,
                      RuleApplicationError, RuleId, RuleNotInCalculus,
                      RuleParams, SideConditionViolation, apply_rule,
                      availability_system, check, g_rule, propagation_system,
                      rule_set, side_condition)
from .grammar import (ALPHABET, BDIA, DIA, GrammarError, Production,
                      ThueSystem, converse_string, derives, directed,
                      empty_system, of_paths, parse_production, s4, s5,
                      system, undirected, union)
from .jsonio import (JsonError, frame_from_json, frame_to_json,
                     model_from_json, model_to_json, proof_from_json,
                     proof_to_json, sequent_from_json, sequent_to_json,
                     system_from_json, system_to_json)
from .propagation import (PropagationError, PropagationGraph, PropPath,
                          build_graph, graph_of, path_in, reachable,
                          witness_path)
from .prover import (Exhausted, Proved, ProverError, SearchBudget,
                     prove_formula, prove_sequent)
from .refine import (RefineError, RefineResult, RefineStep, labelize, nestify,
                     refine_proof)
from .semantics import (KripkeModel, SemanticsError, check_frame, eval_formula,
                        find_countermodel, labeled_sequent_valid)
from .sequents import (DuplicateLabelError, LabeledSequent, NestedSequent,
                       NotATreeError, SequentError, labeled_alpha_eq,
                       nested_alpha_eq, parse_labeled, parse_nested,
                       render_labeled, render_nested, to_labeled, to_nested)
from .syntax import (ArityError, Bottom, Dia, Exists, Formula, FormulaError,
                     FrameSpec, Neg, Or, ParseError, Pred, alpha_eq, box, conj,
                     forall, frame_spec, free_vars, implies, parse_formula,
                     render_formula, substitute)

__all__ = [name for name in dir() if not name.startswith("_")]
