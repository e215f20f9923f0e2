"""Timed job bodies and the verdict oracle of each workload.

`prepare` builds a job's inputs (untimed), `run` performs the job
through the public library API (timed), and `Oracle.judge` checks the
outcome afterwards (untimed).  The library is reached only through
attributes of the `fomodal` package at call time, so a tracer that
swaps those attributes sees every call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from corpus import FRAMES, Job, build_g3_proof, tables

# verdicts; each counts as decided except "unconfirmed" and "undecided"
PROVED = "proved"
COUNTERMODEL = "countermodel"
NO_COUNTERMODEL = "no_countermodel"
REFINED = "refined"
UNCONFIRMED = "unconfirmed"   # complete exhaustion, no model in bounds
UNDECIDED = "undecided"
DECIDED = (PROVED, COUNTERMODEL, NO_COUNTERMODEL, REFINED)


@dataclass
class Outcome:
    """What a job returned, with the counts its result objects carry."""
    verdict: str = UNDECIDED
    error: str = ""
    prover_nodes: int = 0
    exhausted: str = ""        # "complete", "cap" or "node_limit"
    refine_steps: int = 0
    proof_bytes: int = 0
    values: dict = field(default_factory=dict)


def frame_of(fm, job: Job):
    return fm.frame_spec(**FRAMES[job.frame])


def budget_of(fm, job: Job):
    b = job.budget
    return fm.SearchBudget(b.max_creations, b.max_depth, b.max_nodes)


def prepare(fm, job: Job):
    """Inputs handed to run(); building them is corpus generation."""
    if job.workload == "refine":
        return build_g3_proof(fm, job)
    return frame_of(fm, job), None


def _exhausted_kind(result) -> str:
    if result.complete:
        return "complete"
    return "node_limit" if result.reason == "node limit reached" else "cap"


def run(fm, job: Job, inputs) -> Outcome:
    frame, proof = inputs
    out = Outcome()
    if job.workload == "refine":
        report = fm.check(fm.CalculusSpec("G3", frame), proof)
        if not report.ok:
            out.error = f"input proof does not check: {report.message}"
            return out
        text = json.dumps(fm.proof_to_json(proof))
        back = fm.proof_from_json(json.loads(text))
        refined = fm.refine_proof(frame, back, validate=True)
        nested = fm.nestify(frame, refined.proof)
        out.verdict = REFINED
        out.refine_steps = len(refined.steps)
        out.proof_bytes = len(text)
        out.values = {"back": back, "refined": refined.proof, "nested": nested}
        return out

    phi = fm.parse_formula(job.text)
    out.values["phi"] = phi
    if job.workload == "countermodel":
        found = fm.find_countermodel(phi, frame, *job.bounds)
        out.values["found"] = found
        out.verdict = NO_COUNTERMODEL if found is None else COUNTERMODEL
        return out

    result = fm.prove_formula(frame, phi, budget_of(fm, job))
    out.prover_nodes = result.nodes
    out.values["result"] = result
    if isinstance(result, fm.Proved):
        out.verdict = PROVED
        if job.workload == "prove_theorems":
            labeled = fm.labelize(frame, result.proof)
            out.values["labeled"] = labeled
            out.values["nested"] = fm.nestify(frame, labeled)
        return out
    out.exhausted = _exhausted_kind(result)
    if job.workload == "prove_refute":
        found = fm.find_countermodel(phi, frame, *job.bounds)
        out.values["found"] = found
        if found is not None:
            out.verdict = COUNTERMODEL
        elif result.complete:
            out.verdict = UNCONFIRMED
    return out


# ===================================================================
# Oracle
# ===================================================================

class Oracle:
    """Checks each outcome with means independent of the timed call.

    Verdicts that depend only on a formula up to renaming of its
    predicates (no countermodel at some bounds, provability of a
    countermodel workload's formula) are memoized on the formula
    before renaming, so every renamed copy costs one lookup.
    """

    def __init__(self, fm):
        self.fm = fm
        self._memo: dict = {}

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def judge(self, job: Job, inputs, out: Outcome) -> str:
        """'' when the outcome is right, else what is wrong."""
        fm = self.fm
        frame, proof = inputs
        if out.error:
            return out.error
        if job.workload == "refine":
            return self.refined(frame, proof, out.values["back"],
                                out.values["refined"], out.values["nested"])
        phi = out.values["phi"]
        if job.workload == "countermodel":
            if out.verdict == COUNTERMODEL:
                why = self.countermodel(frame, phi, out.values["found"])
                return why or "countermodel for a theorem of the frame"
            return self._memoized(
                ("valid", job.base, job.frame),
                lambda: self._proves(frame, fm.parse_formula(job.base)))

        result = out.values["result"]
        if out.verdict == PROVED:
            goal = fm.NestedSequent("w0", (), (), (phi,), ())
            why = self.proof(fm.CalculusSpec("NestedN", frame), result.proof, goal)
            if why:
                return why
            if job.workload == "prove_theorems":
                labeled = out.values["labeled"]
                report = fm.check(fm.CalculusSpec("RefinedL", frame), labeled)
                if not report.ok:
                    return f"labelized proof does not check: {report.message}"
                if out.values["nested"] != result.proof:
                    return "nestify does not invert labelize"
            if job.workload != "prove_theorems":
                return ""
            return self._memoized(
                ("no-model", job.base, job.frame, job.bounds),
                lambda: self.no_countermodel(frame, fm.parse_formula(job.base),
                                             job.bounds))
        if job.workload == "prove_theorems":
            return f"theorem not proved: {result.reason}"
        if out.verdict == COUNTERMODEL:
            return self.countermodel(frame, phi, out.values["found"])
        return ""

    # -- the individual checks ----------------------------------------

    def proof(self, calc, proof, goal=None) -> str:
        report = self.fm.check(calc, proof)
        if not report.ok:
            return f"proof does not check under {calc.kind}: {report.message}"
        if goal is not None and proof.conclusion != goal:
            return "proof does not end in the goal"
        return ""

    def countermodel(self, frame, phi, found) -> str:
        fm = self.fm
        if found is None:
            return "no countermodel"
        model, world = found
        if not fm.check_frame(model, frame):
            return "countermodel breaks the frame conditions"
        if fm.eval_formula(model, world, phi):
            return "countermodel satisfies the formula"
        return ""

    def no_countermodel(self, frame, phi, bounds) -> str:
        found = self.fm.find_countermodel(phi, frame, *bounds)
        if found is None:
            return ""
        return (self.countermodel(frame, phi, found)
                or "proved formula has a countermodel")

    def _proves(self, frame, phi) -> str:
        fm = self.fm
        result = fm.prove_formula(frame, phi)
        if not isinstance(result, fm.Proved):
            return "formula of the countermodel workload is not proved"
        return self.proof(fm.CalculusSpec("NestedN", frame), result.proof)

    def refined(self, frame, g3, back, refined, nested) -> str:
        fm = self.fm
        if back != g3:
            return "proof changed in the JSON round trip"
        for node_path, node in refined.walk():
            if node.rule.name in ("g", "id", "dd", "nd"):
                return f"relational rule {node.rule} left at {node_path}"
        why = self.proof(fm.CalculusSpec("RefinedL", frame), refined)
        if why:
            return why
        if not fm.labeled_alpha_eq(refined.conclusion, g3.conclusion):
            return "refinement changed the end sequent"
        why = self.proof(fm.CalculusSpec("NestedN", frame), nested)
        if why:
            return why
        if not fm.labeled_alpha_eq(fm.to_labeled(nested.conclusion),
                                   refined.conclusion):
            return "nested proof ends elsewhere"
        return ""


def prime(fm, workload: str) -> float:
    """Build the lazy tables `tables(workload)` names; returns the
    seconds spent on model structure tables."""
    bounds, frames = tables(workload)
    start = time.perf_counter()
    for max_worlds, max_individuals in bounds:
        fm.semantics._all_structures(max_worlds, max_individuals)
    structures_s = time.perf_counter() - start
    for name in frames:
        frame = fm.frame_spec(**FRAMES[name])
        fm.grammar.to_cfg(fm.propagation_system(frame))
        avail = fm.availability_system(frame)
        if avail is not None:
            fm.grammar.to_cfg(avail[0])
    return structures_s
