"""Tests of the benchmark itself: seeded corpora, the verdict oracle,
and that tracing leaves the library's work unchanged.

    python3 -m pytest -q perfbench/tests
"""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fomodal as fm  # noqa: E402

import corpus  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- corpus ------------------------------------------------------------

def _digests(hash_seed: str) -> list[str]:
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import corpus; "
            "print(' '.join(corpus.digest(w, 7) for w in corpus.WORKLOADS))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", code, BENCH], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout.split()


def test_fixed_seed_gives_the_same_digest_in_any_process():
    first = _digests("0")
    assert first == _digests("3")
    assert first == [corpus.digest(w, 7) for w in corpus.WORKLOADS]
    assert first != [corpus.digest(w, 8) for w in corpus.WORKLOADS]


def test_jobs_are_distinct_and_carry_budgets_and_bounds():
    for workload in corpus.WORKLOADS:
        batch = corpus.take(workload, 1, 120)
        assert len({j.describe() for j in batch}) == len(batch)
        for job in batch:
            if workload == "refine":
                assert job.shape
            else:
                assert job.text and job.bounds
                assert job.text != job.base or "{" not in job.base
            if workload.startswith("prove"):
                assert job.budget is not None


def test_refine_proofs_check_under_g3():
    for job in corpus.take("refine", 1, len(corpus.REFINE_SHAPES)):
        frame, proof = corpus.build_g3_proof(fm, job)
        assert fm.check(fm.CalculusSpec("G3", frame), proof).ok, job.shape


def test_random_formulas_are_closed_and_parse():
    for job in corpus.take("prove_refute", 2, 200):
        phi = fm.parse_formula(job.text)
        assert not fm.free_vars(phi), job.text


# -- oracle ------------------------------------------------------------

def _first(workload, pick=lambda job: True):
    for job in corpus.take(workload, 1, 200):
        if pick(job):
            inputs = jobs.prepare(fm, job)
            return job, inputs, jobs.run(fm, job, inputs)
    raise AssertionError("no such job")


def test_oracle_accepts_true_outcomes():
    oracle = jobs.Oracle(fm)
    for workload in corpus.WORKLOADS:
        for job in corpus.take(workload, 1, 20):
            inputs = jobs.prepare(fm, job)
            out = jobs.run(fm, job, inputs)
            assert oracle.judge(job, inputs, out) == "", (job.slot, out.verdict)


def test_oracle_rejects_a_tampered_proof():
    oracle = jobs.Oracle(fm)
    job, inputs, out = _first("prove_theorems",
                              lambda j: j.slot.startswith("trans/"))
    proof = out.values["result"].proof
    # drop the premises of the root: the checker must notice
    broken = fm.ProofTree(proof.conclusion, proof.rule, proof.params, ())
    out.values["result"] = replace(out.values["result"], proof=broken)
    assert oracle.judge(job, inputs, out) != ""

    job, inputs, out = _first("refine", lambda j: j.shape[0] == "chain")
    refined = out.values["refined"]
    other = fm.parse_labeled("w0Rw1 |- w1: q")
    out.values["refined"] = fm.ProofTree(other, refined.rule, refined.params,
                                         refined.premises)
    assert oracle.judge(job, inputs, out) != ""


def test_oracle_rejects_a_fake_countermodel():
    oracle = jobs.Oracle(fm)
    frame = fm.frame_spec(paths=[(0, 2)])
    phi = fm.parse_formula("<><>p -> <>p")
    # p true at the only world: the formula holds there
    holds = fm.KripkeModel(1, frozenset(), (frozenset(),),
                           frozenset({("p", 0, ())}))
    assert oracle.countermodel(frame, phi, (holds, 0)) != ""
    # falsifies the formula, but 0R1R2 without 0R2 is not transitive
    not_transitive = fm.KripkeModel(
        3, frozenset({(0, 1), (1, 2)}),
        (frozenset(), frozenset(), frozenset()), frozenset({("p", 2, ())}))
    assert not fm.eval_formula(not_transitive, 0, phi)
    assert oracle.countermodel(frame, phi, (not_transitive, 0)) != ""

    job, inputs, out = _first("countermodel")
    out.verdict = jobs.COUNTERMODEL
    out.values["found"] = (holds, 0)
    assert oracle.judge(job, inputs, out) != ""


# -- tracing -----------------------------------------------------------

def _run_jobs(workload, count, tracer=None):
    loop = run.Loop(fm)
    for job in corpus.take(workload, 5, count):
        loop.run_job(job, jobs.prepare(fm, job), tracer)
    assert not loop.failures, loop.failures
    return loop


def _check_node_counter(monkeypatch):
    """Counts the nodes check replays, through every name of check."""
    counted = [0]
    original = fm.calculi.check

    def counting(calc, proof):
        counted[0] += proof.size()
        return original(calc, proof)
    for module in (fm, fm.calculi, fm.prover, fm.refine):
        monkeypatch.setattr(module, "check", counting)
    return counted


class _NoProbes:
    """Stands in for run.SetupProbes without starting processes."""

    def __init__(self):
        self.times = []

    def take(self):
        self.times.append(0.0)


def test_timed_run_ends_on_a_round_boundary():
    probes = _NoProbes()
    loop = run.timed_run(fm, "refine", 5, 0.05, probes)
    assert not loop.failures, loop.failures
    assert loop.rounds >= 1
    assert len(loop.latencies) == loop.rounds * len(corpus.REFINE_SHAPES)
    assert len(probes.times) == run.SETUP_PROBES


COUNTS = {"prove_theorems": 30, "prove_refute": 40, "countermodel": 6,
          "refine": 13}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_tracing_leaves_counts_unchanged(workload, monkeypatch):
    plain = []
    with monkeypatch.context() as patch:
        counted = _check_node_counter(patch)
        for job in corpus.take(workload, 5, COUNTS[workload]):
            out = jobs.run(fm, job, jobs.prepare(fm, job))
            plain.append((job.index, out.verdict, out.prover_nodes,
                          out.refine_steps))
    tracer = Tracer()
    traced = _run_jobs(workload, COUNTS[workload], tracer)
    assert plain == [(job.index, out.verdict, out.prover_nodes, out.refine_steps)
                     for job, out, _ in traced.outcomes]
    assert tracer.counts["calculi.check.nodes"] == counted[0]
    if workload == "countermodel":
        expected = 0
        for job in corpus.take(workload, 5, COUNTS[workload]):
            phi = fm.parse_formula(job.text)
            signature = fm.syntax.predicate_arities([phi])
            frame = jobs.frame_of(fm, job)
            expected += sum(1 for _ in fm.semantics.enumerate_models(
                signature, *job.bounds, frame))
        assert tracer.counts["semantics.enumerate_models.yielded"] == expected
    # every job span closed, and children never outlast their parents
    assert not tracer._stack
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]


def test_tracer_replaces_every_name_and_restores_it():
    tracer = Tracer()
    original = fm.propagation.build_graph
    tracer.install()
    try:
        wrapped = fm.propagation.build_graph
        assert wrapped is not original
        assert fm.calculi.build_graph is wrapped
        assert fm.build_graph is wrapped
        assert wrapped.cache_info().maxsize is None
        assert fm.calculi.derives is fm.grammar.derives
        assert fm.prover.check is fm.refine.check is fm.calculi.check
        assert fm.calculi.check.__wrapped__ is tracer._wrappers["calculi.check"][0]
    finally:
        tracer.uninstall()
    assert fm.calculi.build_graph is original
    assert fm.prover.check is tracer._wrappers["calculi.check"][0]
