"""fomodal benchmark: proof search, countermodel search and refinement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see corpus.py and layers.json):

  prove_theorems  valid goals: prove_formula, labelize, nestify
  prove_refute    random formulas over 13 frame classes and KD45:
                  prove_formula, then find_countermodel when unproved
  countermodel    exhaustive find_countermodel on valid formulas
  refine          G3 check, JSON round trip, refine_proof, nestify

Load is a closed loop: one client in one process, no threads, sends the
next job when the last one returns.  Jobs come from a stream seeded by
--seed; the library sees only the generated inputs.  Every job is run
once per process, and the oracle in jobs.py checks each outcome outside
the timed region.

With --trace 0 the run times whole rounds of jobs until their job time
reaches --seconds, finishing the round under way, and reports the
end-to-end metrics over those rounds.  Every round holds the same mix
of work, so a run never ends on a part of a round whose mix depends on
the seed.  setup_s is the median over fresh processes, spread across
the run, of `import fomodal` plus the lazy tables the workload needs
(corpus.tables).  peak_rss_mb is read when RSS_ROUNDS rounds are done:
the library's caches grow with every job, so reading it at the end
would measure how fast the machine ran as much as the memory a fixed
amount of work takes.  With --trace 1 it runs a fixed number of rounds
per workload, alternating untraced and traced rounds, so the per-layer
counts repeat exactly for a seed; spans go to .perfbench/ under the
checkout.  Lines starting with '#' are for people; the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import jobs  # noqa: E402

SETUP_PROBES = 5  # per untraced run; a traced run takes none
# traced runs: rounds per half (untraced and traced), sized so that a
# traced run takes about as long as a 10 s untraced one
TRACE_ROUNDS = {"prove_theorems": 2, "prove_refute": 30,
                "countermodel": 2, "refine": 24}
# untraced runs: rounds after which peak_rss_mb is read, about half of
# what a 22 s run completes on 2 vCPUs
RSS_ROUNDS = {"prove_theorems": 10, "prove_refute": 60,
              "countermodel": 5, "refine": 50}
CACHES = (("syntax", "free_vars"), ("syntax", "all_vars"),
          ("propagation", "build_graph"), ("grammar", "to_cfg"),
          ("grammar", "_raw_rules"), ("semantics", "_all_structures"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def note(text: str) -> None:
    print("# " + text, flush=True)


# ===================================================================
# Environment and set-up
# ===================================================================

def git_commit() -> str:
    """The checked-out commit read from .git, or 'unknown' outside a
    git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "loadavg": os.getloadavg()}


class SetupProbes:
    """Set-up time of fresh processes: import plus table building.

    The machine's speed drifts over seconds, so the probes are spread
    over the whole run, between jobs, rather than taken back to back."""

    def __init__(self, workload: str):
        self.workload = workload
        self.times: list[float] = []

    def take(self) -> None:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             self.workload],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def median(self) -> float:
        note("setup probes (s): " + " ".join(f"{t:.4f}" for t in self.times))
        return statistics.median(self.times)


def cache_snapshot(fm) -> dict:
    out = {}
    for module, name in CACHES:
        info = getattr(getattr(fm, module), name).cache_info()
        out[f"{module}.{name}"] = (info.hits, info.misses)
    return out


def cache_delta(before: dict, after: dict) -> dict:
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1])
            for k in after}


# ===================================================================
# The closed loop
# ===================================================================

class Loop:
    """Runs jobs one after another and keeps what the metrics need."""

    def __init__(self, fm):
        self.fm = fm
        self.oracle = jobs.Oracle(fm)
        self.latencies: list[float] = []
        self.outcomes: list[tuple] = []   # (job, Outcome, traced)
        self.failures: list[str] = []
        self.unconfirmed = 0
        self.decided = 0
        self.rounds = 0   # whole rounds run
        self.rss_mb = None  # ru_maxrss once RSS_ROUNDS rounds are done
        # cache (hits, misses) deltas over the timed calls, keyed by
        # whether the job was traced
        self.cache = {False: {}, True: {}}

    def run_job(self, job, inputs, tracer=None) -> float:
        """Time one job, traced when a tracer is given, then judge it."""
        fm = self.fm
        before = cache_snapshot(fm)
        if tracer is not None:
            tracer.install()
            tracer.current_job = job.index
            tracer.enter("job")
        start = time.perf_counter()
        try:
            out = jobs.run(fm, job, inputs)
        except Exception as err:  # a failed job is counted, not fatal
            out = jobs.Outcome(error=f"{type(err).__name__}: {err}")
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
            tracer.uninstall()
        totals = self.cache[tracer is not None]
        for key, (hits, misses) in cache_delta(before, cache_snapshot(fm)).items():
            h, m = totals.get(key, (0, 0))
            totals[key] = (h + hits, m + misses)
        why = self._judge(job, inputs, out)
        self.latencies.append(elapsed)
        self.outcomes.append((job, out, tracer is not None))
        if why:
            self.failures.append(f"job {job.index} {job.slot}: {why}")
        elif out.verdict in jobs.DECIDED:
            self.decided += 1
        elif out.verdict == jobs.UNCONFIRMED:
            self.unconfirmed += 1
        out.values.clear()
        return elapsed

    def _judge(self, job, inputs, out) -> str:
        try:
            return self.oracle.judge(job, inputs, out)
        except Exception as err:  # the oracle itself broke on this output
            return f"oracle raised {type(err).__name__}: {err}"


def timed_run(fm, workload: str, seed: int, seconds: float,
              probes: SetupProbes) -> Loop:
    """Run whole rounds until their job time adds up to seconds, taking
    the remaining set-up probes at even steps of job time."""
    loop = Loop(fm)
    timed = 0.0
    step = seconds / (SETUP_PROBES - 1)
    for batch in corpus.rounds(workload, seed):
        for job in batch:
            timed += loop.run_job(job, jobs.prepare(fm, job))
            if len(probes.times) < SETUP_PROBES - 1 \
                    and timed >= len(probes.times) * step:
                probes.take()
        loop.rounds += 1
        if loop.rounds == RSS_ROUNDS[workload]:
            loop.rss_mb = peak_rss_mb()
        if timed >= seconds:
            break
    while len(probes.times) < SETUP_PROBES:
        probes.take()
    return loop


def traced_run(fm, workload: str, seed: int, tracer) -> tuple:
    """Alternate untraced and traced rounds; returns the loop and the
    untraced and traced job time."""
    loop = Loop(fm)
    spent = [0.0, 0.0]
    stream = corpus.rounds(workload, seed)
    for r in range(2 * TRACE_ROUNDS[workload]):
        traced = r % 2
        for job in next(stream):
            spent[traced] += loop.run_job(job, jobs.prepare(fm, job),
                                          tracer if traced else None)
        loop.rounds += 1
    return loop, spent[0], spent[1]


# ===================================================================
# Metrics
# ===================================================================

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(loop: Loop, setup_s: float) -> dict:
    lat = loop.latencies
    n = len(lat)
    timed = sum(lat)
    # a run too short to reach RSS_ROUNDS reports its peak at the end
    rss_mb = peak_rss_mb() if loop.rss_mb is None else loop.rss_mb
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n / timed, "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "decided_ratio": (loop.decided / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(loop: Loop, tracer, plain: float, traced: float,
              structures_s: float) -> dict:
    tr = tracer
    deltas = loop.cache[True]
    ms = lambda name: tr.total[name] * 1e3  # noqa: E731
    outs = [(job, out) for job, out, was_traced in loop.outcomes if was_traced]
    n_traced = len(outs)
    n_plain = len(loop.outcomes) - n_traced

    def hit_ratio(key):
        hits, misses = deltas.get(key, (0, 0))
        return _ratio(hits, hits + misses)

    # check time replaying the prover's proof, and refine's per-step
    # validation (every check under refine_proof but its first and last)
    replay = 0.0
    per_refine: dict = {}
    refine_check = 0.0
    for i in tr.spans_named("calculi.check"):
        parent = tr.parent[i]
        if parent < 0:
            continue
        pname = tr.names[tr.name_id[parent]]
        if pname == "prover.prove_formula":
            replay += tr.duration(i)
        elif pname == "refine.refine_proof":
            per_refine.setdefault(parent, []).append(tr.duration(i))
            refine_check += tr.duration(i)
    validate = sum(sum(d[1:-1]) for d in per_refine.values())

    kd45 = {job.index for job, _ in outs if job.frame == "KD45"}
    kd45_job = sum(tr.duration(i) for i in tr.spans_named("job")
                   if tr.job[i] in kd45)
    kd45_derives = sum(tr.duration(i) for i in tr.spans_named("grammar.derives")
                       if tr.job[i] in kd45)

    job_time = tr.total["job"]
    layer_self = {layer: 0.0 for layer in ("syntax", "sequents", "grammar",
                                           "propagation", "calculi", "prover",
                                           "refine", "semantics", "jsonio")}
    for name, t in tr.self_time.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += t

    nodes = sum(out.prover_nodes for _, out in outs)
    exhausted = [out.exhausted for _, out in outs]
    checks = tr.calls["semantics.check_frame"]
    side = tr.calls["calculi.side_condition"]
    to_cfg = deltas.get("grammar.to_cfg", (0, 0))

    m = {
        "grammar.derives.calls": (tr.calls["grammar.derives"], "count"),
        "grammar.derives.ms": (ms("grammar.derives"), "ms"),
        "grammar.derives.kd45_share": (_ratio(kd45_derives, kd45_job), "ratio"),
        "grammar.to_cfg.misses": (to_cfg[1], "count"),
        "propagation.build_graph.calls": (tr.calls["propagation.build_graph"], "count"),
        "propagation.build_graph.hit_ratio": (hit_ratio("propagation.build_graph"), "ratio"),
        "propagation.build_graph.ms": (ms("propagation.build_graph"), "ms"),
        "propagation.witness_path.calls": (tr.calls["propagation.witness_path"], "count"),
        "propagation.witness_path.ms": (ms("propagation.witness_path"), "ms"),
        "propagation.reachable.calls": (tr.calls["propagation.reachable"], "count"),
        "propagation.reachable.ms": (ms("propagation.reachable"), "ms"),
        "sequents.to_labeled.calls": (tr.calls["sequents.to_labeled"], "count"),
        "sequents.to_labeled.ms": (ms("sequents.to_labeled"), "ms"),
        "sequents.to_nested.ms": (ms("sequents.to_nested"), "ms"),
        "calculi.apply_rule.calls": (tr.calls["calculi.apply_rule"], "count"),
        "calculi.apply_rule.self_ms": (tr.self_time["calculi.apply_rule"] * 1e3, "ms"),
        "calculi.side_condition.calls": (side, "count"),
        "calculi.side_condition.self_ms": (tr.self_time["calculi.side_condition"] * 1e3, "ms"),
        "calculi.side_condition.holds_ratio": (
            _ratio(tr.counts["calculi.side_condition.holds"], side), "ratio"),
        "calculi.check.calls": (tr.calls["calculi.check"], "count"),
        "calculi.check.nodes": (tr.counts["calculi.check.nodes"], "count"),
        "calculi.check.ms": (ms("calculi.check"), "ms"),
        "prover.nodes": (nodes, "count"),
        "prover.nodes_per_s": (_ratio(nodes, tr.total["prover.prove_formula"]), "1/s"),
        "prover.self_ms": (tr.self_time["prover.prove_formula"] * 1e3, "ms"),
        "prover.replay_check_ms": (replay * 1e3, "ms"),
        "prover.exhausted.complete": (exhausted.count("complete"), "count"),
        "prover.exhausted.cap": (exhausted.count("cap"), "count"),
        "prover.exhausted.node_limit": (exhausted.count("node_limit"), "count"),
        "refine.refine_proof.ms": (ms("refine.refine_proof"), "ms"),
        "refine.refine_proof.check_share": (
            _ratio(refine_check, tr.total["refine.refine_proof"]), "ratio"),
        "refine.steps": (sum(out.refine_steps for _, out in outs), "count"),
        "refine.validate_check_ms": (validate * 1e3, "ms"),
        "refine.nestify.ms": (ms("refine.nestify"), "ms"),
        "refine.labelize.ms": (ms("refine.labelize"), "ms"),
        "semantics.structures_examined": (checks, "count"),
        "semantics.frame_pass_ratio": (
            _ratio(tr.counts["semantics.check_frame.passed"], checks), "ratio"),
        "semantics.models_examined": (
            tr.counts["semantics.enumerate_models.yielded"], "count"),
        "semantics.eval.calls": (tr.calls["semantics.eval"], "count"),
        "semantics.eval.ms": (ms("semantics.eval"), "ms"),
        "semantics.enumerate.ms": (ms("semantics.enumerate_models"), "ms"),
        "semantics.structure_table_s": (structures_s, "s"),
        "syntax.parse_formula.calls": (tr.calls["syntax.parse_formula"], "count"),
        "syntax.parse_formula.ms": (ms("syntax.parse_formula"), "ms"),
        "syntax.free_vars.hit_ratio": (hit_ratio("syntax.free_vars"), "ratio"),
        "jsonio.proof_to_json.ms": (ms("jsonio.proof_to_json"), "ms"),
        "jsonio.proof_from_json.ms": (ms("jsonio.proof_from_json"), "ms"),
        "jsonio.proof_bytes": (sum(out.proof_bytes for _, out in outs), "bytes"),
        "trace.overhead_ratio": (
            _ratio(_ratio(traced, n_traced), _ratio(plain, n_plain)), "ratio"),
        "trace.coverage_ratio": (
            _ratio(job_time - tr.self_time["job"], job_time), "ratio"),
        "trace.jobs": (n_traced, "count"),
    }
    for layer, t in layer_self.items():
        m[f"{layer}.self_share"] = (_ratio(t, job_time), "ratio")
    return m


# ===================================================================
# Main
# ===================================================================

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fomodal", "__init__.py")):
        print(f"fomodal sources not found under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    note(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
         f"trace={args.trace}")
    note("environment: " + json.dumps(env))
    note(f"corpus digest (first {corpus.DIGEST_JOBS} jobs): "
         f"{corpus.digest(args.workload, args.seed)}")

    if not args.trace:
        probes = SetupProbes(args.workload)
        probes.take()
    sys.path.insert(0, SRC)
    import fomodal as fm
    structures_s = jobs.prime(fm, args.workload)

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        loop, plain, traced = traced_run(fm, args.workload, args.seed, tracer)
        metrics = per_layer(loop, tracer, plain, traced, structures_s)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        stem = os.path.join(ROOT, ".perfbench",
                            f"spans-{args.workload}-s{args.seed}")
        tracer.save(stem)
        note(f"{len(tracer.start)} spans written to {stem}.bin")
        shares = {k: round(v[0], 4) for k, v in metrics.items()
                  if k.endswith(".self_share")}
        note("self time share by layer: " + json.dumps(shares))
    else:
        loop = timed_run(fm, args.workload, args.seed, args.seconds, probes)
        metrics = end_to_end(loop, probes.median())

    note("cache (hits, misses) deltas over the timed jobs: "
         + json.dumps(loop.cache[bool(args.trace)]))
    attempted = len(loop.latencies)
    failed = len(loop.failures)
    note(f"jobs={attempted} in {loop.rounds} rounds "
         f"(samples behind job_p50_ms and job_p90_ms) "
         f"failed={failed} failed_ratio={failed / attempted:.4f} "
         f"unconfirmed={loop.unconfirmed}")
    if not args.trace:
        note("peak_rss_mb read after "
             + (f"{RSS_ROUNDS[args.workload]} rounds" if loop.rss_mb is not None
                else "the last round (run shorter than RSS_ROUNDS)"))
    for line in loop.failures[:20]:
        note("FAILED " + line)
    for name, (value, unit) in metrics.items():
        note(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
