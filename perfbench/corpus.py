"""Seeded job corpora for the four benchmark workloads.

Every workload is an endless stream of rounds.  A round holds each
slot of the workload once (for `prove_refute`, two random formulas per
frame class and one KD45 goal), in an order shuffled from the seed, so
any run of a few rounds sees the same mix of work whatever the seed.
The random formulas of `prove_refute` come from a stream of their own
that is the same for every seed, each drawn for a fixed frame class:
a run draws a few thousand of them, too few for the quantiles of their
heavy-tailed costs to agree from one draw to the next, so the seed
only shuffles and renames them, as it does the fixed slots (and picks
where the cycle of KD45 goals starts).

Each job gets its own predicate names: every predicate carries a
suffix unique to the job (`p` becomes `p_s1j17`).  Renaming keeps the
work of a job unchanged, while the library's per-process caches, which
are keyed by formulas and sequents, can never serve one job from the
work of another.  `base` keeps the formula before renaming; the oracle
memoizes verdicts on it, since renaming predicates maps models and
proofs one to one.

This module builds only text and tuples.  `build_g3_proof` is the one
place that calls the library, to assemble the ground proofs of the
`refine` workload before their jobs are timed.
"""

from __future__ import annotations

import hashlib
import random
import string
from dataclasses import dataclass

WORKLOADS = ("prove_theorems", "prove_refute", "countermodel", "refine")

# frame classes by name, as keyword arguments of fomodal.frame_spec
FRAMES = {
    "K": {},
    "KD": {"serial": True},
    "KT": {"paths": ((0, 0),)},
    "KB": {"paths": ((1, 0),)},
    "K4": {"paths": ((0, 2),)},
    "K5": {"paths": ((1, 1),)},
    "KD4": {"serial": True, "paths": ((0, 2),)},
    "S4": {"paths": ((0, 0), (0, 2))},
    "S5": {"paths": ((0, 0), (1, 1))},
    "K+inc": {"inc": True},
    "K+dec": {"dec": True},
    "K+const": {"const": True},
    "K+nonempty": {"nonempty": True},
    # not in the random sweep: used by fixed families and refine shapes
    "KD45": {"serial": True, "paths": ((0, 2), (1, 1))},
    "K4+inc": {"paths": ((0, 2),), "inc": True},
}

# the 13 classes of the random prove/refute sweep
SWEEP_FRAMES = ("K", "KD", "KT", "KB", "K4", "K5", "KD4", "S4", "S5",
                "K+inc", "K+dec", "K+const", "K+nonempty")


@dataclass(frozen=True)
class Budget:
    """Mirror of fomodal.SearchBudget, kept as plain data in the corpus."""
    max_creations: int = 8
    max_depth: int = 200
    max_nodes: int = 100000


DEFAULT_BUDGET = Budget()
# Random formulas stop at a small cap and node limit so that no single
# job dominates a run; the low node limit also packs their slow tail,
# where job_p90_ms falls, closer together.  The KD45 family runs to cap 5, where witness
# strings grow long enough for Earley membership (grammar.derives) to
# take the largest share of a job; past cap 5 one job costs seconds.
SWEEP_BUDGET = Budget(max_creations=4, max_nodes=150)
KD45_BUDGET = Budget(max_creations=5, max_nodes=3000)

# serial + transitive + euclidean goals, one per prove_refute round in
# turn; an odd count keeps the alternating untraced and traced rounds
# of a --trace 1 run on the same mix
KD45_FAMILY = (
    ("kd45/box-dia", "[]<>{q}"),
    ("kd45/box-dia-and", "[]<>{q} & []<>{r}"),
    ("kd45/box-dia-or", "[](<>{q} | <>{r})"),
    ("kd45/box-dia-dia-box", "[]<>{q} -> <>[]{q}"),
    ("kd45/dia-box-box", "<>[]{q} -> []{q}"),
)


@dataclass(frozen=True)
class Job:
    workload: str
    index: int          # position in the stream
    slot: str           # family and size, e.g. "kdist/3"
    frame: str          # key of FRAMES
    tag: str            # suffix appended to every predicate name
    text: str = ""      # formula, predicates renamed for this job
    base: str = ""      # the same formula before renaming
    budget: Budget | None = None
    bounds: tuple[int, int] | None = None  # (max_worlds, max_individuals)
    shape: tuple = ()   # refine: ("chain", n) or ("or_l", n, k)

    def describe(self) -> str:
        """One line naming every input of the job, for the digest."""
        budget = "" if self.budget is None else \
            f"{self.budget.max_creations}/{self.budget.max_depth}/{self.budget.max_nodes}"
        return "\t".join([self.workload, str(self.index), self.slot,
                          self.frame, self.text, budget,
                          "" if self.bounds is None else
                          f"{self.bounds[0]},{self.bounds[1]}",
                          ",".join(map(str, self.shape))])


# ===================================================================
# Fixed formula sets.  Templates name predicates in braces so that a
# job can rename them; `{p}(x)` is a unary predicate.
# ===================================================================

BARCAN = "(forall x. []{p}(x)) -> [](forall x. {p}(x))"
CONVERSE = "[](forall x. {p}(x)) -> (forall x. []{p}(x))"

# the acceptance theorem suite of the test corpus
THEOREMS = (
    ("thm/no-dia-false", "~ <> false", "K"),
    ("thm/serial", "<> ~false", "KD"),
    ("thm/trans", "<><>{p} -> <>{p}", "K4"),
    ("thm/refl", "{p} -> <>{p}", "KT"),
    ("thm/barcan-dec", BARCAN, "K+dec"),
    ("thm/converse-inc", CONVERSE, "K+inc"),
    ("thm/barcan-const", BARCAN, "K+const"),
    ("thm/converse-const", CONVERSE, "K+const"),
    ("thm/nonempty", "exists x. ({p}(x) | ~{p}(x))", "K+nonempty"),
)

# modal axioms matched to their frame conditions
AXIOMS = (
    ("ax/K", "[]({p} -> {q}) -> ([]{p} -> []{q})", "K"),
    ("ax/D", "[]{p} -> <>{p}", "KD"),
    ("ax/T", "{p} -> <>{p}", "KT"),
    ("ax/B", "{p} -> []<>{p}", "KB"),
    ("ax/4", "<><>{p} -> <>{p}", "K4"),
    ("ax/5", "<>{p} -> []<>{p}", "K5"),
)


def kdist(n: int) -> str:
    """K distribution over n conjuncts."""
    atoms = [f"{{p{i}}}" for i in range(n)]
    return (f"[]({' & '.join(atoms)}) -> "
            f"({' & '.join('[]' + a for a in atoms)})")


# name, template builder, frame, sizes.  Sizes stay where the default
# budget proves every instance; K distribution stops at 3 because the
# (2, 2) countermodel check of the oracle grows as 4^n.
FAMILIES = (
    ("kdist", kdist, "K", range(1, 4)),
    ("serial", lambda n: "<>" * n + "~false", "KD", range(1, 8)),
    ("trans", lambda n: "<>" * n + "{p} -> <>{p}", "K4", range(1, 8)),
    ("s4", lambda n: "[]{p} -> " + "[]" * n + "{p}", "S4", range(1, 8)),
    ("s5", lambda n: "<>" * n + "{p} -> []<>{p}", "S5", range(1, 8)),
    ("barcan", lambda n: f"(forall x. {'[]' * n}{{p}}(x)) -> "
                         f"{'[]' * n}(forall x. {{p}}(x))", "K+dec", range(1, 8)),
)

# Valid formulas for exhaustive countermodel search, each at the bounds
# that keep one search between a few and a few hundred milliseconds.
# Their costs spread evenly on a log scale, so neighbouring jobs often
# differ by a fifth.  The first five family slots, two cheap, two of
# middling cost and one dear, put the round's median job inside a
# cluster of six jobs of 30-50 ms and its 90th percentile inside one of
# three jobs of 160-190 ms.  There a noisy job shifts job_p50_ms and
# job_p90_ms by its own noise, not by the gap to the next job.
COUNTERMODEL_SLOTS = (
    tuple((name, text, frame, (2, 2)) for name, text, frame in THEOREMS + AXIOMS)
    + (("fam/kdist1", FAMILIES[0][1](1), "K", (2, 2)),
       ("fam/serial2", FAMILIES[1][1](2), "KD", (2, 2)),
       ("fam/s5-1", FAMILIES[4][1](1), "S5", (2, 2)),
       ("fam/serial2", FAMILIES[1][1](2), "KD", (3, 1)),
       ("fam/trans1", FAMILIES[2][1](1), "K4", (3, 1)),
       ("fam/barcan2", FAMILIES[5][1](2), "K+dec", (2, 2)),
       ("fam/trans3", FAMILIES[2][1](3), "K4", (2, 2)),
       ("fam/s4-2", FAMILIES[3][1](2), "S4", (2, 2)),
       ("thm/no-dia-false", "~ <> false", "K", (3, 1)),
       ("thm/serial", "<> ~false", "KD", (3, 1)),
       ("thm/refl", "{p} -> <>{p}", "KT", (3, 1)),
       ("thm/nonempty", "exists x. ({p}(x) | ~{p}(x))", "K+nonempty", (3, 1)),
       ("ax/5", "<>{p} -> []<>{p}", "K5", (3, 1)),
       ("fam/s4-1", FAMILIES[3][1](1), "S4", (3, 1)),
       ("fam/s5-2", FAMILIES[4][1](2), "S5", (3, 1)),
       ("thm/no-dia-false", "~ <> false", "K", (3, 2)),
       ("thm/serial", "<> ~false", "KD", (3, 2)),
       ("fam/s5-2", FAMILIES[4][1](2), "S5", (3, 2)),
       ("fam/serial2", FAMILIES[1][1](2), "KD", (3, 2)))
)

# bounds of the countermodel search that follows a failed proof search
REFUTE_BOUNDS = (2, 1)

# refine shapes: ("chain", n) is a transitive chain of n edges over
# increasing domains; ("or_l", n, k) is the same chain with a k-way
# disjunction at its end that or_l splits into k branches
REFINE_SHAPES = tuple(("chain", n) for n in range(2, 9)) \
    + tuple(("or_l", n, k) for n in (2, 3, 4) for k in (2, 3))


def tables(workload: str):
    """The lazy library tables a workload's jobs use: the model bounds
    whose structure tables countermodel search builds, and the frame
    classes whose rewriting systems proof search and checking turn
    into grammars.  Set-up builds these before any job is timed."""
    if workload == "prove_theorems":
        return (), tuple(sorted({f for *_, f in _prove_theorems_slots()}))
    if workload == "prove_refute":
        return (REFUTE_BOUNDS,), SWEEP_FRAMES + ("KD45",)
    if workload == "countermodel":
        return tuple(sorted({b for *_, b in COUNTERMODEL_SLOTS})), ()
    if workload == "refine":
        return (), ("K4", "K4+inc")
    raise ValueError(f"unknown workload {workload!r}")


def _names(template: str) -> set[str]:
    return {name for _, name, _, _ in string.Formatter().parse(template) if name}


def _render(template: str, tag: str) -> str:
    return template.format(**{n: n + tag for n in _names(template)})


# ===================================================================
# Random closed formulas
# ===================================================================

_NULLARY = ("p", "q")
_UNARY = "r"


def random_formula(rng: random.Random, depth: int, tag: str,
                   bound: tuple[str, ...] = ()) -> str:
    """A closed formula nested at most depth deep, over the nullary
    predicates p, q and the unary r."""
    if depth == 0 or rng.random() < 0.05:
        if bound and rng.random() < 0.5:
            return f"{_UNARY}{tag}({rng.choice(bound)})"
        if rng.random() < 0.05:
            return "false"
        return rng.choice(_NULLARY) + tag
    op = rng.choice(("~", "~", "<>", "[]", "|", "&", "->", "Q"))
    sub = depth - 1
    if op in ("~", "<>", "[]"):
        return f"{op}({random_formula(rng, sub, tag, bound)})"
    if op == "Q":
        var = f"x{len(bound)}"
        quant = rng.choice(("exists", "forall"))
        body = random_formula(rng, sub, tag, bound + (var,))
        return f"({quant} {var}. {body})"
    return (f"({random_formula(rng, sub, tag, bound)} {op} "
            f"{random_formula(rng, sub, tag, bound)})")


# ===================================================================
# Streams
# ===================================================================

def _prove_theorems_slots():
    slots = [(name, text, frame) for name, text, frame in THEOREMS + AXIOMS]
    for family, build, frame, sizes in FAMILIES:
        for n in sizes:
            slots.append((f"{family}/{n}", build(n), frame))
    return slots


def rounds(workload: str, seed: int):
    """Endless rounds of jobs for the workload, from the seed alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    formulas = random.Random(f"{workload}:formulas")
    index = 0
    kd45_next = rng.randrange(len(KD45_FAMILY))

    def tag():
        return f"_s{seed}j{index}".replace("-", "m")

    while True:
        batch = []
        if workload == "prove_theorems":
            slots = _prove_theorems_slots()
            rng.shuffle(slots)
            for name, template, frame in slots:
                batch.append(Job(workload, index, name, frame, tag(),
                                 _render(template, tag()), _render(template, ""),
                                 budget=DEFAULT_BUDGET, bounds=(2, 2)))
                index += 1
        elif workload == "prove_refute":
            # two random formulas per class: the KD45 job, slowest in
            # the round, stays under a tenth of the jobs, so p90 falls
            # where the random jobs' latencies lie close together
            frames = list(SWEEP_FRAMES) * 2 + ["KD45"]
            # '@' stands for the tag of the job the formula lands in
            drawn = [random_formula(formulas, 4, "@") for _ in frames[:-1]]
            slots = list(zip(frames, drawn + [""]))
            rng.shuffle(slots)
            for frame, raw in slots:
                if frame == "KD45":
                    name, template = KD45_FAMILY[kd45_next % len(KD45_FAMILY)]
                    kd45_next += 1
                    batch.append(Job(workload, index, name, frame, tag(),
                                     _render(template, tag()),
                                     _render(template, ""),
                                     budget=KD45_BUDGET, bounds=REFUTE_BOUNDS))
                else:
                    batch.append(Job(workload, index, f"random/{frame}", frame,
                                     tag(), raw.replace("@", tag()),
                                     raw.replace("@", ""),
                                     budget=SWEEP_BUDGET, bounds=REFUTE_BOUNDS))
                index += 1
        elif workload == "countermodel":
            slots = list(COUNTERMODEL_SLOTS)
            rng.shuffle(slots)
            for name, template, frame, bounds in slots:
                batch.append(Job(workload, index,
                                 f"{name}@{bounds[0]},{bounds[1]}", frame,
                                 tag(), _render(template, tag()),
                                 _render(template, ""), budget=DEFAULT_BUDGET,
                                 bounds=bounds))
                index += 1
        else:
            shapes = list(REFINE_SHAPES)
            rng.shuffle(shapes)
            for shape in shapes:
                frame = "K4+inc" if shape[0] == "chain" else "K4"
                batch.append(Job(workload, index,
                                 "/".join(map(str, shape)), frame, tag(),
                                 shape=shape))
                index += 1
        yield batch


def take(workload: str, seed: int, count: int) -> list[Job]:
    """The first count jobs of the stream."""
    out: list[Job] = []
    for batch in rounds(workload, seed):
        out.extend(batch)
        if len(out) >= count:
            return out[:count]


DIGEST_JOBS = 512


def digest(workload: str, seed: int) -> str:
    """sha256 over the first DIGEST_JOBS jobs of the stream; runs made
    with equal digests time identical inputs."""
    h = hashlib.sha256()
    for job in take(workload, seed, DIGEST_JOBS):
        h.update(job.describe().encode())
        h.update(b"\n")
    return h.hexdigest()


# ===================================================================
# Ground proofs for the refine workload
# ===================================================================

def build_g3_proof(fm, job: Job):
    """The G3 proof a refine job starts from, built bottom-up with
    fm.apply_rule.  Returns (frame, proof).

    ("chain", n): w0 R w1 R ... R wn with y in D(w0) and wn: p(y) on
    the left, wn: exists x. p(x) on the right.  n-1 g(0,2) steps add
    w0 R w2 ... w0 R wn, then id moves y to wn, exists_r and ax close.

    ("or_l", n, k): the same chain with wn: q1 | ... | qk on the left
    and w0: <>q1, ..., w0: <>qk on the right.  After the g(0,2) steps,
    or_l splits the disjunction and each branch closes by dia_r along
    w0 R wn and ax, so every relational step must climb into k
    branches.
    """
    frame = fm.frame_spec(**FRAMES[job.frame])
    calc = fm.CalculusSpec("G3", frame)
    kind, n = job.shape[0], job.shape[1]
    labels = [f"w{i}" for i in range(n + 1)]
    rel = ", ".join(f"{a}R{b}" for a, b in zip(labels, labels[1:]))
    end_label = labels[-1]
    tag = job.tag
    steps = [(fm.g_rule(0, 2),
              fm.RuleParams(chain_u=(labels[0],),
                            chain_v=(labels[0], labels[i - 1], labels[i])))
             for i in range(2, n + 1)]
    if kind == "chain":
        p = f"p{tag}"
        end = fm.parse_labeled(
            f"{rel}, y in D(w0), {end_label}: {p}(y) |- "
            f"{end_label}: exists x. {p}(x)")
        steps += [
            (fm.ID, fm.RuleParams(label="w0", target=end_label, variable="y")),
            (fm.EXISTS_R, fm.RuleParams(
                label=end_label, formula=fm.parse_formula(f"exists x. {p}(x)"),
                variable="y")),
        ]
        leaf = (fm.AX, fm.RuleParams(label=end_label,
                                     formula=fm.parse_formula(f"{p}(y)")))
        return frame, _stack(fm, calc, end, steps, lambda seq: _leaf(fm, seq, leaf))

    k = job.shape[2]
    atoms = [f"q{i}{tag}" for i in range(1, k + 1)]
    disj = " | ".join(atoms)
    rights = ", ".join(f"w0: <>{a}" for a in atoms)
    end = fm.parse_labeled(f"{rel}, {end_label}: {disj} |- {rights}")

    def split(seq, remaining):
        """or_l down a right-nested disjunction, one dia_r branch each."""
        if len(remaining) == 1:
            (atom,) = remaining
            params = fm.RuleParams(label="w0",
                                   formula=fm.parse_formula(f"<>{atom}"),
                                   target=end_label)
            (above,) = fm.apply_rule(calc, seq, fm.DIA_R, params)
            ax = fm.RuleParams(label=end_label, formula=fm.parse_formula(atom))
            return fm.ProofTree(seq, fm.DIA_R, params, (_leaf(fm, above, (fm.AX, ax)),))
        principal = fm.parse_formula(" | ".join(remaining))
        params = fm.RuleParams(label=end_label, formula=principal)
        lhs, rhs = fm.apply_rule(calc, seq, fm.OR_L, params)
        left_atoms = _disjuncts(fm, principal.left)
        right_atoms = _disjuncts(fm, principal.right)
        return fm.ProofTree(seq, fm.OR_L, params,
                            (split(lhs, left_atoms), split(rhs, right_atoms)))

    return frame, _stack(fm, calc, end, steps, lambda seq: split(seq, atoms))


def _disjuncts(fm, phi) -> list[str]:
    if isinstance(phi, fm.Or):
        return _disjuncts(fm, phi.left) + _disjuncts(fm, phi.right)
    return [fm.render_formula(phi)]


def _leaf(fm, seq, rule_params):
    rule, params = rule_params
    return fm.ProofTree(seq, rule, params, ())


def _stack(fm, calc, end, steps, top):
    """Apply single-premise steps bottom-up from end, close the last
    sequent with top(seq), and fold the chain into a ProofTree."""
    seqs = [end]
    for rule, params in steps:
        (nxt,) = fm.apply_rule(calc, seqs[-1], rule, params)
        seqs.append(nxt)
    tree = top(seqs[-1])
    for (rule, params), seq in zip(reversed(steps), reversed(seqs[:-1])):
        tree = fm.ProofTree(seq, rule, params, (tree,))
    return tree
