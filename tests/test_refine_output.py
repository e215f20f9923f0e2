"""The output of refine_proof, pinned by a digest.

The digest covers the op, detail and proof JSON of every step and the
JSON of the final proof, for the elimination walkthrough and a seeded
family of ground G3 proofs: g(0,2) chains closed by id steps, or_l
branches that every relational step must climb into, dd chains over
decreasing domains, and nd instances that fuse with the existential
instantiation using their variable into s_ex2.  It is computed in fresh
processes under two string hash seeds and compared with the digest
checked in next to this file.  A change that alters any of these
outputs on purpose rewrites that file with

    PYTHONPATH=src python tests/test_refine_output.py > tests/refine_output.sha256
"""

import hashlib
import json
import os
import random
import subprocess
import sys

import fomodal
from fomodal import (AX, DD, DIA_R, EXISTS_R, ID, ND, NEG_R, OR_L, OR_R,
                     CalculusSpec, Dia, Or, ProofTree, RuleParams, apply_rule,
                     frame_spec, g_rule, parse_formula, parse_labeled,
                     proof_to_json, refine_proof, render_formula)
from fixtures import EX_FRAME, elimination_initial

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_FILE = os.path.join(HERE, "refine_output.sha256")


def _stack(calc, end, steps, top):
    """Apply one-premise steps bottom-up from end, close the last
    sequent with top(seq), and fold the chain into a ProofTree."""
    seqs = [end]
    for rule, params in steps:
        (nxt,) = apply_rule(calc, seqs[-1], rule, params)
        seqs.append(nxt)
    tree = top(seqs[-1])
    for (rule, params), seq in zip(reversed(steps), reversed(seqs[:-1])):
        tree = ProofTree(seq, rule, params, (tree,))
    return tree


def _ax(label, atom):
    params = RuleParams(label=label, formula=parse_formula(atom))
    return lambda seq: ProofTree(seq, AX, params, ())


def _chain_labels(n):
    labels = [f"w{i}" for i in range(n + 1)]
    return labels, ", ".join(f"{a}R{b}" for a, b in zip(labels, labels[1:]))


def _g_steps(labels, upto):
    """g(0,2) steps adding w0 R w2, ..., w0 R w<upto>."""
    return [(g_rule(0, 2), RuleParams(chain_u=(labels[0],),
                                      chain_v=(labels[0], labels[i - 1],
                                               labels[i])))
            for i in range(2, upto + 1)]


def g_chain(rng, tag):
    """y in D(w0) moves to the end of a chain: g(0,2) steps up to w<m>,
    id to w<m>, then id along the chain to w<n>."""
    n = rng.randint(2, 6)
    m = rng.randint(2, n)
    frame = frame_spec(paths=[(0, 2)], inc=True)
    labels, rel = _chain_labels(n)
    p, end_label = f"p{tag}", labels[-1]
    end = parse_labeled(f"{rel}, y in D(w0), {end_label}: {p}(y) |- "
                        f"{end_label}: exists x. {p}(x)")
    steps = _g_steps(labels, m)
    steps.append((ID, RuleParams(label="w0", target=labels[m], variable="y")))
    steps += [(ID, RuleParams(label=labels[i - 1], target=labels[i],
                              variable="y")) for i in range(m + 1, n + 1)]
    steps.append((EXISTS_R, RuleParams(
        label=end_label, formula=parse_formula(f"exists x. {p}(x)"),
        variable="y")))
    return frame, _stack(CalculusSpec("G3", frame), end, steps,
                         _ax(end_label, f"{p}(y)"))


def or_l_branches(rng, tag):
    """A k-way disjunction at the end of a chain, split by or_l above
    the g(0,2) steps; each branch closes by dia_r along w0 R w<n>."""
    n, k = rng.randint(2, 4), rng.randint(2, 4)
    frame = frame_spec(paths=[(0, 2)])
    calc = CalculusSpec("G3", frame)
    labels, rel = _chain_labels(n)
    end_label = labels[-1]
    atoms = [f"q{i}x{tag}" for i in range(1, k + 1)]
    disjunction = " | ".join(atoms)
    rights = ", ".join(f"w0: <>{a}" for a in atoms)
    end = parse_labeled(f"{rel}, {end_label}: {disjunction} |- {rights}")

    def split(seq, phi):
        if isinstance(phi, Or):
            params = RuleParams(label=end_label, formula=phi)
            lhs, rhs = apply_rule(calc, seq, OR_L, params)
            return ProofTree(seq, OR_L, params, (split(lhs, phi.left),
                                                 split(rhs, phi.right)))
        params = RuleParams(label="w0", formula=Dia(phi), target=end_label)
        (above,) = apply_rule(calc, seq, DIA_R, params)
        return ProofTree(seq, DIA_R, params,
                         (_ax(end_label, render_formula(phi))(above),))

    return frame, _stack(calc, end, _g_steps(labels, n),
                         lambda seq: split(seq, parse_formula(disjunction)))


def dd_chain(rng, tag):
    """y in D(w<n>) moves down to w0, by dd along the chain or by
    g(0,2) steps and one dd."""
    n = rng.randint(1, 5)
    direct = n >= 2 and rng.random() < 0.5
    frame = frame_spec(paths=[(0, 2)], dec=True)
    labels, rel = _chain_labels(n)
    p = f"r{tag}"
    end = parse_labeled(f"{rel}, y in D({labels[-1]}), w0: {p}(y) |- "
                        f"w0: exists x. {p}(x)")
    if direct:
        steps = _g_steps(labels, n)
        steps.append((DD, RuleParams(label="w0", target=labels[-1],
                                     variable="y")))
    else:
        steps = [(DD, RuleParams(label=labels[i - 1], target=labels[i],
                                 variable="y")) for i in range(n, 0, -1)]
    steps.append((EXISTS_R, RuleParams(
        label="w0", formula=parse_formula(f"exists x. {p}(x)"),
        variable="y")))
    return frame, _stack(CalculusSpec("G3", frame), end, steps,
                         _ax("w0", f"{p}(y)"))


def nd_fused(rng, tag):
    """exists x. (s(x) | ~s(x)) over nonempty domains: nd creates y,
    above or below an or_r on a side disjunction, and, over increasing
    domains, id carries y up one edge before exists_r uses it."""
    inc = rng.random() < 0.5
    padded = rng.random() < 0.5
    frame = frame_spec(inc=inc, nonempty=True)
    s = f"s{tag}"
    body = f"exists x. ({s}(x) | ~{s}(x))"
    at = "w1" if inc else "w0"
    goal = f"({body}) | t{tag}" if padded else body
    end = parse_labeled(f"{'w0Rw1, ' if inc else ''}|- {at}: {goal}")
    steps = [(ND, RuleParams(label="w0", variable="y"))]
    if padded:
        steps.insert(rng.randint(0, 1),
                     (OR_R, RuleParams(label=at, formula=parse_formula(goal))))
    if inc:
        steps.append((ID, RuleParams(label="w0", target="w1", variable="y")))
    steps += [
        (EXISTS_R, RuleParams(label=at, formula=parse_formula(body),
                              variable="y")),
        (OR_R, RuleParams(label=at, formula=parse_formula(
            f"{s}(y) | ~{s}(y)"))),
        (NEG_R, RuleParams(label=at, formula=parse_formula(f"~{s}(y)"))),
    ]
    return frame, _stack(CalculusSpec("G3", frame), end, steps,
                         _ax(at, f"{s}(y)"))


FAMILY = (g_chain, or_l_branches, dd_chain, nd_fused)


def jobs(seed=11, count=64):
    """(frame, proof) for the walkthrough, then count seeded proofs."""
    yield EX_FRAME, elimination_initial()
    rng = random.Random(seed)
    for i in range(count):
        yield FAMILY[i % len(FAMILY)](rng, i)


def output_lines():
    for frame, proof in jobs():
        result = refine_proof(frame, proof)
        for step in result.steps:
            yield json.dumps([step.op, step.detail, proof_to_json(step.proof)],
                             sort_keys=True)
        yield json.dumps(proof_to_json(result.proof), sort_keys=True)


def digest() -> str:
    h = hashlib.sha256()
    for line in output_lines():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _digest_in_process(hash_seed: str) -> str:
    src = os.path.dirname(os.path.dirname(fomodal.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([src, HERE]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import test_refine_output as t; print(t.digest())"],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return done.stdout.strip()


def test_the_family_uses_every_relational_rule_and_fuses():
    ops = set()
    for frame, proof in jobs():
        for step in refine_proof(frame, proof).steps:
            ops.add(step.detail.split(" above ")[0].split(" below ")[0])
    for wanted in ("swap g(0,2)", "swap id", "swap dd", "swap nd",
                   "absorb g(0,2)", "absorb id", "absorb dd",
                   "fuse nd with s_ex1 into s_ex2"):
        assert wanted in ops, wanted


def test_refine_output_matches_the_checked_in_digest():
    with open(DIGEST_FILE) as f:
        pinned = f.read().strip()
    assert _digest_in_process("0") == pinned
    assert _digest_in_process("1") == pinned


if __name__ == "__main__":
    print(digest())
