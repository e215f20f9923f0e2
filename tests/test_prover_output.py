"""The prover's output, pinned by a digest.

The digest covers the proof JSON and node count of every proof, and
the node count, reason and completeness of every Exhausted, on the
acceptance theorems (formula and sequent goals, over their frames and
over the bare frame), on a fixed list of non-theorems and on one search
cut by the node limit.  It is computed in fresh processes under two
string hash seeds and compared with the digest checked in next to this
file.  A change that alters any of these outputs on purpose rewrites
that file with

    PYTHONPATH=src python tests/test_prover_output.py > tests/prover_output.sha256
"""

import hashlib
import json
import os
import subprocess
import sys

import fomodal
from fomodal import (Proved, SearchBudget, frame_spec, parse_formula,
                     parse_nested, proof_to_json, prove_formula, prove_sequent)
from test_acceptance import THEOREMS

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_FILE = os.path.join(HERE, "prover_output.sha256")

# (formula, frame conditions): goals that are not valid over the frame
NON_THEOREMS = (
    ("p", {}),
    ("[]p -> p", {}),
    ("p -> []p", {}),
    ("<>p -> []p", {"paths": [(0, 2)]}),
    ("[]p -> [][]p", {"paths": [(0, 0)]}),
    ("<>true", {}),
    ("[]<>p", {"serial": True}),
    ("exists x. p(x)", {"nonempty": True}),
    ("<>(exists x. p(x)) -> (exists x. <>p(x))", {"inc": True}),
    ("[](p | q) -> ([]p | []q)", {"paths": [(1, 1)]}),
)


def _outcome(result) -> str:
    if isinstance(result, Proved):
        return json.dumps({"nodes": result.nodes,
                           "proof": proof_to_json(result.proof)},
                          sort_keys=True)
    return json.dumps({"nodes": result.nodes, "reason": result.reason,
                       "complete": result.complete}, sort_keys=True)


def output_lines():
    for formula_text, sequent_text, frame, _ in THEOREMS:
        for over in (frame, frame_spec()):
            phi = parse_formula(formula_text)
            yield _outcome(prove_formula(over, phi))
            if sequent_text is not None:
                yield _outcome(prove_sequent(over, parse_nested(sequent_text)))
    for formula_text, conditions in NON_THEOREMS:
        frame = frame_spec(**conditions)
        yield _outcome(prove_formula(frame, parse_formula(formula_text)))
    yield _outcome(prove_formula(frame_spec(serial=True),
                                 parse_formula("<><><><> ~false"),
                                 SearchBudget(max_nodes=5)))


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
         "import test_prover_output as t; print(t.digest())"],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return done.stdout.strip()


def test_prover_output_matches_the_checked_in_digest():
    with open(DIGEST_FILE) as f:
        pinned = f.read().strip()
    assert _digest_in_process("0") == pinned
    assert _digest_in_process("1") == pinned


if __name__ == "__main__":
    print(digest())
