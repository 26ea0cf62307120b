"""What each workload runs: seeded library samples, the fixed CLI corpus,
and the correctness rules that check every output.

Why these workloads (each stresses other layers of `hsl`):

- defining-sum: `takeuchi_antipode` one label above the acceptance sweeps.
  Its time goes to `species.reassemble` and the family merge/split maps,
  with almost no poset work.
- closed-form: `closed_form_antipode` plus the family formula where one
  exists.  Its time goes to `hsl.posets` (up-sets, intervals, Möbius
  values), grading/factorization, `encode` keys, the self-adjoint gate and
  `graph_flats`, reading one warm reassembly view many times.
- cli-corpus: fixed `hsl` commands, each a fresh process, so every
  command pays cold caches, as users do.  Its time goes to `hsl.symfunc`,
  native-order posets built cold, the axiom sweeps and the CLI itself.

Library workloads are also asked for the four `cli.*_s` metrics, so their
runs time a probe: the smallest command of each kind, cold.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

LIBRARY = {
    # family -> (labels, sample size)
    "defining-sum": {"partitions": (6, 10), "graphs": (5, 60),
                     "hypergraphs": (4, 40), "simplicial": (5, 20)},
    "closed-form": {"partitions": (6, 60), "graphs": (5, 60),
                    "hypergraphs": (4, 40), "simplicial": (4, 40)},
}

# Tiny samples for the benchmark's self-test.
TINY = {
    "defining-sum": {"partitions": (3, 2), "graphs": (3, 2),
                     "hypergraphs": (3, 2), "simplicial": (3, 2)},
    "closed-form": {"partitions": (3, 2), "graphs": (3, 2),
                    "hypergraphs": (3, 2), "simplicial": (3, 2)},
}

FAMILY_FORMULA = {"partitions": "closed_form_antipode_partitions",
                  "graphs": "closed_form_antipode_graphs",
                  "simplicial": "closed_form_antipode_sc"}

# command kind -> argv lists; every command also gets "--jobs 1".
CLI_CORPUS = {
    "antipode": [
        ["antipode", "--family", "partitions", "--object", "P:n=6;B=012345",
         "--method", "both"],
        ["antipode", "--family", "graphs", "--object",
         "G:n=5;E=0-1,0-2,1-2,1-3,2-4,3-4", "--method", "both"],
    ],
    "fock": [["fock", "--n", "6"]],
    "primitives": [
        ["primitives", "--family", "graphs", "--n", "4"],
        ["primitives", "--family", "simplicial", "--n", "3"],
    ],
    "verify": [
        ["verify", "--family", "graphs", "--n", "3"],
        ["verify", "--family", "simplicial", "--n", "3"],
        ["verify", "--family", "partitions", "--n", "4"],
    ],
}

# The smallest command of each kind: the cold probe that the library
# workloads time, and the corpus of the benchmark's self-test.
CLI_PROBE = {
    "antipode": [["antipode", "--family", "graphs", "--object",
                  "G:n=3;E=0-1,1-2", "--method", "both"]],
    "fock": [["fock", "--n", "3"]],
    "primitives": [["primitives", "--family", "graphs", "--n", "3"]],
    "verify": [["verify", "--family", "partitions", "--n", "3"]],
}

CLI_KINDS = ("antipode", "fock", "primitives", "verify")


def cli_commands(table: dict) -> list:
    """(kind, argv) in a fixed order, with the pinned worker count."""
    return [(kind, argv + ["--jobs", "1"])
            for kind in CLI_KINDS for argv in table[kind]]


def command_key(argv: list) -> str:
    return " ".join(argv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def vector_digest(vec) -> str:
    """Digest of a vector's canonical JSON form."""
    return sha256(json.dumps(vec.to_json_dict(), sort_keys=True))


# ---------------------------------------------------------------------------
# library samples and ops


def sample_inputs(hsl, workload: str, seed: int, spec: dict) -> list:
    """[(family tag, structure)]: a fixed stratified pick from each carrier,
    carried to other labels by one seeded permutation per family.

    Relabelling the whole pick by one bijection gives every seed other
    inputs with the same shapes, and the same sharing between them, so a
    seed changes what is computed but not how much: the spread between
    runs is the machine's and the program's, not the sample's."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for tag, (n, k) in spec.items():
        fam = hsl.FAMILIES[tag]
        labels = list(range(n))
        image = rng.sample(labels, n)
        carrier = fam.enumerate(frozenset(labels))
        out.extend((tag, fam.relabel(dict(zip(labels, image)), x))
                   for x in stratified_sample(carrier, k))
    return out


def stratified_sample(carrier, k: int) -> list:
    """k structures: the carrier's two extremes and the middle one of each
    of k - 2 equal slices of the rest.

    The carrier is ordered by (encoding length, encoding), which does not
    depend on how `hsl` enumerates it and tracks structure size.  So the
    pick holds small and large structures in the carrier's proportions,
    and the extremes, which cost the most or the least, are always in."""
    ordered = sorted(carrier, key=_size_then_encoding)
    if k >= len(ordered):
        return ordered
    rest = ordered[1:-1]
    picks = [ordered[0]]
    for i in range(k - 2):
        lo, hi = len(rest) * i // (k - 2), len(rest) * (i + 1) // (k - 2)
        picks.append(rest[(lo + hi) // 2])
    picks.append(ordered[-1])
    return picks


def _size_then_encoding(x) -> tuple:
    text = x.encode()
    return len(text), text


def input_digest(inputs: list) -> str:
    return sha256("\n".join(f"{tag} {x.encode()}" for tag, x in inputs))


def library_ops(workload: str, inputs: list) -> list:
    """[(op name, index into inputs)] in call order.

    The calls of one family and size sit next to each other in the input
    list.  The contended spells of a shared host last seconds, long enough
    to slow a whole stretch of neighbouring calls in every pass, so the
    call order spreads them over the pass: op j is the (j * stride)-th of
    the list, with the stride coprime to its length.  The order is the
    same in every pass and for every seed, so each call meets the same
    warm or cold caches each time."""
    ops = []
    for i, (tag, _) in enumerate(inputs):
        if workload == "defining-sum":
            ops.append(("takeuchi_antipode", i))
        else:
            ops.append(("closed_form_antipode", i))
            if tag in FAMILY_FORMULA:
                ops.append((FAMILY_FORMULA[tag], i))
    stride = max(1, round(len(ops) * 0.618))
    while math.gcd(stride, len(ops)) != 1:
        stride += 1
    return [ops[j * stride % len(ops)] for j in range(len(ops))]


def call_op(hsl, name: str, tag: str, x):
    """One library call, through the public `hsl` namespace."""
    fam = hsl.FAMILIES[tag]
    if name == "takeuchi_antipode":
        return hsl.takeuchi_antipode(fam, x, jobs=1)
    if name == "closed_form_antipode":
        return hsl.closed_form_antipode(fam, x).vector
    return getattr(hsl, name)(x)


def reference_digest(hsl, workload: str, tag: str, x) -> str | None:
    """The independent route each workload is checked against, computed
    outside the timed region; None where the check is a cross-check
    between two ops of the same pass."""
    fam = hsl.FAMILIES[tag]
    if workload == "defining-sum":
        if tag in FAMILY_FORMULA:
            return vector_digest(getattr(hsl, FAMILY_FORMULA[tag])(x))
        return vector_digest(hsl.closed_form_antipode(fam, x).vector)
    if tag in FAMILY_FORMULA:
        return None
    return vector_digest(hsl.takeuchi_antipode(fam, x, jobs=1))


def check_library(workload: str, ops: list, digests: list, refs: list) -> list:
    """One verdict per op.

    defining-sum: each result equals its reference.  closed-form: the
    generic closed form equals the family formula (both ops fail on a
    mismatch); for hypergraphs it equals the defining sum."""
    ok = [False] * len(ops)
    by_input: dict = {}
    for j, (_, i) in enumerate(ops):
        by_input.setdefault(i, []).append(j)
    for i, js in by_input.items():
        got = [digests[j] for j in js]
        if any(d is None for d in got):
            continue
        if refs[i] is not None:
            verdict = all(d == refs[i] for d in got)
        else:
            verdict = len(set(got)) == 1 and len(got) == 2
        for j in js:
            ok[j] = verdict
    return ok


# ---------------------------------------------------------------------------
# CLI outputs


def check_cli_output(argv: list, returncode: int, stdout: bytes,
                     golden: dict) -> bool:
    """Exit 0, `passed`/`agree` true where the command reports them, and
    stdout bytes equal to the committed golden digest."""
    if returncode != 0:
        return False
    expected = golden.get(command_key(argv))
    if expected is None or hashlib.sha256(stdout).hexdigest() != expected["sha256"]:
        return False
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    return payload.get("passed", True) is True and payload.get("agree", True) is True
