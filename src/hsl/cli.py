"""Command-line front end.

    hsl antipode   --family graphs --object "G:n=2;E=0-1" --method both
    hsl primitives --family graphs --n 3
    hsl verify     --family simplicial --n 3
    hsl fock       --n 3

Every command supports --format json|text; JSON output is byte-identical
across runs.  --jobs is accepted and ignored: everything runs in one
process.  Exit codes: 0 success, 2 parse error, 3 element budget or
memory exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .antipode import (_primitives_by_indecomposable, antipode_axiom_check,
                       closed_form_antipode, declared_adjunctions,
                       reassembly_poset, takeuchi_antipode)
from .errors import CarrierOverflow, DEFAULT_BUDGET, EngineError, ParseError
from .families import FAMILIES, parse_label_count, parse_structure
from .posets import _positions
from .species import (check_set_partition_budget, check_subset_budget,
                      verify_axioms)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _budget_from(args) -> int:
    budget = args.budget
    if budget is None:
        env = os.environ.get("HSL_BUDGET")
        if env:
            try:
                budget = int(env)
            except ValueError:
                raise ParseError(f"HSL_BUDGET must be an integer, got {env!r}") from None
        else:
            budget = DEFAULT_BUDGET
    if budget <= 0:
        raise ParseError(f"element budget must be positive, got {budget}")
    return budget


def _check_n(args, least: int) -> None:
    if args.n < least:
        raise ParseError(f"--n must be at least {least}, got {args.n}")


def _family_from(args):
    fam = FAMILIES.get(args.family)
    if fam is None:
        raise ParseError(f"unknown family {args.family!r}; "
                         f"choose from {sorted(FAMILIES)}")
    return fam


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_antipode(args) -> int:
    budget = _budget_from(args)
    fam = _family_from(args)
    if not args.object.startswith(fam.unit.encode()[:2]):
        raise ParseError(f"object {args.object!r} is not a {fam.tag} encoding")
    # the Bell(n) check both methods make, from the header alone: a huge
    # label count exits 3 before any label set or structure is built
    check_set_partition_budget(parse_label_count(args.object), budget)
    x = parse_structure(args.object)
    # the library parser also reads other spellings of a structure (leading
    # zeros, spaces, repeated or unsorted parts); the CLI takes only the
    # canonical grammar, so that each structure has one spelling
    if x.encode() != args.object:
        raise ParseError(f"{args.object!r} is not canonical; write {x.encode()!r}")

    vectors = {}  # route -> its vector, in report order
    if args.method in ("takeuchi", "both"):
        vectors["takeuchi"] = takeuchi_antipode(fam, x, budget)
    if args.method in ("closed", "both"):
        closed = closed_form_antipode(fam, x, budget)
        # the first read of the lower row folds it with mu and the upper
        # row in one stream; `--method closed` reads the upper row alone
        lower = closed.literal_lower_vector if args.method == "both" else None
        vectors["closed-upper"] = closed.vector
        if lower is not None:
            vectors["closed-lower-paper-literal"] = lower

    results = [{"method": route, "vector": vec.to_json_dict()}
               for route, vec in vectors.items()]
    payload = {"family": fam.tag, "object": x.encode(), "results": results}
    lines = [f"antipode of {x.encode()} ({fam.tag})"]
    for entry in results:
        lines.append(f"  method {entry['method']}:")
        terms = entry["vector"]["terms"]
        if not terms:
            lines.append("    0")
        for enc, coeff in terms.items():
            lines.append(f"    {coeff:>6}  {enc}")
    agree = True
    if args.method == "both":
        agree = payload["agree"] = vectors["takeuchi"] == vectors["closed-upper"]
        lines.append(f"  agree: {str(agree).lower()}")
    _emit(args, payload, lines)
    return EXIT_OK if agree else EXIT_VERIFY


def cmd_primitives(args) -> int:
    _check_n(args, 0)
    budget = _budget_from(args)
    fam = _family_from(args)
    check_subset_budget(args.n, budget)
    labels = frozenset(range(args.n))
    adj = declared_adjunctions(fam, budget)[0]
    basis = _primitives_by_indecomposable(adj, labels)
    # every term lies in the order: each element is encoded once
    names = {x: x.encode() for x in adj.poset(labels).elems}
    payload = {
        "family": fam.tag,
        "n": args.n,
        "adjunction": adj.display,
        "dimension": len(basis),
        "indecomposables": [names[x] for x in basis],
        "vectors": [{"ambient": v.ambient_string(),
                     "terms": dict(sorted((names[y], str(c)) for y, c in v.terms.items()))}
                    for v in basis.values()],
    }
    lines = [f"primitives for {fam.tag} at n={args.n} "
             f"({adj.display}): dimension {len(basis)}"]
    for enc, v in zip(payload["indecomposables"], payload["vectors"]):
        lines.append(f"  {enc}")
        for y, c in v["terms"].items():
            lines.append(f"    {c:>6}  {y}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_n(args, 0)
    budget = _budget_from(args)
    fam = _family_from(args)

    report = verify_axioms(fam, args.n, budget)
    axioms_payload = {r.name: {"passed": r.passed, "witness": r.witness}
                      for r in report.results}
    verdicts = [("\n".join(report.lines()), report.passed, "axioms")]  # (text, passed, name)

    def verdict(label, passed, failure):
        verdicts.append((f"{label}: {'pass' if passed else 'FAIL'}", passed, failure))

    adj_payload = []
    for adj in declared_adjunctions(fam, budget):
        galois = adj.verify_all_splits(frozenset(range(args.n)))
        verdict(f"adjunction {adj.display}", galois.ok, f"adjunction {adj.kind}")
        # on a split the pairing is its Galois biconditional: the scan above and smaller sets
        duality = galois.ok and all(adj.verify_all_splits(range(k)).ok for k in range(args.n))
        verdict("  duality pairing", duality, f"duality {adj.kind}")
        adj_payload.append({"kind": adj.kind, "display": adj.display, "passed": galois.ok,
                            "reason": galois.reason, "duality": duality})
    poset_ok = _reassembly_poset_axioms(fam, args.n, budget)
    verdict("reassembly order is a poset", poset_ok, "reassembly poset")
    conv_ok, _ = antipode_axiom_check(fam, min(args.n, 3), budget=budget)
    verdict("antipode convolution identity", conv_ok, "convolution")

    failures = [name for _, passed, name in verdicts if not passed]
    payload = {"family": fam.tag, "n": args.n, "axioms": axioms_payload,
               "adjunctions": adj_payload, "reassembly_poset": poset_ok,
               "convolution": conv_ok, "passed": not failures}
    lines = [text for text, _, _ in verdicts]
    lines.append(f"FAILED: {', '.join(failures)}" if failures else "all checks passed")
    _emit(args, payload, lines)
    return EXIT_VERIFY if failures else EXIT_OK


def _reassembly_poset_axioms(fam, n: int, budget: int) -> bool:
    """Reflexive, antisymmetric and transitive, by bit tests on the order."""
    view = reassembly_poset(fam, frozenset(range(n)), budget)
    up, down = view.up, view.down
    for i, mask in enumerate(up):
        if not mask >> i & 1 or mask & down[i] != 1 << i:
            return False
        if any(up[k] & ~mask for k in _positions(mask)):
            return False
    return True


def cmd_fock(args) -> int:
    from .fock import partition_char_poly_check, power_sum_identity_check
    _check_n(args, 1)
    budget = _budget_from(args)
    power = power_sum_identity_check(args.n, budget)
    char = partition_char_poly_check(args.n, budget)
    payload = {
        "n": args.n,
        "power_sum": {
            "proportional": power.proportional,
            "scalar": str(power.scalar) if power.scalar is not None else None,
            "printed_expression": power.printed_expression_status,
            "image_monomial": power.image_monomial.to_json_dict(),
        },
        "char_poly": {
            "matching_conventions": [f"{side}/{name}" for side, name in char.matches],
            "falling_factorial": char.falling.to_json_dict(),
            "value_at_minus_one_ok": char.value_at_minus_one_ok,
        },
    }
    lines = power.lines() + char.lines()
    ok = power.proportional and char.ok
    payload["passed"] = ok
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsl",
        description="Exact computations with order-compatible merge/split "
                    "structures: antipodes, primitives, axiom sweeps, and "
                    "symmetric-function checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=True, n=False, obj=False, method=False):
        if family:
            p.add_argument("--family", required=True,
                           help="graphs | hypergraphs | simplicial | partitions")
        if obj:
            p.add_argument("--object", required=True,
                           help="canonical structure encoding")
        if n:
            p.add_argument("--n", type=int, required=True,
                           help="label-set size bound")
        if method:
            p.add_argument("--method", choices=("takeuchi", "closed", "both"),
                           default="both")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--budget", type=int, default=None,
                       help=f"element budget (default {DEFAULT_BUDGET}, "
                            f"env HSL_BUDGET)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored; everything runs in one "
                            "process")

    p_anti = sub.add_parser("antipode", help="antipode of one structure")
    common(p_anti, obj=True, method=True)
    p_anti.set_defaults(fn=cmd_antipode)

    p_prim = sub.add_parser("primitives", help="primitive basis at size n")
    common(p_prim, n=True)
    p_prim.set_defaults(fn=cmd_primitives)

    p_verify = sub.add_parser("verify", help="axiom/adjunction/duality sweep")
    common(p_verify, n=True)
    p_verify.set_defaults(fn=cmd_verify)

    p_fock = sub.add_parser("fock", help="symmetric-function checks")
    common(p_fock, family=False, n=True)
    p_fock.set_defaults(fn=cmd_fock)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CarrierOverflow as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except EngineError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
