import importlib
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import hsl
import hsl.antipode as ap
import hsl.posets as posets
from hsl import cli
from hsl.antipode import (Adjunction, box_indecomposables, declared_adjunctions,
                          primitives_basis)
from hsl.errors import CarrierOverflow
from hsl.families import FAMILIES, PARTITIONS, free_vector_from_json, parse_structure
from hsl.posets import FinitePoset
from adjunction_oracle import duality_by_triples
from literal_oracle import transpose


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_antipode_both_agree(capsys):
    code, out, _ = run(capsys, "antipode", "--family", "graphs",
                       "--object", "G:n=2;E=0-1", "--method", "both",
                       "--jobs", "1")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    methods = [r["method"] for r in data["results"]]
    assert methods == ["takeuchi", "closed-upper", "closed-lower-paper-literal"]
    takeuchi = dict(data["results"][0]["vector"]["terms"])
    assert takeuchi == {"G:n=2;E=": "2", "G:n=2;E=0-1": "-1"}
    literal = dict(data["results"][2]["vector"]["terms"])
    assert literal == {"G:n=2;E=": "-2", "G:n=2;E=0-1": "-1"}


def test_antipode_takeuchi_partitions(capsys):
    code, out, _ = run(capsys, "antipode", "--family", "partitions",
                       "--object", "P:n=2;B=01", "--method", "takeuchi",
                       "--jobs", "1")
    assert code == 0
    data = json.loads(out)
    vec = free_vector_from_json(data["results"][0]["vector"])
    assert {x.encode(): str(c) for x, c in vec.items()} == {
        "P:n=2;B=01": "-1", "P:n=2;B=0|1": "2"}


def test_antipode_unit(capsys):
    code, out, _ = run(capsys, "antipode", "--family", "graphs",
                       "--object", "G:n=0;E=", "--method", "both", "--jobs", "1")
    assert code == 0
    data = json.loads(out)
    for entry in data["results"][:2]:
        assert entry["vector"]["terms"] == {"G:n=0;E=": "1"}
    assert data["agree"] is True


def test_antipode_disagreement_exits_verify(capsys, monkeypatch):
    # a closed form whose upper vector is twice the true one: the two
    # routes disagree, and `both` reports it and exits 4
    real = cli.closed_form_antipode

    def doubled(fam, x, budget):
        closed = real(fam, x, budget)
        return ap.ClosedFormAntipode(closed.family, closed.labels,
                                     {y: 2 * c for y, c in closed.upper.items()},
                                     closed.lower)

    monkeypatch.setattr(cli, "closed_form_antipode", doubled)
    args = ("antipode", "--family", "graphs", "--object", "G:n=2;E=0-1",
            "--method", "both", "--jobs", "1")
    code, out, err = run(capsys, *args)
    assert (code, err) == (4, "")
    data = json.loads(out)
    assert data["agree"] is False
    assert data["results"][1]["vector"]["terms"] == {"G:n=2;E=": "4", "G:n=2;E=0-1": "-2"}
    code, out, err = run(capsys, *args, "--format", "text")
    assert (code, err) == (4, "")
    assert out.endswith("  agree: false\n")


def test_primitives_text_matches_the_object_rendering(capsys):
    # the text view reads the JSON payload, whose vectors are read by
    # position off one encoding per element; this is the rendering from
    # the vectors and structures themselves
    for fam in FAMILIES.values():
        adj = declared_adjunctions(fam)[0]
        for n in range(4):
            labels = frozenset(range(n))
            vectors = primitives_basis(adj, labels)
            lines = [f"primitives for {fam.tag} at n={n} "
                     f"({adj.display}): dimension {len(vectors)}"]
            for x, v in zip(box_indecomposables(adj, labels), vectors):
                lines.append(f"  {x.encode()}")
                for y, c in v.items():
                    lines.append(f"    {str(c):>6}  {y.encode()}")
            code, out, _ = run(capsys, "primitives", "--family", fam.tag,
                               "--n", str(n), "--format", "text", "--jobs", "1")
            assert code == 0
            assert out == "".join(line + "\n" for line in lines)
            code, out, _ = run(capsys, "primitives", "--family", fam.tag,
                               "--n", str(n), "--jobs", "1")
            assert code == 0
            assert json.loads(out)["vectors"] == [v.to_json_dict() for v in vectors]


def test_primitives_sweeps_the_indecomposables_once(capsys, monkeypatch):
    # the names and the vectors of `hsl primitives` come from one sweep of
    # the splits' boxes; the sweep is counted in `hsl.antipode` and under
    # its name in `hsl.cli`, wherever the command reaches it
    sweeps = []

    def counted(adj, labels, sweep=ap.box_indecomposables):
        sweeps.append((adj.family.tag, frozenset(labels)))
        return sweep(adj, labels)

    monkeypatch.setattr(ap, "box_indecomposables", counted)
    monkeypatch.setattr(cli, "box_indecomposables", counted, raising=False)
    for tag in ("graphs", "partitions"):
        sweeps.clear()
        code, _, _ = run(capsys, "primitives", "--family", tag, "--n", "3", "--jobs", "1")
        assert code == 0 and sweeps == [(tag, frozenset(range(3)))], sweeps


def test_fock_reads_rows_not_mobius_values(capsys, monkeypatch):
    # both fock checks read one Möbius row of the partition order and one
    # of its opposite; `mobius` is counted under its name in every loaded
    # `hsl` module that holds it
    import hsl.fock  # noqa: F401  (loaded first, so its names are counted too)
    calls = []
    mobius = posets.mobius

    def counted(p, x, y):
        calls.append((x, y))
        return mobius(p, x, y)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hsl" and getattr(module, "mobius", None) is mobius:
            monkeypatch.setattr(module, "mobius", counted)
    code, _, _ = run(capsys, "fock", "--n", "4", "--jobs", "1")
    assert code == 0 and calls == []


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "antipode", "--family", "graphs",
                       "--object", "G:n=2;E=5-7", "--jobs", "1")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "antipode", "--family", "partitions",
                       "--object", "G:n=2;E=", "--jobs", "1")
    assert code == 2
    code, _, err = run(capsys, "antipode", "--family", "nosuch",
                       "--object", "G:n=2;E=", "--jobs", "1")
    assert code == 2
    # the parser leaves arity and block rules to the constructors and
    # re-raises their LabelMismatch: blocks that cover the labels but
    # overlap got past the old partition parser and exited 4
    for family, text in (("graphs", "G:n=2;E=0-0"), ("hypergraphs", "H:n=2;E={0}"),
                         ("partitions", "P:n=2;B=0|0"), ("partitions", "P:n=2;B=01|0")):
        code, out, err = run(capsys, "antipode", "--family", family,
                             "--object", text, "--jobs", "1")
        assert code == 2 and err.startswith("parse error") and not out, (text, err)


def test_budget_exit_code(capsys):
    # Bell(5) = 52 set partitions exceed a budget of 50
    code, _, err = run(capsys, "antipode", "--family", "partitions",
                       "--object", "P:n=5;B=01234", "--budget", "50",
                       "--jobs", "1")
    assert code == 3 and "budget exceeded" in err


def test_memory_exhaustion_exits_budget_without_a_traceback(capsys, monkeypatch):
    # a command that runs out of memory exits 3 with one stderr line, as
    # an element budget does, and prints nothing
    def exhausted(args):
        raise MemoryError
    monkeypatch.setattr(cli, "cmd_primitives", exhausted)
    code, out, err = run(capsys, "primitives", "--family", "hypergraphs", "--n", "4",
                         "--jobs", "1")
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: out of memory") and err.count("\n") == 1, err


def test_closed_form_callers_fold_the_rows_they_read(capsys, monkeypatch):
    # the closed form's pass checks the gate and reads the images once per
    # call, and folds the rows its caller reads: the upper row for the
    # vector and `--method closed`, mu for the inverted check; `--method
    # both` folds all three in one stream, and a later read folds nothing
    calls = []  # the name of each gate check and image pass, the rows of each fold

    def counted(name, real):
        def call(*args):
            calls.append(sorted(args[-1]) if name == "_fold_rows" else name)
            return real(*args)
        return call
    for name in ("require_self_adjoint", "_reassembly_images", "_fold_rows"):
        monkeypatch.setattr(ap, name, counted(name, getattr(ap, name)))
    x = parse_structure("P:n=4;B=0123")
    gate, images = "require_self_adjoint", "_reassembly_images"
    closed = ap.closed_form_antipode(PARTITIONS, x)
    assert calls == [gate, images]
    closed.vector, closed.upper
    assert calls == [gate, images, ["upper"]]
    closed.literal_lower_vector, closed.lower, closed.vector
    assert calls == [gate, images, ["upper"], ["lower", "mu"]]
    del calls[:]
    ap.antipode_on_inverted_check(PARTITIONS, x)
    assert calls == [gate, images, ["mu"]]
    for method, rows in (("closed", ["upper"]), ("both", ["lower", "mu", "upper"])):
        del calls[:]
        code, out, _ = run(capsys, "antipode", "--family", "partitions", "--object",
                           x.encode(), "--method", method, "--jobs", "1")
        assert code == 0 and calls == [gate, images, rows], method
    assert json.loads(out)["agree"] is True


def test_antipode_budget_counts_set_partitions(capsys):
    # both methods run on the Bell(8) = 4,140 set partitions, under the
    # default budget; the Fubini(8) = 545,835 ordered ones never run
    code, out, _ = run(capsys, "antipode", "--family", "partitions",
                       "--object", "P:n=8;B=01234567", "--method", "both",
                       "--jobs", "1")
    assert code == 0 and json.loads(out)["agree"] is True


def test_n_below_the_command_minimum_is_a_parse_error(capsys):
    for argv in (("verify", "--family", "graphs", "--n", "-1"),
                 ("primitives", "--family", "graphs", "--n", "-1"),
                 ("fock", "--n", "0"), ("fock", "--n", "-1")):
        code, out, err = run(capsys, *argv, "--jobs", "1")
        assert code == 2 and "parse error" in err and not out, argv


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_label_count_exits_budget_without_enumerating(capsys):
    # the budget is checked by a capped count, so neither route recurses
    # Fubini(2000) deep nor sweeps the 2^2000 subsets
    for method in ("takeuchi", "closed", "both"):
        start = time.monotonic()
        code, out, err = run(capsys, "antipode", "--family", "graphs",
                             "--object", "G:n=2000;E=", "--method", method,
                             "--jobs", "1")
        assert code == 3 and "budget exceeded" in err and not out
        assert time.monotonic() - start < 10
    # the count comes from the header, before a label set or an edge's int
    # is built, so a million labels fit in 1 GiB of address space
    src = os.path.dirname(os.path.dirname(hsl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for family, text in (("graphs", "G:n=1000000;E=0-999999"),
                         ("hypergraphs", "H:n=1000000;E={0,999999}")):
        for method in ("takeuchi", "closed", "both"):
            proc = subprocess.run(
                [sys.executable, "-m", "hsl.cli", "antipode", "--family", family,
                 "--object", text, "--method", method, "--jobs", "1"],
                capture_output=True, text=True, env=env, timeout=10,
                preexec_fn=_cap_address_space)
            assert proc.returncode == 3 and not proc.stdout, (text, method, proc.stderr)
    # the library parser builds the labels, and the width guard stops the
    # edge's int: the pair {0, 399} sits at bit 79401, past 2^16
    with pytest.raises(CarrierOverflow):
        parse_structure("G:n=400;E=0-399")


def test_non_canonical_object_is_a_parse_error(capsys):
    for family, text in (("graphs", "G:n=02;E="), ("graphs", "G:n=2;E=0-1,0-1"),
                         ("graphs", "G:n=2;E= 0-1"),
                         ("partitions", "P:n=3;B=2|01")):
        code, out, err = run(capsys, "antipode", "--family", family,
                             "--object", text, "--jobs", "1")
        assert code == 2 and "not canonical" in err and not out, text


def test_primitives_counts_splits_before_enumerating():
    # 2^30 splits exceed the budget; the sweep must not build them first
    src = os.path.dirname(os.path.dirname(hsl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for family in ("graphs", "partitions"):
        proc = subprocess.run(
            [sys.executable, "-m", "hsl.cli", "primitives", "--family", family,
             "--n", "30", "--jobs", "1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3 and "budget exceeded" in proc.stderr


def test_verify_counts_relabelings_before_sweeping():
    # the naturality sweeps would check about 73 million relabelled cases
    # on partitions of 7 labels (and 370 thousand on graphs of 5); the
    # count comes first, so the command exits 3 instead of running them
    src = os.path.dirname(os.path.dirname(hsl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for family, n in (("partitions", "7"), ("graphs", "5")):
        proc = subprocess.run(
            [sys.executable, "-m", "hsl.cli", "verify", "--family", family,
             "--n", n, "--jobs", "1"],
            capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 3 and "naturality sweep" in proc.stderr


def test_fock_checks_degree_before_building_the_order():
    # Bell(9) and Bell(10) are under the default budget, but the partition
    # orders on 9 and 10 labels have 1,606,137 and 16,733,779 comparable
    # pairs (OEIS A000258); that count comes before the order is compiled,
    # so the command exits 3 at once
    src = os.path.dirname(os.path.dirname(hsl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for n in ("9", "10"):
        proc = subprocess.run(
            [sys.executable, "-m", "hsl.cli", "fock", "--n", n, "--jobs", "1"],
            capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 3 and not proc.stdout
        assert "budget exceeded" in proc.stderr


def _poset_axioms_literal(view):
    for x in view.elems:
        ups = view.upset(x)
        if x not in ups:
            return False
        for y in ups:
            if view.leq(y, x) and y != x:
                return False
            for z in view.upset(y):
                if not view.leq(x, z):
                    return False
    return True


# every name `hsl` exports, by the module that defines it
_EXPORTS = {
    "errors": ["AmbientMismatch", "CarrierOverflow", "DEFAULT_BUDGET",
               "EngineError", "LabelMismatch", "LabelOverlap",
               "NonUniqueFactorization", "NotAFlat", "NotComparable",
               "NotSelfAdjoint", "ParseError"],
    "posets": ["FinitePoset", "IntPolynomial", "check_galois", "interval",
               "mobius", "rota_transfer_check"],
    "species": ["Family", "bell", "fubini", "verify_axioms"],
    "vectors": ["FreeVector", "TensorVector", "inverted_basis",
                "product_of_inverted_check", "tensor"],
    "families": ["FAMILIES", "GRAPHS", "HYPERGRAPHS", "PARTITIONS", "SIMPLICIAL",
                 "Graph", "Hypergraph", "SetPartition", "SimplicialComplex",
                 "acyclic_orientation_count", "chromatic_polynomial",
                 "closed_form_antipode_graphs", "closed_form_antipode_partitions",
                 "closed_form_antipode_sc", "contract", "graph_flats",
                 "graph_free_product", "hypergraph_free_product",
                 "parse_structure", "sc_gamma_of_flat", "sc_one_skeleton"],
    "antipode": ["Adjunction", "antipode_axiom_check", "antipode_on_inverted_check",
                 "box_indecomposables", "closed_form_antipode",
                 "declared_adjunctions", "primitives_basis", "reassembly_poset",
                 "reassembly_upset", "takeuchi_antipode"],
    "fock": ["OrbitClass", "fock_coproduct", "fock_primitive_check",
             "orbit_canonicalize", "partition_char_poly_check",
             "power_sum_identity_check", "symfunc_bridge"],
    "symfunc": ["SymFunc", "newton_p_in_h"],
}


def test_cold_import_loads_only_what_commands_share():
    # a fresh interpreter: the modules `import hsl.cli` adds must not
    # include dataclasses (which pulls in inspect, ast, dis and tokenize)
    # or the symmetric-function modules, which only `hsl fock` reads;
    # comparing against the modules loaded before the import keeps this
    # valid where `site` preloads some of them
    src = os.path.dirname(os.path.dirname(hsl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import hsl.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert "hsl.cli" in new
    assert not new & {"dataclasses", "inspect", "hsl.fock", "hsl.symfunc"}
    # every exported name still resolves, to the object its module defines
    for module, names in _EXPORTS.items():
        defined = importlib.import_module(f"hsl.{module}")
        for name in names:
            assert getattr(hsl, name) is getattr(defined, name), name
    with pytest.raises(AttributeError):
        hsl.no_such_name


def test_reassembly_poset_axioms_read_bits(monkeypatch):
    # the bit tests give the verdict of the literal loop over up-sets, on
    # an order and on relations that break one axiom each
    relations = {"chain": [0b111, 0b110, 0b100],
                 "not reflexive": [0b110, 0b110, 0b100],
                 "not antisymmetric": [0b011, 0b011, 0b100],
                 "not transitive": [0b011, 0b110, 0b100]}
    for name, up in relations.items():
        view = FinitePoset("abc", up, transpose(up))
        monkeypatch.setattr(cli, "reassembly_poset", lambda *args, v=view: v)
        verdict = cli._reassembly_poset_axioms(None, 3, 1)
        assert verdict == _poset_axioms_literal(view) == (name == "chain"), name


def test_budget_must_be_positive(capsys):
    code, _, err = run(capsys, "antipode", "--family", "graphs",
                       "--object", "G:n=1;E=", "--budget", "0", "--jobs", "1")
    assert code == 2 and "positive" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HSL_BUDGET", "50")
    code, _, _ = run(capsys, "antipode", "--family", "partitions",
                     "--object", "P:n=5;B=01234", "--jobs", "1")
    assert code == 3
    monkeypatch.setenv("HSL_BUDGET", "not-a-number")
    code, _, err = run(capsys, "antipode", "--family", "partitions",
                       "--object", "P:n=2;B=01", "--jobs", "1")
    assert code == 2


def test_verify_pass_and_failure_paths(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--family", "hypergraphs", "--n", "2",
                       "--jobs", "1")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(entry["passed"] for entry in data["adjunctions"])

    from hsl.species import AxiomReport, AxiomResult

    def broken_axioms(fam, n, budget):
        report = AxiomReport(fam.tag, n)
        report.results.append(AxiomResult("associativity", False, "witness"))
        return report

    monkeypatch.setattr(cli, "verify_axioms", broken_axioms)
    code, out, _ = run(capsys, "verify", "--family", "graphs", "--n", "2",
                       "--jobs", "1")
    assert code == 4
    assert json.loads(out)["passed"] is False


def test_verify_simplicial_reports_merge_split_adjunction(capsys):
    code, out, _ = run(capsys, "verify", "--family", "simplicial", "--n", "2",
                       "--format", "text", "--jobs", "1")
    assert code == 0
    assert "merge -| split" in out


def _duality_flags(capsys, family, n):
    code, out, _ = run(capsys, "verify", "--family", family, "--n", str(n), "--jobs", "1")
    return code, {entry["kind"]: entry["duality"] for entry in json.loads(out)["adjunctions"]}


def test_verify_duality_flag_is_the_full_pairing(capsys, monkeypatch):
    # cmd_verify reads the pairing on n labels off the Galois sweep of the
    # same splits; the flag must equal the pairing checked on every size
    for fam in FAMILIES.values():
        for n in range(4):
            _, flags = _duality_flags(capsys, fam.tag, n)
            assert flags == {adj.kind: duality_by_triples(fam, adj.poset, adj.box, n)[0]
                             for adj in declared_adjunctions(fam)}, (fam.tag, n)
    # a failing pairing: the native order with the merge for graphs
    monkeypatch.setattr(Adjunction, "box", lambda self, x, y: self.family.mult(x, y))
    adj = Adjunction(FAMILIES["graphs"], "delta_box")
    verdicts = []
    for n in range(4):
        code, flags = _duality_flags(capsys, "graphs", n)
        expected = duality_by_triples(adj.family, adj.poset, adj.box, n)[0]
        assert flags["delta_box"] is expected
        assert code == (0 if expected else 4)
        verdicts.append(expected)
    assert verdicts == [True, True, False, False]


def test_primitives_on_a_failing_adjunction_exits_verify(capsys, monkeypatch):
    # the native order of graphs with the merge for its box fails the
    # Galois check on two labels: no basis is printed, and main reports
    # the EngineError on stderr
    monkeypatch.setattr(Adjunction, "box", lambda self, x, y: self.family.mult(x, y))
    code, out, err = run(capsys, "primitives", "--family", "graphs", "--n", "2",
                         "--jobs", "1")
    assert (code, out) == (4, "")
    assert err.startswith("verification failure: adjunction fails on [0, 1]")


def test_primitives_command(capsys):
    code, out, _ = run(capsys, "primitives", "--family", "graphs", "--n", "3",
                       "--jobs", "1")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 4
    assert len(data["vectors"]) == 4
    code, out, _ = run(capsys, "primitives", "--family", "partitions", "--n", "3",
                       "--jobs", "1")
    assert json.loads(out)["dimension"] == 1


def test_fock_command(capsys):
    code, out, _ = run(capsys, "fock", "--n", "3", "--jobs", "1")
    assert code == 0
    data = json.loads(out)
    assert data["power_sum"]["scalar"] == "2"
    assert data["power_sum"]["printed_expression"] == "neither"
    assert "upper/blocks" in data["char_poly"]["matching_conventions"]
    assert data["passed"] is True


def test_json_output_is_deterministic(capsys):
    args = ("antipode", "--family", "graphs", "--object",
            "G:n=3;E=0-1,0-2,1-2", "--method", "both", "--jobs", "1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_jobs_do_not_change_output(capsys):
    args = ("antipode", "--family", "partitions", "--object", "P:n=3;B=012",
            "--method", "takeuchi")
    _, serial, _ = run(capsys, *(args + ("--jobs", "1")))
    _, parallel, _ = run(capsys, *(args + ("--jobs", "2")))
    assert serial == parallel


def test_text_format(capsys):
    code, out, _ = run(capsys, "antipode", "--family", "graphs",
                       "--object", "G:n=2;E=0-1", "--method", "takeuchi",
                       "--format", "text", "--jobs", "1")
    assert code == 0
    assert "method takeuchi" in out
    assert "G:n=2;E=" in out


def test_free_vector_json_round_trip_through_cli(capsys):
    code, out, _ = run(capsys, "antipode", "--family", "simplicial",
                       "--object", "S:n=2;F=0,1", "--method", "closed",
                       "--jobs", "1")
    assert code == 0
    data = json.loads(out)
    vec = free_vector_from_json(data["results"][0]["vector"])
    assert json.dumps(vec.to_json_dict(), sort_keys=True) == json.dumps(
        data["results"][0]["vector"], sort_keys=True)
