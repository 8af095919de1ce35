import json
import random
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner
from jsonschema import validate

from kcanon import oracle, signatures, solver
from kcanon.cli import main
from kcanon.graph import Graph, relabel, to_edge_list, to_json
from kcanon.signatures import CanonicalLabeling, Fingerprint, fingerprint

from conftest import (
    ROOK_4X4,
    SHRIKHANDE,
    complete,
    complete_bipartite,
    cycle,
    path,
    prism,
    random_cubic,
    random_permutation,
    shuffled_copy,
    star,
    unit_graph,
)


PETERSEN = unit_graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def schema(name):
    text = resources.files("kcanon.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def write(tmp_path):
    counter = [0]

    def _write(graph_or_text, as_json=False):
        counter[0] += 1
        p = tmp_path / f"g{counter[0]}.txt"
        if isinstance(graph_or_text, str):
            p.write_text(graph_or_text)
        else:
            p.write_text(to_json(graph_or_text) if as_json else to_edge_list(graph_or_text))
        return str(p)

    return _write


def run_json(runner, args):
    result = runner.invoke(main, args + ["--format", "json"])
    return result, json.loads(result.output) if result.output.startswith("{") else None


class TestVoltages:
    def test_p2(self, runner, write):
        result, doc = run_json(runner, ["voltages", write(path(2)), "1", "2"])
        assert result.exit_code == 0
        validate(doc, schema("voltages"))
        assert float(doc["effective_resistance"]) == pytest.approx(1.0)
        assert [float(x) for x in doc["voltages"]] == pytest.approx([0.5, -0.5])

    def test_k3_resistance(self, runner, write):
        result, doc = run_json(runner, ["voltages", write(complete(3)), "1", "2"])
        assert float(doc["effective_resistance"]) == pytest.approx(2 / 3)

    def test_same_source_sink_exit_2(self, runner, write):
        result = runner.invoke(main, ["voltages", write(path(2)), "1", "1"])
        assert result.exit_code == 2
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "SameSourceSink"

    def test_node_outside_exit_2(self, runner, write):
        result = runner.invoke(main, ["voltages", write(path(2)), "0", "2"])
        assert result.exit_code == 2
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "SameSourceSink"

    @pytest.mark.parametrize("weight, error", [
        ("inf", "NonFiniteWeight"), ("0", "NonPositiveWeight"), ("nan", "NonPositiveWeight"),
    ])
    def test_invalid_sink_weight_exit_2(self, runner, write, weight, error):
        args = ["voltages", write(complete(3)), "1", "2", "--method", "universal-sink",
                "--sink-weight", weight, "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == error

    def test_parse_failure_exit_2(self, runner, write):
        result = runner.invoke(main, ["voltages", write("1 2\n3 4"), "1", "2"])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"] == "Disconnected"

    def test_huge_node_id_exit_2(self, runner, write):
        result = runner.invoke(main, ["voltages", write("1 2\n2 1000000000"), "1", "2"])
        assert result.exit_code == 2
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "Disconnected"
        assert err["message"].endswith(" and 999999987 more isolated nodes")

    def test_infinite_weight_exit_2(self, runner, write):
        result = runner.invoke(main, ["voltages", write("1 2 inf\n2 3"), "1", "3"])
        assert result.exit_code == 2
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "NonFiniteWeight"

    def test_singular_system_exit_3(self, runner, write):
        # Node 5 hangs on a 1e-17 edge: the grounded solve succeeds, but the
        # sum-zero gauge shift by ~1e16 leaves a KCL residual near 1.
        text = "4 6 1\n5 6 1e-17\n2 4 1\n3 6 1\n1 6 1\n"
        result = runner.invoke(main, ["voltages", write(text), "5", "3", "--format", "json"])
        assert result.exit_code == 3
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "SingularSystem"

    def test_singular_pseudoinverse_exit_3(self, runner, write):
        # The same 1e-17 bridge: MINRES leaves a KCL residual near 1 too.
        text = "4 6 1\n5 6 1e-17\n2 4 1\n3 6 1\n1 6 1\n"
        result = runner.invoke(main, ["voltages", write(text), "5", "3", "--method",
                                      "pseudoinverse", "--format", "json"])
        assert result.exit_code == 3
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "SingularSystem"

    @pytest.mark.parametrize("weight", ["1e-310", "1.7e308"])
    def test_weight_at_the_float_range_ends_pseudoinverse_exit_3(self, runner, write, weight):
        # 1/L_ii or the degree overflows; the solve must not warn, and the
        # residual, nan here, fails the gate.
        text = f"1 2 {weight}\n2 3 {weight}\n3 1 1\n"
        result = runner.invoke(main, ["voltages", write(text), "1", "2", "--method",
                                      "pseudoinverse", "--format", "json"])
        assert result.exit_code == 3
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "SingularSystem"

    @pytest.mark.parametrize("method, target, raised, error", [
        ("grounded", "scipy.sparse.linalg.splu", RuntimeError("Factor is exactly singular"),
         "FactorizationFailed"),
        ("pseudoinverse", "scipy.sparse.linalg.minres", ValueError("non-symmetric matrix"),
         "FactorizationFailed"),
    ])
    def test_failed_factor_exit_3(self, runner, write, monkeypatch, method, target, raised,
                                  error):
        def fail(*args, **kwargs):
            raise raised

        monkeypatch.setattr(target, fail)
        result = runner.invoke(main, ["voltages", write(complete(3)), "1", "2", "--method",
                                      method, "--format", "json"])
        assert result.exit_code == 3
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err == {"error": error, "message": str(raised)}

    @pytest.mark.parametrize("method", ["grounded", "pseudoinverse", "universal-sink"])
    def test_methods(self, runner, write, method):
        result, doc = run_json(
            runner, ["voltages", write(complete(3)), "1", "2", "--method", method]
        )
        assert result.exit_code == 0
        validate(doc, schema("voltages"))
        assert doc["approximate"] == (method == "universal-sink")

    def test_text_format_default(self, runner, write):
        result = runner.invoke(main, ["voltages", write(path(2)), "1", "2"])
        assert "effective resistance" in result.output


class TestOrbits:
    def test_p3(self, runner, write):
        result, doc = run_json(runner, ["orbits", write(path(3))])
        assert result.exit_code == 0
        validate(doc, schema("orbits"))
        assert [c["nodes"] for c in doc["classes"]] == [[2], [1, 3]]

    def test_star(self, runner, write):
        _, doc = run_json(runner, ["orbits", write(star(3))])
        assert sorted(c["nodes"] for c in doc["classes"]) == [[1], [2, 3, 4]]

    def test_c4(self, runner, write):
        _, doc = run_json(runner, ["orbits", write(cycle(4))])
        assert [c["nodes"] for c in doc["classes"]] == [[1, 2, 3, 4]]

    @pytest.mark.parametrize("g, classes", [
        (path(3), [([2], "fa4149c9fc0292c7c088ab9e7d75f72f27b0d3f9dd949895b03860d6dbadce84"),
                   ([1, 3], "8096a3cd213428dd441062816c105e14f1e622418e2cb5a6692b12c3452cab6f")]),
        (star(3), [([2, 3, 4], "a03bfec1fbe5b8518ea1256919410bd5a84c9135b6efcd9da5cc45b78da32784"),
                   ([1], "c3d99577062e5313764f38fe62fd698bd7bd9b549fdde8c3817b4984fd5b2b7a")]),
        (PETERSEN, [(list(range(1, 11)),
                     "1b88c579f5bed5770586a3a981caa53f50b71c6d723fa025b0d14c4fb269a2bb")]),
        (Graph(5, [(1, 2, 0.5), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 0.5)]),
         [([2, 4], "b0d8f30e44dbbf0e5942cdfa285eb02320af315f94b34003339cc4c17193ea2e"),
          ([3], "4612a2d1f2e55c17832fa2f226a960ba96a3f5c3b529d44b4cad18d721859f0a"),
          ([1, 5], "6b9b519a96b3dc51fab6d8fcfa3561d04df8ebc5d4afbabbd1d708f77c91f66d")]),
    ], ids=["P3", "K1,3", "petersen", "weighted-P5"])
    def test_json_output_pinned(self, runner, write, g, classes):
        # signature_sha256 is sha256 of the JSON list of the class's first
        # node's row [L+[x,x], sorted L+[x,:]] mod p; pinned as built.
        result = runner.invoke(main, ["orbits", write(g), "--format", "json"])
        assert result.exit_code == 0
        doc = {"classes": [{"nodes": nodes, "signature_sha256": sha} for nodes, sha in classes],
               "m": g.m, "n": g.n}
        assert result.stdout == json.dumps(doc, separators=(",", ":")) + "\n"

    def test_verify(self, runner, write):
        result, doc = run_json(runner, ["orbits", write(cycle(5)), "--verify"])
        assert result.exit_code == 0
        assert doc["verify"]["match"] is True
        assert doc["verify"]["group_order"] == 10

    def test_verify_mismatch_exit_4(self, runner, write, monkeypatch):
        # An oracle that reports each node of C5 as its own orbit.
        report = oracle.AutomorphismReport(1, tuple((x,) for x in range(1, 6)), ((1, 2, 3, 4, 5),))
        monkeypatch.setattr(oracle, "brute_force_automorphisms", lambda g: report)
        result = runner.invoke(main, ["orbits", write(cycle(5)), "--verify"])
        assert result.exit_code == 4
        assert "verify: MISMATCH" in result.stdout


class TestIso:
    def test_relabeled_c4_exit_0(self, runner, write, rng):
        g = cycle(4)
        h = relabel(g, random_permutation(4, rng))
        result, doc = run_json(runner, ["iso", write(g), write(h)])
        assert result.exit_code == 0
        validate(doc, schema("iso"))
        assert doc["verdict"] == "isomorphic-certified"
        assert "mapping" in doc

    def test_p4_vs_star_exit_1(self, runner, write):
        result, doc = run_json(runner, ["iso", write(path(4)), write(star(3))])
        assert result.exit_code == 1
        assert doc["verdict"] == "distinct-certified"

    def test_relabelled_cubic_exit_0(self, runner, write):
        # A regular unweighted graph whose float signatures, snapped to a
        # grid, gave this relabelling a different digest.
        g = random_cubic(96, random.Random(33))
        h, _ = shuffled_copy(g, random.Random(96))
        result, doc = run_json(runner, ["iso", write(g), write(h)])
        assert result.exit_code == 0
        assert doc["verdict"] == "isomorphic-certified"

    def test_deep_first_path_exit_0(self, runner, write, rng):
        # Each search individualizes the star's leaves one tree node deeper.
        g = star(1000)
        h = relabel(g, random_permutation(g.n, rng))
        result, doc = run_json(runner, ["iso", write(g), write(h)])
        assert result.exit_code == 0
        assert doc["verdict"] == "isomorphic-certified"

    def test_budget_one_exit_5(self, runner, write, rng):
        g = cycle(6)
        h = relabel(g, random_permutation(6, rng))
        result, doc = run_json(runner, ["iso", write(g), write(h), "--budget", "1"])
        assert result.exit_code == 5
        assert doc["verdict"] == "possibly-isomorphic"


    def test_every_reason_validates_against_the_schema(self, runner, write, rng, monkeypatch):
        def weighted(n):
            return Graph(n, [(k, k + 1, float(k)) for k in range(1, n)] + [(n, 1, 0.5)])

        cases = [
            ([path(3), path(4)], []),
            ([cycle(4), path(4)], []),
            ([path(4), star(3)], []),
            ([complete_bipartite(3), prism(3)], []),
            ([SHRIKHANDE, ROOK_4X4], []),
            ([cycle(6), relabel(cycle(6), random_permutation(6, rng))], ["--budget", "1"]),
            ([weighted(5), relabel(weighted(5), random_permutation(5, rng))], []),
        ]
        reasons = set()
        for graphs, extra in cases:
            _, doc = run_json(runner, ["iso", *map(write, graphs), *extra])
            validate(doc, schema("iso"))
            reasons.add(doc["reason"])
        monkeypatch.setattr(signatures, "verify_mapping", lambda g1, g2, mapping: False)
        result, doc = run_json(runner, ["iso", write(weighted(5)), write(weighted(5))])
        assert result.exit_code == 5
        validate(doc, schema("iso"))
        reasons.add(doc["reason"])
        assert reasons == set(schema("iso")["properties"]["reason"]["enum"])


class TestFingerprint:
    def test_label_invariant_hash(self, runner, write, rng):
        g = cycle(5)
        h = relabel(g, random_permutation(5, rng))
        _, doc1 = run_json(runner, ["fingerprint", write(g)])
        _, doc2 = run_json(runner, ["fingerprint", write(h)])
        validate(doc1, schema("fingerprint"))
        assert doc1["sha256"] == doc2["sha256"]

    def test_p4_vs_c4_differ(self, runner, write):
        _, doc1 = run_json(runner, ["fingerprint", write(path(4))])
        _, doc2 = run_json(runner, ["fingerprint", write(cycle(4))])
        assert doc1["sha256"] != doc2["sha256"]

    def test_json_graph_input(self, runner, write):
        _, doc1 = run_json(runner, ["fingerprint", write(cycle(4))])
        _, doc2 = run_json(runner, ["fingerprint", write(cycle(4), as_json=True)])
        assert doc1["sha256"] == doc2["sha256"]

    def test_tiny_weight_bridge_is_exact(self, runner, write):
        # A 1e-300 S bridge puts voltages near 1e300, but residues are exact.
        _, doc1 = run_json(runner, ["fingerprint", write("1 2\n2 3 1e-300")])
        _, doc2 = run_json(runner, ["fingerprint", write("3 2\n2 1 1e-300")])
        validate(doc1, schema("fingerprint"))
        assert doc1 == doc2

    def test_weight_overflowing_float_exit_2(self, runner, write):
        huge = "1" + "0" * 400
        result = runner.invoke(main, ["fingerprint", write(f'{{"n": 2, "edges": [[1, 2, {huge}]]}}')])
        assert result.exit_code == 2
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "NonFiniteWeight"

    def test_all_primes_singular_exit_3(self, runner, write, monkeypatch):
        # The 6-node wheel has 121 = 11^2 spanning trees.
        wheel = "".join(f"1 {k}\n{k} {k % 5 + 2}\n" for k in range(2, 7))
        monkeypatch.setattr(solver, "_primes", lambda: (11,))
        result = runner.invoke(main, ["fingerprint", write(wheel)])
        assert result.exit_code == 3
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "FactorizationFailed"
        monkeypatch.setattr(solver, "_primes", lambda: (11, 13))
        _, doc = run_json(runner, ["fingerprint", write(wheel)])
        assert doc["fingerprint"]["p"] == 13

    def test_tree_count_divisible_by_the_largest_primes_exit_0(self, runner, write):
        # 4397987791019 = 2097143 * 2097133, so the spanning-tree count
        # 4397987791019 * 2097131 is divisible by the three largest primes
        # below 2**21; the walk moves on to the fourth.
        path = write("1 2 4397987791019\n2 3 2097131")
        _, doc = run_json(runner, ["fingerprint", path])
        validate(doc, schema("fingerprint"))
        assert doc["fingerprint"]["p"] == 2097097
        for args in (["orbits", path], ["canon", path], ["iso", path, path]):
            assert runner.invoke(main, args).exit_code == 0

    def test_empty_input_is_parse_error(self, runner, write):
        result = runner.invoke(main, ["fingerprint", write("")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_serializes_once(self, runner, write, monkeypatch, fmt):
        calls = {"to_json": 0, "digest": 0}
        for name in calls:
            method = getattr(Fingerprint, name)

            def counted(self, method=method, name=name):
                calls[name] += 1
                return method(self)

            monkeypatch.setattr(Fingerprint, name, counted)
        result = runner.invoke(main, ["fingerprint", write(cycle(5)), "--format", fmt])
        assert result.exit_code == 0
        assert calls == {"to_json": 1, "digest": 1}
        monkeypatch.undo()
        fp = fingerprint(cycle(5))
        text, digest = fp.to_json(), fp.digest()
        if fmt == "json":
            expected = json.dumps({"fingerprint": json.loads(text), "sha256": digest},
                                  separators=(",", ":"), sort_keys=True)
        else:
            expected = f"sha256: {digest}\n{text}"
        assert result.output == expected + "\n"

    @pytest.mark.parametrize("text", [
        '{"n": "x", "edges": [[1, 2]]}',
        '{"n": 2, "edges": [[1, 2, "abc"]]}',
        '{"n": 2, "edges": [[1, null]]}',
        '{"n": 2, "edges": 5}',
        '{"n": 2.7, "edges": [[1, 2]]}',
        '{"n": 2, "edges": [[1.9, 2]]}',
    ])
    def test_malformed_json_graph_exit_2(self, runner, write, text):
        result = runner.invoke(main, ["fingerprint", write(text)])
        assert result.exit_code == 2
        validate(json.loads(result.stderr), schema("error"))


def test_single_node_graph_rejected_alike(runner, write):
    f = write('{"n": 1, "edges": []}')
    errors = set()
    for args in (["canon", f], ["orbits", f], ["fingerprint", f], ["iso", f, f],
                 ["voltages", f, "1", "2"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        errors.add((err["error"], err["message"]))
    assert errors == {("Graph", "need at least 2 nodes and 1 edge")}
    # No pair of nodes exists to inject a current between.
    for method in ("pseudoinverse", "universal-sink"):
        result = runner.invoke(main, ["voltages", f, "1", "2", "--method", method])
        assert result.exit_code == 2, method
        validate(json.loads(result.stderr), schema("error"))


class TestCanon:
    def test_p3_all_labelings(self, runner, write):
        import itertools

        hashes = set()
        for ids in itertools.permutations([1, 2, 3]):
            perm = dict(zip([1, 2, 3], ids))
            result, doc = run_json(runner, ["canon", write(relabel(path(3), perm))])
            assert result.exit_code == 0
            validate(doc, schema("canon"))
            assert doc["certified"] is True
            hashes.add(doc["form_sha256"])
        assert len(hashes) == 1

    def test_budget_exhaustion_still_exit_0(self, runner, write):
        result, doc = run_json(runner, ["canon", write(cycle(6)), "--budget", "1"])
        assert result.exit_code == 0
        assert doc["certified"] is False

    def test_deep_first_path_exit_0(self, runner, write):
        # The first path individualizes 999 of the star's 1000 leaves, one
        # tree node deeper each; the twin leaves prune every other child.
        result, doc = run_json(runner, ["canon", write(star(1000)), "--budget", "1"])
        assert result.exit_code == 0
        validate(doc, schema("canon"))
        assert doc["certified"] is True

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_digests_once(self, runner, write, monkeypatch, fmt):
        digests = []
        method = CanonicalLabeling.digest

        def counted(self):
            digests.append(method(self))
            return digests[-1]

        monkeypatch.setattr(CanonicalLabeling, "digest", counted)
        result = runner.invoke(main, ["canon", write(cycle(5)), "--format", fmt])
        assert result.exit_code == 0
        assert len(digests) == 1 and digests[0] in result.output


class TestOracleCommands:
    def test_solve(self, runner, write):
        result, doc = run_json(runner, ["oracle", "solve", write(path(3)), "1", "2"])
        assert result.exit_code == 0
        assert doc["voltages"] == ["2/3", "-1/3", "-1/3"]

    def test_autos(self, runner, write):
        result, doc = run_json(runner, ["oracle", "autos", write(cycle(4))])
        assert doc["group_order"] == 8
        assert doc["orbits"] == [[1, 2, 3, 4]]

    def test_iso_exit_codes(self, runner, write, rng):
        g = cycle(4)
        h = relabel(g, random_permutation(4, rng))
        assert runner.invoke(main, ["oracle", "iso", write(g), write(h)]).exit_code == 0
        assert runner.invoke(main, ["oracle", "iso", write(path(4)), write(star(3))]).exit_code == 1


class TestErrorBoundary:
    """Typed errors from any command, nested oracle ones too, exit with JSON on stderr."""

    @pytest.mark.parametrize("command", [
        ["orbits", "FILE", "--verify"], ["oracle", "autos", "FILE"], ["oracle", "iso", "FILE", "FILE"],
    ])
    def test_brute_force_too_large_exit_2(self, runner, write, command):
        f = write(path(11))
        result = runner.invoke(main, [f if arg == "FILE" else arg for arg in command])
        assert result.exit_code == 2
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "TooLarge"

    @pytest.mark.parametrize("command", [
        ["voltages", "FILE", "1", "2"], ["orbits", "FILE"], ["iso", "FILE", "FILE"],
        ["fingerprint", "FILE"], ["canon", "FILE"], ["oracle", "solve", "FILE", "1", "2"],
        ["oracle", "autos", "FILE"], ["oracle", "iso", "FILE", "FILE"],
    ])
    def test_unreadable_graph_file_exit_2(self, runner, tmp_path, command):
        undecodable = tmp_path / "g.txt"
        undecodable.write_bytes(b"1 2\n2 3\xff\n")
        result = runner.invoke(main, [str(undecodable) if arg == "FILE" else arg for arg in command])
        assert result.exit_code == 2
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "MalformedLine" and err["message"].startswith("line 2:")
        result = runner.invoke(main, [str(tmp_path) if arg == "FILE" else arg for arg in command])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "is a directory" in result.stderr

    @pytest.mark.parametrize("text, error", [
        ('{"n": 2, "edges": ' + "[" * 100000, "Graph"),
        ('{"n": 2, "edges": [[1, 2, ' + "1" * 5000 + "]]}", "NonFiniteWeight"),
    ], ids=["nested", "5000-digit-weight"])
    def test_json_the_decoder_cannot_read_exit_2(self, runner, write, text, error):
        # json.loads raises RecursionError and, past 4,300 digits, a bare ValueError.
        result = runner.invoke(main, ["fingerprint", write(text)])
        assert result.exit_code == 2
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == error

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("command", [["canon", "FILE"], ["iso", "FILE", "FILE"]])
    def test_budget_below_one_exit_2(self, runner, write, command, budget):
        f = write(cycle(4))
        result = runner.invoke(main, [f if arg == "FILE" else arg for arg in command]
                               + ["--budget", budget])
        assert result.exit_code == 2
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err == {"error": "InvalidBudget", "message": f"search budget must be >= 1, got {budget}"}

    def test_oracle_solve_same_source_sink_exit_2(self, runner, write):
        result = runner.invoke(main, ["oracle", "solve", write(path(3)), "2", "2"])
        assert result.exit_code == 2
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err["error"] == "SameSourceSink"

    @pytest.mark.parametrize("a, b", [("5", "1"), ("0", "2")])
    def test_oracle_solve_node_outside_exit_2(self, runner, write, a, b):
        result = runner.invoke(main, ["oracle", "solve", write(path(3)), a, b])
        assert result.exit_code == 2
        assert result.stdout == ""
        err = json.loads(result.stderr)
        validate(err, schema("error"))
        assert err == {"error": "SameSourceSink", "message": f"nodes ({a},{b}) outside 1..3"}


class TestConfig:
    def test_deterministic_output(self, runner, write):
        f = write(cycle(5))
        out1 = runner.invoke(main, ["fingerprint", f, "--format", "json"]).output
        out2 = runner.invoke(main, ["fingerprint", f, "--format", "json"]).output
        assert out1 == out2

    @pytest.mark.parametrize("args, env", [
        (["--tol=-1e-8"], {}),
        (["--tol=0"], {}),
        (["--tol=nan"], {}),
        (["--tol=inf"], {}),
        (["--tol", "1e-8"], {"KCANON_TOL": "-1"}),
    ])
    def test_invalid_tol_exit_2(self, runner, write, args, env):
        # No command quantizes any more, so --tol is gone: a usage error.
        f = write(path(3))
        for command in (["voltages", f, "1", "2"], ["orbits", f], ["iso", f, f],
                        ["fingerprint", f], ["canon", f]):
            result = runner.invoke(main, command + args, env=env)
            assert result.exit_code == 2
            assert "No such option" in result.output and "--tol" in result.output
