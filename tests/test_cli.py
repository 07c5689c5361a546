"""CLI subcommands, exit codes, and input resolution."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bugraph
import bugraph.acceptance as acceptance
import bugraph.cli as cli
from bugraph.acceptance import _corpus_specs
from bugraph.betweenness import betweenness_oracle
from bugraph.blowup import (
    Decomposition,
    blow_up,
    decompose_betweenness,
    spec_from_json,
    spec_to_json,
)
from bugraph.cli import main
from bugraph.constructions import p4_mixed_spec
from bugraph.graphs import generate, parse_graph6, serialize_graph6
from bugraph.search import SearchBudget, SearchReport, search_blowups

C4 = serialize_graph6(generate("cycle", 4))
P4 = serialize_graph6(generate("path", 4))

# `lemma-table --slot second --m 3 --grid-max 2`, rows as recorded from
# the standalone lemma driver it replaced: context, class graph6, edge
# count, exact ratio, max mark.
LEMMA_TABLE_SECOND_3_2 = [
    ("(1, 1, 1)", "B?", 0, "9/4", "*"),
    ("(1, 1, 1)", "BG", 1, "3/2", ""),
    ("(1, 1, 1)", "BW", 2, "1/2", ""),
    ("(1, 1, 1)", "Bw", 3, "0", ""),
    ("(1, 1, 2)", "B?", 0, "3/2", "*"),
    ("(1, 1, 2)", "BG", 1, "1", ""),
    ("(1, 1, 2)", "BW", 2, "1/3", ""),
    ("(1, 1, 2)", "Bw", 3, "0", ""),
    ("(1, 2, 1)", "B?", 0, "4/5", "*"),
    ("(1, 2, 1)", "BG", 1, "8/15", ""),
    ("(1, 2, 1)", "BW", 2, "1/5", ""),
    ("(1, 2, 1)", "Bw", 3, "0", ""),
    ("(1, 2, 2)", "B?", 0, "15/23", "*"),
    ("(1, 2, 2)", "BG", 1, "10/23", ""),
    ("(1, 2, 2)", "BW", 2, "15/92", ""),
    ("(1, 2, 2)", "Bw", 3, "0", ""),
    ("(2, 1, 1)", "B?", 0, "3/4", "*"),
    ("(2, 1, 1)", "BG", 1, "1/2", ""),
    ("(2, 1, 1)", "BW", 2, "3/16", ""),
    ("(2, 1, 1)", "Bw", 3, "0", ""),
    ("(2, 1, 2)", "B?", 0, "1/2", "*"),
    ("(2, 1, 2)", "BG", 1, "1/3", ""),
    ("(2, 1, 2)", "BW", 2, "1/8", ""),
    ("(2, 1, 2)", "Bw", 3, "0", ""),
    ("(2, 2, 1)", "B?", 0, "1/3", "*"),
    ("(2, 2, 1)", "BG", 1, "2/9", ""),
    ("(2, 2, 1)", "BW", 2, "4/45", ""),
    ("(2, 2, 1)", "Bw", 3, "0", ""),
    ("(2, 2, 2)", "B?", 0, "45/172", "*"),
    ("(2, 2, 2)", "BG", 1, "15/86", ""),
    ("(2, 2, 2)", "BW", 2, "3/43", ""),
    ("(2, 2, 2)", "Bw", 3, "0", ""),
]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBc:
    def test_literal_graph(self, capsys):
        code, out, _ = run(capsys, "bc", "-g", C4)
        assert code == 0
        obj = json.loads(out)
        assert obj["values"] == ["1/2"] * 4

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(C4 + "\n")
        code, out, _ = run(capsys, "bc", "-g", str(path))
        assert code == 0
        assert json.loads(out)["n"] == 4

    def test_malformed_graph(self, capsys):
        code, _, err = run(capsys, "bc", "-g", "!bad!")
        assert code == 3
        assert "graph6" in err

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "blank.g6"
        path.write_text("\n  \n")
        code, out, err = run(capsys, "bc", "-g", str(path))
        assert code == 3
        assert out == "" and err == f"error: {path}: empty file\n"

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "bc", "-g", str(path))
        assert code == 3
        assert "cannot read" in err

    def test_integers_render_bare(self, capsys, monkeypatch):
        assert str(Fraction(4, 2)) == "2"
        monkeypatch.setattr(cli, "betweenness_exact", lambda g: [Fraction(4, 2), 2])
        code, out, _ = run(capsys, "bc", "-g", "A_", "--literal")
        assert code == 0
        assert json.loads(out)["values"] == ["2", "2"]

    def test_profile_shape(self, capsys):
        code, out, _ = run(capsys, "bc", "-g", C4, "--literal")
        assert code == 0
        assert json.loads(out) == {
            "n": 4,
            "values": ["1/2", "1/2", "1/2", "1/2"],
            "uniform": True,
            "common": "1/2",
        }

    def test_profile_non_uniform(self, capsys):
        code, out, _ = run(capsys, "bc", "-g", serialize_graph6(generate("path", 3)), "--literal")
        assert code == 0
        obj = json.loads(out)
        assert obj["uniform"] is False
        assert obj["common"] is None

    def test_literal_flag_beats_file(self, capsys, tmp_path, monkeypatch):
        trap = tmp_path / C4
        trap.write_text(P4 + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "bc", "-g", C4)
        assert json.loads(out)["uniform"] is False  # read the file
        code, out, _ = run(capsys, "bc", "-g", C4, "--literal")
        assert json.loads(out)["uniform"] is True  # read the string


class TestUniform:
    def test_uniform_graph(self, capsys):
        code, out, _ = run(capsys, "uniform", "-g", C4)
        assert code == 0
        assert json.loads(out) == {"uniform": True, "common": "1/2"}

    def test_non_uniform_exits_ten(self, capsys):
        code, out, _ = run(capsys, "uniform", "-g", P4)
        assert code == 10
        assert json.loads(out)["uniform"] is False

    @pytest.mark.parametrize(
        "command, g",
        [
            pytest.param(command, g, id=prefix + name)
            for command, prefix in (("uniform", ""), ("bc", "bc-"))
            for name, g in (
                ("P4", generate("path", 4)),
                ("star", generate("star", 4)),  # the centre is the last vertex
                ("p4-blowup", blow_up(p4_mixed_spec(2, 2, 2, 2)).graph),
            )
        ],
    )
    def test_witness_matches_the_oracle(self, capsys, command, g):
        # bc words the verdict as uniform does, after the profile
        code, out, _ = run(capsys, command, "-g", serialize_graph6(g), "--literal")
        assert code == (10 if command == "uniform" else 0)
        obj = json.loads(out)
        head = ["uniform", "common", "witness"]
        assert list(obj) == (head if command == "uniform" else ["n", "values", *head])
        assert obj["uniform"] is False and obj["common"] is None
        oracle = betweenness_oracle(g)
        u, v = obj["witness"]["vertices"]
        assert u == 0 and all(x == oracle[0] for x in oracle[1:v])
        assert obj["witness"]["values"] == [str(oracle[0]), str(oracle[v])]
        assert oracle[v] != oracle[0]


class TestBlowupAndDecompose:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = {
            "base": serialize_graph6(generate("path", 3)),
            "parts": [
                {"kind": "I", "size": 2},
                {"kind": "I", "size": 5},
                {"kind": "I", "size": 3},
            ],
        }
        path.write_text(json.dumps(spec))
        return str(path)

    def test_blowup(self, capsys, spec_file):
        code, out, _ = run(capsys, "blowup", "-s", spec_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 10
        assert parse_graph6(obj["graph6"]).n == 10
        assert obj["part_of"] == [0, 0, 1, 1, 1, 1, 1, 2, 2, 2]

    def test_decompose(self, capsys, spec_file):
        code, out, _ = run(capsys, "decompose", "-s", spec_file, "-v", "0")
        assert code == 0
        obj = json.loads(out)
        assert obj["vertex"] == 0
        assert obj["neighbor_locals"]["1"] == "2"

    def test_decomposition_json(self, capsys, spec_file):
        code, out, _ = run(capsys, "decompose", "-s", spec_file, "-v", "0")
        assert code == 0
        obj = json.loads(out)
        assert obj["vertex"] == 0
        assert set(obj) == {"vertex", "global_part", "own_local", "neighbor_locals"}

    def test_decompose_bad_vertex(self, capsys, spec_file):
        code, _, err = run(capsys, "decompose", "-s", spec_file, "-v", "10")
        assert code == 3
        assert "out of range" in err

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "blowup", "-s", str(path))
        assert code == 3

    def test_bad_spec_shape(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"base": "A_", "parts": [{"kind": "I", "size": 1}]}))
        code, _, err = run(capsys, "blowup", "-s", str(path))
        assert code == 3

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "blowup", "-s", "/nonexistent/path.json")
        assert code == 3

    @pytest.mark.parametrize("size", [2.7, True, "2"])
    def test_non_integer_size(self, capsys, tmp_path, size):
        path = tmp_path / "sizes.json"
        parts = [{"kind": "I", "size": 1}, {"kind": "I", "size": size}, {"kind": "I", "size": 1}]
        path.write_text(json.dumps({"base": "Bg", "parts": parts}))
        code, out, err = run(capsys, "blowup", "-s", str(path))
        assert code == 3
        assert out == "" and "part size" in err

    def test_part_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "parts.json"
        path.write_text(json.dumps({"base": "Bg", "parts": "abc"}))
        code, _, err = run(capsys, "blowup", "-s", str(path))
        assert code == 3
        assert "internal error" not in err

    def test_undecodable_spec_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "decompose", "-s", str(path), "-v", "0")
        assert code == 3
        assert out == "" and "cannot read" in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"base": 5, "parts": []},
            {"base": "A_", "parts": [{"kind": "X", "graph6": 7}, {"kind": "I", "size": 1}]},
        ],
    )
    def test_non_string_graph6(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "blowup", "-s", str(path))
        assert code == 3
        assert out == "" and "graph6 must be a JSON string" in err

    def test_decompose_million_vertex_parts(self, capsys, tmp_path):
        # Ch[K1000000,I1000000,I999999,K3]: the blow-up would have about
        # 10^12 edges, so this only answers if nothing builds it.  Vertex
        # 1000000 is the first of part 1; by hand its global share is
        # s0*s2/s1 + s0*s3/s1 = 999999 + 3, and part 2's pairs give it
        # C(999999, 2) / (s1 + s3).
        path = tmp_path / "big.json"
        parts = [
            {"kind": "K", "size": 1000000},
            {"kind": "I", "size": 1000000},
            {"kind": "I", "size": 999999},
            {"kind": "K", "size": 3},
        ]
        path.write_text(json.dumps({"base": "Ch", "parts": parts}))
        code, out, _ = run(capsys, "decompose", "-s", str(path), "-v", "1000000")
        assert code == 0
        assert json.loads(out) == {
            "vertex": 1000000,
            "global_part": "1000002",
            "own_local": "0",
            "neighbor_locals": {"0": "0", "2": "499998500001/1000003"},
        }

    def test_blowup_refuses_million_vertex_parts(self, capsys, tmp_path):
        # the same spec: C(10^6, 2) + 3 part edges and 10^12 + 999999 *
        # 10^6 + 999999 * 3 edges between parts; blowup must refuse it
        # before building anything
        path = tmp_path / "big.json"
        parts = [
            {"kind": "K", "size": 1000000},
            {"kind": "I", "size": 1000000},
            {"kind": "I", "size": 999999},
            {"kind": "K", "size": 3},
        ]
        path.write_text(json.dumps({"base": "Ch", "parts": parts}))
        code, out, err = run(capsys, "blowup", "-s", str(path))
        assert code == 3
        assert out == "" and "2500001500000 edges" in err

    def test_decompose_matches_the_oracle(self, capsys, tmp_path):
        # the CLI reads the closed-form shares; the oracle classifies
        # every pair on the built graph
        path = tmp_path / "spec.json"
        for spec in _corpus_specs()[:12]:
            path.write_text(json.dumps(spec_to_json(spec)))
            bg = blow_up(spec)
            for v in range(bg.graph.n):
                code, out, _ = run(capsys, "decompose", "-s", str(path), "-v", str(v))
                assert code == 0
                obj = json.loads(out)
                got = Decomposition(
                    obj["vertex"],
                    Fraction(obj["global_part"]),
                    Fraction(obj["own_local"]),
                    {int(j): Fraction(x) for j, x in obj["neighbor_locals"].items()},
                )
                assert got == decompose_betweenness(bg, v), (spec.label(), v)


class TestConstruct:
    def test_p3_example(self, capsys):
        code, out, _ = run(capsys, "construct", "p3", "2", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["spec"]["parts"] == [
            {"kind": "I", "size": 2},
            {"kind": "I", "size": 5},
            {"kind": "I", "size": 3},
        ]
        assert obj["verification"]["uniform"] is True

    def test_p2(self, capsys):
        # p2 2 is the edge's uniform blow-up K_4
        for m in ("3", "2"):
            code, out, _ = run(capsys, "construct", "p2", m)
            obj = json.loads(out)
            assert obj["verification"] == {"uniform": True, "common": "0"}

    def test_star(self, capsys):
        code, out, _ = run(capsys, "construct", "star", "1", "2", "3")
        obj = json.loads(out)
        assert obj["spec"]["parts"][-1] == {"kind": "I", "size": 6}
        assert obj["verification"]["uniform"] is True
        # unit leaves: the k-leaf star's uniform blow-up, at (k - 1)/2
        for k in range(1, 7):
            code, out, _ = run(capsys, "construct", "star", *["1"] * k)
            obj = json.loads(out)
            assert obj["spec"]["parts"][-1] == {"kind": "I", "size": k}
            assert obj["verification"] == {"uniform": True, "common": str(Fraction(k - 1, 2))}

    def test_p4_reports_non_uniform(self, capsys):
        for sizes in ((2, 2, 2, 2), (1, 2, 2, 1)):
            code, out, _ = run(capsys, "construct", "p4", *map(str, sizes))
            assert code == 0
            obj = json.loads(out)
            verdict = obj["verification"]
            assert list(verdict) == ["uniform", "common", "witness"]
            assert verdict["uniform"] is False and verdict["common"] is None
            # the witness is the one `uniform` prints, with both parts
            bg = blow_up(p4_mixed_spec(*sizes))
            assert obj["graph6"] == serialize_graph6(bg.graph)
            oracle = betweenness_oracle(bg.graph)
            u, v = verdict["witness"]["vertices"]
            assert u == 0 and all(x == oracle[0] for x in oracle[1:v]) and oracle[v] != oracle[0]
            assert verdict["witness"]["values"] == [str(x) for x in (oracle[0], oracle[v])]
            assert verdict["witness"]["parts"] == [bg.part_of[0], bg.part_of[v]]

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "construct", "p2", "1", "2")
        assert code == 3

    @pytest.mark.parametrize(
        "family, sizes, count",
        [("p3", ("1",), "two"), ("p4", ("1", "2", "3"), "four")],
    )
    def test_wrong_arity_names_the_count(self, capsys, family, sizes, count):
        code, out, err = run(capsys, "construct", family, *sizes)
        assert code == 3
        assert out == "" and err == f"error: construct {family} takes {count} sizes\n"

    def test_bad_size(self, capsys):
        code, _, err = run(capsys, "construct", "p3", "0", "2")
        assert code == 3

    def test_refuses_an_oversize_blowup(self, capsys):
        # K_1500 joined to K_1500 has C(3000, 2) = 4498500 edges
        code, out, err = run(capsys, "construct", "p2", "1500")
        assert code == 3
        assert out == "" and "4498500 edges" in err


class TestSearch:
    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "search", "-g", P4, "--max-size", "3", "--tsv")
        assert code == 0
        g6, examined, found, exhausted = out.strip().split("\t")
        assert g6 == P4
        assert found == "0" and exhausted == "true"

    def test_json_report(self, capsys):
        p3 = serialize_graph6(generate("path", 3))
        code, out, _ = run(capsys, "search", "-g", p3, "--max-size", "2")
        obj = json.loads(out)
        assert obj["exhausted"] is True
        assert {tuple(p["size"] for p in s["parts"]) for s in obj["found"]} == {(1, 2, 1)}

    def test_tsv_line(self, capsys):
        rep = search_blowups(generate("path", 2), SearchBudget(part_family="ik", max_part_size=2))
        g6 = serialize_graph6(generate("path", 2))
        code, out, _ = run(capsys, "search", "-g", g6, "--literal", "--max-size", "2", "--tsv")
        assert code == 0
        fields = out.rstrip("\n").split("\t")
        assert fields[0] == g6
        assert fields[1] == str(rep.specs_examined)
        assert fields[2] == str(len(rep.found))
        assert fields[3] == "true"

    def test_json_found_specs_parse_back(self, capsys):
        rep = search_blowups(generate("path", 3), SearchBudget(part_family="ik", max_part_size=3))
        g6 = serialize_graph6(generate("path", 3))
        code, out, _ = run(capsys, "search", "-g", g6, "--literal", "--max-size", "3")
        assert code == 0
        obj = json.loads(out)
        parsed = [spec_from_json(s) for s in obj["found"]]
        assert parsed == rep.found
        assert obj["exhausted"] is True
        assert obj["budget"]["part_family"] == "ik"

    def test_time_limit_flag(self, capsys):
        code, out, _ = run(capsys, "search", "-g", P4, "--max-size", "4", "--time-limit", "1e-9")
        assert json.loads(out)["exhausted"] is False

    def test_nan_time_limit_is_bad_input(self, capsys):
        code, out, err = run(capsys, "search", "-g", P4, "--time-limit", "nan")
        assert code == 3
        assert out == "" and "time_limit" in err

    def test_infinite_time_limit_is_bad_input(self, capsys):
        # JSON has no spelling for infinity, so the report could not hold it
        code, out, err = run(
            capsys, "search", "-g", "Bg", "--literal", "--max-size", "2", "--time-limit", "inf"
        )
        assert code == 3
        assert out == "" and "time_limit" in err

    def test_disconnected_base_is_bad_input(self, capsys):
        code, out, err = run(capsys, "search", "-g", "A?", "--literal")
        assert code == 3
        assert out == "" and err == "error: search base must be connected\n"

    def test_no_prune_flag_is_gone(self, capsys):
        assert run(capsys, "search", "-g", P4, "--no-prune")[0] == 2

    def test_bad_family_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "search", "-g", P4, "--family", "zoo")
        assert code == 2

    def test_env_jobs_ignored(self, monkeypatch):
        # --jobs is the one way to ask for workers
        monkeypatch.setenv("BUGRAPH_JOBS", "3")
        from bugraph.cli import build_parser

        args = build_parser().parse_args(["search", "-g", P4])
        assert args.jobs == 1

    def test_jobs_default_is_one(self):
        from bugraph.cli import build_parser

        parser = build_parser()
        for argv in (["search", "-g", P4], ["census", "trees", "--n-max", "4"], ["verify-paper"]):
            assert parser.parse_args(argv).jobs == 1, argv[0]


class TestCensus:
    def test_jobs_do_not_change_output(self, capsys):
        # the path4 base has 400 specs at --max-size 3, enough to use the pool
        argv = ("census", "trees", "--n-max", "5", "--max-size", "3")
        serial = run(capsys, *argv, "--jobs", "1")
        parallel = run(capsys, *argv, "--jobs", "2")
        assert serial == parallel
        code, out, err = serial
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        # canonical graph6, as enumerated: CL is the 4-path
        assert [r["base"] for r in records] == ["CL", "DC[", "DKK"]
        assert all(list(r) == ["base", "search"] for r in records)
        assert all(r["search"]["exhausted"] and not r["search"]["found"] for r in records)
        assert err == "# no uniform blow-ups over 3 bases; every search exhausted\n"

    def test_cut_vertex(self, capsys):
        code, out, _ = run(capsys, "census", "cut-vertex", "--n-max", "4", "--max-size", "3")
        assert code == 0
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["base"] == "CL"
        assert record["search"]["specs_examined"] == 400
        assert record["search"]["found"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("cut-vertex", "--n-max", "8"),
            ("trees", "--n-max", "8"),
            ("trees", "--n-max", "4", "--max-size", "0"),
            ("trees", "--n-max", "4", "--family", "all", "--max-size", "6"),
            ("trees", "--n-max", "4", "--time-limit", "-1"),
            ("trees", "--n-max", "4", "--jobs", "0"),
            ("trees", "--n-max", "4", "--time-limit", "inf"),
            ("cut-vertex", "--n-max", "0"),
            ("trees", "--n-max", "0"),
        ],
    )
    def test_out_of_range_is_bad_input(self, capsys, argv):
        code, out, err = run(capsys, "census", *argv)
        assert code == 3
        assert out == "" and err.startswith("error: ")

    def test_counterexamples_are_named(self, capsys, monkeypatch):
        # a cut-vertex base with a uniform blow-up would refute the
        # expectation, and census names every such spec on stderr
        hits = [p4_mixed_spec(1, 2, 2, 1), p4_mixed_spec(2, 1, 1, 2)]

        def found(kind, n_max, budget, jobs=1):
            return [SearchReport(generate("path", 4), budget, hits, True, 7)]

        monkeypatch.setattr(cli, "census", found)
        code, out, err = run(capsys, "census", "cut-vertex", "--n-max", "4", "--max-size", "2")
        assert code == 0
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["base"] == "Ch"
        assert record["search"]["found"] == [spec_to_json(s) for s in hits]
        assert err == "COUNTEREXAMPLES: Ch[K1,I2,I2,K1], Ch[K2,I1,I1,K2]\n"

    def test_n_max_required(self, capsys):
        assert run(capsys, "census", "trees")[0] == 2


class TestLemmaTable:
    def test_matches_recorded_table(self, capsys):
        code, out, err = run(capsys, "lemma-table", "--slot", "second", "--m", "3", "--grid-max", "2")
        assert code == 0
        header = "context\tclass\tedges\tratio\tmax\n"
        rows = "".join("\t".join(map(str, row)) + "\n" for row in LEMMA_TABLE_SECOND_3_2)
        assert out == header + rows
        assert err == "# edgeless class maximal at every grid point\n"

    def test_first_slot(self, capsys):
        code, out, err = run(capsys, "lemma-table", "--slot", "first", "--m", "2", "--grid-max", "2")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        # with b = 1 every class has ratio 0, so every class is marked
        assert all(r[3] == "0" and r[4] == "*" for r in rows[:8])
        # recorded from the standalone lemma driver for b = 2
        assert [(r[0], r[1], r[3], r[4]) for r in rows[8:]] == [
            ("(2, 1, 1)", "A?", "2/15", ""),
            ("(2, 1, 1)", "A_", "1/6", "*"),
            ("(2, 1, 2)", "A?", "2/21", ""),
            ("(2, 1, 2)", "A_", "1/9", "*"),
            ("(2, 2, 1)", "A?", "3/46", ""),
            ("(2, 2, 1)", "A_", "3/40", "*"),
            ("(2, 2, 2)", "A?", "1/19", ""),
            ("(2, 2, 2)", "A_", "1/17", "*"),
        ]
        assert err == "# complete class maximal at every grid point\n"

    def test_violations_are_named_and_exit_one(self, capsys, monkeypatch):
        # swap the first slot's expected winner: at b = 1 every class
        # ties at 0, so only the four b = 2 points violate
        argv = ("lemma-table", "--slot", "first", "--m", "2", "--grid-max", "2")
        _, table, _ = run(capsys, *argv)
        monkeypatch.setitem(bugraph.search._LEMMA_WINNERS, "first", "edgeless")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == table
        assert err.splitlines() == [
            "violation at (2, 1, 1): edgeless class not maximal",
            "violation at (2, 1, 2): edgeless class not maximal",
            "violation at (2, 2, 1): edgeless class not maximal",
            "violation at (2, 2, 2): edgeless class not maximal",
            "4 grid points violate the expectation",
        ]

    @pytest.mark.parametrize("argv", [("--m", "6"), ("--m", "0"), ("--grid-max", "0")])
    def test_out_of_range_is_bad_input(self, capsys, argv):
        code, out, err = run(capsys, "lemma-table", *argv)
        assert code == 3
        assert out == ""
        if argv[0] == "--grid-max":
            # lemma_grid's own check, passed through unchanged
            assert err == "error: lemma grid needs grid_max >= 1\n"


class TestVerifyPaper:
    def test_prints_each_verdict_and_the_summary(self, capsys, monkeypatch):
        monkeypatch.setattr(
            acceptance, "CRITERIA", [c for c in acceptance.CRITERIA if c[0] in (2, 5)]
        )
        code, out, err = run(capsys, "verify-paper")
        lines = out.splitlines()
        assert code == 0 and err == ""
        assert [ln[:10] for ln in lines[:2]] == ["[ 2] PASS ", "[ 5] PASS "]
        assert lines[2].startswith("== ALL PASS (") and lines[2].endswith("s total, level=quick) ==")
        assert len(lines) == 3

    def test_zero_jobs_is_bad_input(self, capsys):
        code, out, err = run(capsys, "verify-paper", "--jobs", "0")
        assert code == 3
        assert out == "" and err == "error: --jobs must be >= 1\n"


class TestEnum:
    def test_trees(self, capsys):
        code, out, _ = run(capsys, "enum", "trees", "-n", "5")
        assert code == 0
        lines = out.split()
        assert len(lines) == 3
        assert all(parse_graph6(ln).n == 5 for ln in lines)

    def test_graphs(self, capsys):
        code, out, _ = run(capsys, "enum", "graphs", "-n", "4")
        assert len(out.split()) == 11

    def test_over_cap(self, capsys):
        code, _, err = run(capsys, "enum", "graphs", "-n", "9")
        assert code == 3


class TestUsage:
    def test_no_args(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


def _child_env() -> dict:
    # Put the directory of the bugraph imported here first on the child's
    # path, so the child runs the same code whatever the working directory.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(bugraph.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    return env


def _run_python(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_child_env()
    )


def test_console_script_end_to_end():
    """Run the console entry point in a child process without installing it."""
    ok = _run_python("-m", "bugraph", "uniform", "-g", C4)
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout) == {"uniform": True, "common": "1/2"}

    not_uniform = _run_python("-m", "bugraph", "uniform", "-g", P4)
    assert not_uniform.returncode == 10, not_uniform.stderr
    assert json.loads(not_uniform.stdout)["uniform"] is False

    # The installed `bugraph` script must call the same function.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["bugraph"] == "bugraph.cli:console_main"


@pytest.mark.parametrize(
    "args", [("enum", "graphs", "-n", "7"), ("uniform", "-g", C4)], ids=["streamed", "buffered"]
)
def test_closed_stdout_exits_quietly(args):
    # The read end is closed before the child has started, so its first
    # write (enum streams past the buffer) or its final flush (uniform
    # prints one short line) meets a broken pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "bugraph", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_cli_imports_only_the_standard_library():
    # bugraph declares no runtime dependencies, so a cold CLI start loads
    # nothing from outside the standard library.
    proc = _run_python(
        "-c",
        "import sys; before = set(sys.modules); import bugraph.cli; "
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'bugraph'}))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_start_does_not_load_the_process_pool():
    # Only a parallel search needs concurrent.futures and multiprocessing.
    proc = _run_python(
        "-c",
        "import sys; import bugraph.cli; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} "
        "& {'concurrent', 'multiprocessing'}))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_start_does_not_load_dataclasses_inspect_or_typing():
    # The records are named tuples; dataclasses, with the inspect and
    # typing modules it loads, cost more than the rest of the import.
    # Only new modules count: a site hook may load typing beforehand.
    proc = _run_python(
        "-c",
        "import sys; before = set(sys.modules); import bugraph.cli, bugraph.acceptance; "
        "print(sorted((set(sys.modules) - before) & {'dataclasses', 'inspect', 'typing'}))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(shutil.which("bugraph") is None, reason="bugraph console script not installed")
def test_installed_console_script():
    proc = subprocess.run(["bugraph", "uniform", "-g", C4], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["uniform"] is True
