"""CLI subcommands, exit codes, and input resolution."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bugraph
from bugraph.cli import main
from bugraph.graphs import generate, parse_graph6, serialize_graph6

C4 = serialize_graph6(generate("cycle", 4))
P4 = serialize_graph6(generate("path", 4))


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
        code, out, _ = run(capsys, "construct", "p2", "3")
        obj = json.loads(out)
        assert obj["verification"] == {"uniform": True, "common": "0"}

    def test_star(self, capsys):
        code, out, _ = run(capsys, "construct", "star", "1", "2", "3")
        obj = json.loads(out)
        assert obj["spec"]["parts"][-1] == {"kind": "I", "size": 6}
        assert obj["verification"]["uniform"] is True

    def test_p4_reports_non_uniform(self, capsys):
        code, out, _ = run(capsys, "construct", "p4", "2", "2", "2", "2")
        assert code == 0
        assert json.loads(out)["verification"]["uniform"] is False

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "construct", "p2", "1", "2")
        assert code == 3

    def test_bad_size(self, capsys):
        code, _, err = run(capsys, "construct", "p3", "0", "2")
        assert code == 3


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

    def test_time_limit_flag(self, capsys):
        code, out, _ = run(capsys, "search", "-g", P4, "--max-size", "4", "--time-limit", "1e-9")
        assert json.loads(out)["exhausted"] is False

    def test_bad_family_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "search", "-g", P4, "--family", "zoo")
        assert code == 2

    def test_env_jobs_read_at_build(self, monkeypatch):
        monkeypatch.setenv("BUGRAPH_JOBS", "3")
        from bugraph.cli import build_parser

        args = build_parser().parse_args(["search", "-g", P4])
        assert args.jobs == 3

    def test_env_jobs_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("BUGRAPH_JOBS", "lots")
        from bugraph.cli import build_parser

        args = build_parser().parse_args(["search", "-g", P4])
        assert args.jobs == 1


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


def _run_python(*args) -> subprocess.CompletedProcess:
    # Put the directory of the bugraph imported here first on the child's
    # path, so the child runs the same code whatever the working directory.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(bugraph.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
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


@pytest.mark.skipif(shutil.which("bugraph") is None, reason="bugraph console script not installed")
def test_installed_console_script():
    proc = subprocess.run(["bugraph", "uniform", "-g", C4], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["uniform"] is True
