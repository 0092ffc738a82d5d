"""Command line behavior: run/verify subcommands, output files, exit
codes, and determinism of written traces."""

import json
import os
import subprocess
import sys

import pytest

from depsim import scenario
from depsim.cli import main
from depsim.tracing import read_rows

SCENARIO = """
name: cli-case
until: 300
clusters:
  - id: c0
    nodes: [a, b, c]
detector:
  gossip_interval: 5
  t_min: 15
  t_bootstrap: 50
services:
  - id: kv1
    table: {get: v1}
containers:
  - id: store
    strategy: failover
    timeout: 10
    replicas:
      - {host: b, service: kv1}
workload:
  invocations:
    - {client: a, container: store, request: get, start: 20, period: 50}
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "case.yaml"
    path.write_text(SCENARIO)
    return str(path)


def test_run_summary_line(scenario_file, capsys):
    assert main(["run", "--scenario", scenario_file]) == 0
    out = capsys.readouterr().out
    assert out == "scenario=cli-case seed=0 until=300 events=" + out.split("events=")[1]
    assert int(out.split("events=")[1]) > 0


def test_run_quiet(scenario_file, capsys):
    assert main(["run", "--scenario", scenario_file, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_run_seed_and_until_overrides(scenario_file, capsys):
    assert main(["run", "--scenario", scenario_file, "--seed", "9", "--until", "120"]) == 0
    out = capsys.readouterr().out
    assert "seed=9" in out and "until=120" in out


def test_run_writes_trace_and_metrics(scenario_file, tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    metrics_path = tmp_path / "metrics.json"
    code = main(
        [
            "run",
            "--scenario",
            scenario_file,
            "--trace-out",
            str(trace_path),
            "--metrics-out",
            str(metrics_path),
            "--quiet",
        ]
    )
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert lines and json.loads(lines[0])["seq"] == 0
    report = json.loads(metrics_path.read_text())
    assert report["scenario"] == "cli-case"
    assert report["events"] == len(lines) == len(list(read_rows(str(trace_path))))
    assert report["invocations"]["success"] > 0


def test_run_traces_are_byte_identical_per_seed(scenario_file, tmp_path, capsys):
    paths = [tmp_path / "t1.jsonl", tmp_path / "t2.jsonl", tmp_path / "t3.jsonl"]
    for p in paths[:2]:
        assert main(["run", "--scenario", scenario_file, "--seed", "5", "--trace-out", str(p), "--quiet"]) == 0
    assert main(["run", "--scenario", scenario_file, "--seed", "6", "--trace-out", str(paths[2]), "--quiet"]) == 0
    b1, b2, b3 = (p.read_bytes() for p in paths)
    assert b1 == b2
    assert b1 != b3


def test_run_verify_ok(scenario_file, capsys):
    assert main(["run", "--scenario", scenario_file, "--verify"]) == 0
    assert "verify: ok" in capsys.readouterr().out


def test_run_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("until: -5\nclusters:\n  - id: c\n    nodes: [a]\n")
    assert main(["run", "--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and "until" in err


@pytest.mark.parametrize("until", ["0", "-1"])
def test_run_rejects_until_below_one(scenario_file, tmp_path, capsys, until):
    trace_path = tmp_path / "out.jsonl"
    assert main(["run", "--scenario", scenario_file, "--until", until, "--trace-out", str(trace_path)]) == 2
    assert capsys.readouterr().err == f"scenario error: --until: must be >= 1, got {until}\n"
    assert not trace_path.exists()  # rejected before the run


def test_run_rejects_negative_seed(scenario_file, tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    assert main(["run", "--scenario", scenario_file, "--seed", "-1", "--trace-out", str(trace_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no summary line: nothing was simulated
    assert captured.err == "scenario error: --seed: must be >= 0, got -1\n"
    assert not trace_path.exists()


@pytest.mark.parametrize("flag", ["--trace-out", "--metrics-out"])
def test_run_rejects_output_in_missing_directory(scenario_file, tmp_path, capsys, flag):
    out = tmp_path / "missing" / "out.json"
    assert main(["run", "--scenario", scenario_file, flag, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no summary line: nothing was simulated
    assert captured.err == f"output error: {flag}: no directory for {out}\n"


@pytest.mark.parametrize("flag", ["--trace-out", "--metrics-out"])
def test_run_rejects_output_that_is_a_directory(scenario_file, tmp_path, capsys, flag):
    assert main(["run", "--scenario", scenario_file, flag, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no summary line: nothing was simulated
    assert captured.err == f"output error: {flag}: {tmp_path} is a directory\n"


@pytest.mark.parametrize("spelling", ["same", "dot-slash", "symlink", "hardlink"])
def test_run_rejects_trace_and_metrics_in_one_file(scenario_file, tmp_path, capsys, monkeypatch, spelling):
    """The report would overwrite the trace; the two outputs must name
    different files however the second one is spelt."""
    monkeypatch.chdir(tmp_path)
    other = {"same": "out.jsonl", "dot-slash": "./out.jsonl", "symlink": "link.jsonl", "hardlink": "hl.jsonl"}[spelling]
    if spelling == "symlink":
        (tmp_path / "link.jsonl").symlink_to(tmp_path / "out.jsonl")
    if spelling == "hardlink":  # two names of one existing file
        (tmp_path / "out.jsonl").write_text("old\n")
        os.link(tmp_path / "out.jsonl", tmp_path / "hl.jsonl")
    assert main(["run", "--scenario", scenario_file, "--trace-out", "out.jsonl", "--metrics-out", other]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no summary line: nothing was simulated
    assert captured.err == "output error: --trace-out and --metrics-out name the same file\n"
    if spelling == "hardlink":
        assert (tmp_path / "out.jsonl").read_text() == "old\n"
    else:
        assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("spelling", ["same", "dot-slash", "symlink", "hardlink"])
@pytest.mark.parametrize("flag", ["--trace-out", "--metrics-out"])
def test_run_rejects_output_that_is_the_scenario_file(scenario_file, tmp_path, capsys, monkeypatch, flag, spelling):
    """An output must not overwrite the scenario it was run from."""
    monkeypatch.chdir(tmp_path)
    out = {"same": scenario_file, "dot-slash": "./case.yaml", "symlink": "link.yaml", "hardlink": "hl.yaml"}[spelling]
    if spelling == "symlink":
        (tmp_path / "link.yaml").symlink_to(scenario_file)
    if spelling == "hardlink":
        os.link(scenario_file, tmp_path / "hl.yaml")
    assert main(["run", "--scenario", scenario_file, flag, out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no summary line: nothing was simulated
    assert captured.err == f"output error: {flag}: {out} is the scenario file\n"
    assert (tmp_path / "case.yaml").read_text() == SCENARIO


def test_until_extends_open_ended_invocations(tmp_path, capsys):
    """A periodic invocation without ``stop`` runs to the end of the run,
    so a later --until issues more of them and an earlier one fewer."""
    path = tmp_path / "open.yaml"
    path.write_text(SCENARIO.replace("start: 20, period: 50", "start: 0, period: 10"))
    metrics = tmp_path / "m.json"
    for until, total in (([], 30), (["--until", "600"], 60), (["--until", "95"], 10)):
        assert main(["run", "--scenario", str(path), "--metrics-out", str(metrics), "--quiet"] + until) == 0
        assert json.loads(metrics.read_text())["invocations"]["total"] == total


def test_until_is_bounded_by_the_expansion_limit(tmp_path, capsys, monkeypatch):
    """The file's 30 invocations fit under the limit; the 100 that
    --until 1000 expands to do not."""
    monkeypatch.setattr(scenario, "MAX_EXPANDED_EVENTS", 50)
    path = tmp_path / "open.yaml"
    path.write_text(SCENARIO.replace("start: 20, period: 50", "start: 0, period: 10"))
    assert main(["run", "--scenario", str(path), "--quiet"]) == 0
    assert main(["run", "--scenario", str(path), "--until", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("scenario error: workload.invocations[0]: scripted events would reach ")


@pytest.mark.parametrize("depth", [2_000, 30_000])
def test_run_rejects_deeply_nested_scenario(tmp_path, depth):
    # A child process, because a composer that met this depth would crash
    # the interpreter or exhaust its stack rather than raise.
    deep = tmp_path / "deep.yaml"
    deep.write_text("scenario: " + "[" * depth + "]" * depth + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "depsim.cli", "run", "--scenario", str(deep)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr == "scenario error: file: line 1: nested deeper than 64 levels\n"


def test_run_names_the_scenario_file_in_a_syntax_error(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("until: [unclosed\n")
    assert main(["run", "--scenario", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f'scenario error: file: not valid YAML/JSON: while parsing a flow sequence in "{bad}", line 1')
    assert captured.err.count("\n") == 1


def test_run_rejects_missing_file(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.yaml")]) == 2


@pytest.mark.parametrize("command", ["run", "verify"])
def test_scenario_that_is_not_utf8_is_rejected(scenario_file, tmp_path, capsys, command):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"\xff\xfe" + SCENARIO.encode())
    trace_path = tmp_path / "out.jsonl"
    main(["run", "--scenario", scenario_file, "--trace-out", str(trace_path), "--quiet"])
    args = ["--scenario", str(bad)] + (["--trace", str(trace_path)] if command == "verify" else [])
    assert main([command] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: file: {bad} is not valid UTF-8")
    assert err.count("\n") == 1


def test_verify_subcommand_ok(scenario_file, tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    main(["run", "--scenario", scenario_file, "--trace-out", str(trace_path), "--quiet"])
    assert main(["verify", "--trace", str(trace_path), "--scenario", scenario_file]) == 0
    assert "verify: ok" in capsys.readouterr().out


def test_verify_flags_corrupted_trace(scenario_file, tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    main(["run", "--scenario", scenario_file, "--trace-out", str(trace_path), "--quiet"])
    # drop every deliver's matching send: causality must trip
    lines = trace_path.read_text().splitlines()
    kept = [ln for ln in lines if '"kind":"send"' not in ln]
    assert len(kept) < len(lines)
    corrupted = tmp_path / "corrupt.jsonl"
    corrupted.write_text("\n".join(kept) + "\n")
    assert main(["verify", "--trace", str(corrupted), "--scenario", scenario_file]) == 3
    err = capsys.readouterr().err
    assert "violation causality:" in err


def test_verify_counts_the_entries_of_the_file(scenario_file, tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    main(["run", "--scenario", scenario_file, "--trace-out", str(trace_path), "--quiet"])
    lines = trace_path.read_text().splitlines()
    trace_path.write_text("\n".join(lines[:5] + [""] + lines[5:]) + "\n")  # a blank line is no entry
    assert main(["verify", "--trace", str(trace_path)]) == 0
    assert capsys.readouterr().out == f"verify: ok ({len(lines)} entries)\n"


def test_verify_reports_a_malformed_last_line_not_earlier_violations(scenario_file, tmp_path, capsys):
    """The trace streams through the checks, but a bad line anywhere
    makes the file unusable: exit 2 and no violation is printed."""
    trace_path = tmp_path / "out.jsonl"
    main(["run", "--scenario", scenario_file, "--trace-out", str(trace_path), "--quiet"])
    lines = trace_path.read_text().splitlines()
    first_send = next(i for i, ln in enumerate(lines) if '"kind":"send"' in ln)
    del lines[first_send]  # its delivery now breaks causality early on
    lines.append('{"t": 999, "seq": 0, "kind": "x"')
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--trace", str(trace_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"trace error: line {len(lines)}: ")
    assert "violation" not in captured.err and captured.out == ""
    del lines[-1]
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--trace", str(trace_path)]) == 3
    assert "violation causality:" in capsys.readouterr().err


def test_verify_rejects_garbage_trace(tmp_path, capsys):
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("this is not json\n")
    assert main(["verify", "--trace", str(garbage)]) == 2
    assert "trace error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, problem",
    [
        ({"t": 3, "seq": 0, "kind": "send", "detail": {"dst": "b", "msg": "M", "msg_id": 0}}, "missing field 'node'"),
        ({"t": 3, "seq": 0, "kind": "suspect", "node": "a", "detail": {"gap": 40}}, "suspect entry needs detail.peer"),
        ({"t": 3, "seq": 0, "kind": "deliver", "node": "b", "detail": {"msg_id": [1]}}, "deliver entry needs detail.msg_id"),
        ({"t": 3, "seq": 0, "kind": "alert_operator", "node": "a", "detail": {"plan": {}}}, "alert_operator entry needs detail.plan"),
        (b"\xff\xfe{}\n", "not valid UTF-8"),
        pytest.param(
            b'{"t": 3, "seq": 0, "kind": "note", "node": "a", "detail": {"x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}}\n",
            "maximum recursion depth exceeded",
            id="deep-nesting",
        ),
    ],
)
def test_verify_rejects_malformed_entry(tmp_path, capsys, entry, problem):
    trace_path = tmp_path / "bad.jsonl"
    trace_path.write_bytes(entry if isinstance(entry, bytes) else (json.dumps(entry) + "\n").encode())
    assert main(["verify", "--trace", str(trace_path)]) == 2
    assert f"trace error: line 1: {problem}" in capsys.readouterr().err


def test_verify_quiet(scenario_file, tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    main(["run", "--scenario", scenario_file, "--trace-out", str(trace_path), "--quiet"])
    assert main(["verify", "--trace", str(trace_path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_console_script_entry_point(scenario_file):
    proc = subprocess.run(
        [sys.executable, "-m", "depsim.cli", "run", "--scenario", scenario_file, "--verify"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify: ok" in proc.stdout
