from __future__ import annotations

import json

import pytest

import reachfuzz.cli
from reachfuzz.cfg import build_cfg, count_paths
from reachfuzz.cli import main
from reachfuzz.executor import DEFAULT_MAX_STEPS
from reachfuzz.frontend import list_error_ids, parse_or_raise
from reachfuzz.gen import generate_source

BAD = "inputs 1..5; var a = 1; var a = 2; step(in){}"
# 25 sequential ifs: 2^25 step paths, past any path-enumeration budget
MANY_IFS = (
    "inputs 1..5; var a = 0; step(in){ "
    + " ".join(f"if (in == {k % 5 + 1}) {{ a = {k % 7}; }}" for k in range(24))
    + " if (a == 6) { error 1; } }"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_prints_source(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "3")
    assert code == 0
    assert out == generate_source(seed=3)
    parse_or_raise(out)


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "prog.rrp"
    code, out, _ = run(capsys, "gen", "--seed", "4", "--out", str(target))
    assert code == 0
    assert target.read_text() == generate_source(seed=4)


def test_check_valid_program(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text(generate_source(seed=1))
    code, out, _ = run(capsys, "check", str(f))
    assert code == 0
    assert "ok" in out and "alphabet 1..5" in out


def test_check_invalid_program_exit_one(tmp_path, capsys):
    f = tmp_path / "bad.rrp"
    f.write_text(BAD)
    code, out, err = run(capsys, "check", str(f))
    assert code == 1
    assert "duplicate declaration" in out + err


def test_check_missing_file_exit_two(capsys):
    code, out, err = run(capsys, "check", "no_such_file.rrp")
    assert code == 2


def test_analyze_reports_plan_size(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text(
        "inputs 1..5; var a = 0; step(in){ if (in == 3) { a = 2; } else { a = 1; } }"
    )
    code, out, _ = run(capsys, "analyze", str(f), "--plan")
    assert code == 0
    assert "|S| = 2" in out
    assert "certificate" in out


def test_analyze_intervals_and_cfg(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text("inputs 1..5; var a = 1; step(in){ if (in == 1) { a = 2; } }")
    code, out, _ = run(capsys, "analyze", str(f), "--intervals", "--cfg")
    assert code == 0
    assert "a: [1, 2]" in out
    assert "block 0" in out


def test_fuzz_writes_campaign_and_summary(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text(generate_source(seed=3))
    out_dir = tmp_path / "camp"
    code, out, _ = run(capsys, "fuzz", str(f), "--seed", "1",
                       "--max-execs", "800", "--out", str(out_dir))
    assert code == 0
    assert "errors in" in out and "execs" in out
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["execs"] >= 800
    assert (out_dir / "timing.json").exists()


def test_fuzz_budget_zero_reports_seeding(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text(generate_source(seed=3))
    out_dir = tmp_path / "camp0"
    code, out, _ = run(capsys, "fuzz", str(f), "--seed", "1",
                       "--max-execs", "0", "--out", str(out_dir))
    assert code == 0
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["execs"] == 0


def test_replay_prints_status_and_novelty(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text("inputs 1..5; var a = 0; step(in){ if (in == 2) { error 7; } }")
    w = tmp_path / "input.txt"
    w.write_text("1 2\n")
    code, out, _ = run(capsys, "replay", str(f), str(w))
    assert code == 0
    assert "status: error(7)" in out
    assert "steps: 1" in out
    assert "new_branch_bits" in out


def test_oracle_lists_witnesses(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text(
        "inputs 1..2; var s = 0; step(in){ "
        "if (s == 1) { if (in == 2) { error 7; } } "
        "if (in == 1) { s = 1; } }"
    )
    code, out, _ = run(capsys, "oracle", str(f))
    assert code == 0
    assert "error 7: reachable, witness=1 2, len=2" in out


def test_report_csv_ascending_and_verified(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text(generate_source(seed=3))
    out_dir = tmp_path / "camp"
    run(capsys, "fuzz", str(f), "--seed", "1",
        "--max-execs", "2000", "--out", str(out_dir))
    code, out, _ = run(capsys, "report", str(out_dir), str(f))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    ids = [int(l.split(",")[0]) for l in lines]
    assert ids == sorted(ids) == list(range(1, 11))
    for line in lines:
        k, verdict = line.split(",")
        assert verdict in ("error_reachable", "UNKNOWN")
    assert any(l.endswith("error_reachable") for l in lines)


def test_report_replays_without_a_plan(tmp_path, capsys, monkeypatch):
    f = tmp_path / "p.rrp"
    f.write_text(generate_source(seed=3))
    out_dir = tmp_path / "camp"
    run(capsys, "fuzz", str(f), "--seed", "1",
        "--max-execs", "2000", "--out", str(out_dir))

    def no_plan(g):
        raise AssertionError("report must not select instrumentation")

    monkeypatch.setattr(reachfuzz.cli, "select_instrumentation", no_plan)
    code, out, _ = run(capsys, "report", str(out_dir), str(f))
    assert code == 0
    found = json.loads((out_dir / "stats.json").read_text())["errors"]
    ids = sorted(list_error_ids(parse_or_raise(f.read_text())))
    assert found
    assert out == "".join(
        f"{k},{'error_reachable' if str(k) in found else 'UNKNOWN'}\n" for k in ids
    )


@pytest.mark.parametrize(
    "witness, got",
    [
        ([], "ok/None"),
        ([9], "invalid_input/None"),
        ([1] * (DEFAULT_MAX_STEPS + 1), "step_limit/None"),
    ],
)
def test_report_rejects_witness_that_does_not_replay(tmp_path, capsys, witness, got):
    f = tmp_path / "p.rrp"
    f.write_text("inputs 1..5; var a = 0; step(in){ if (in == 2) { error 7; } }")
    out_dir = tmp_path / "camp"
    out_dir.mkdir()
    stats = {"errors": {"7": {"witness": witness}}}
    (out_dir / "stats.json").write_text(json.dumps(stats))
    code, out, err = run(capsys, "report", str(out_dir), str(f))
    assert code == 2
    assert out == ""
    assert f"witness for error 7 does not replay (got {got})" in err


@pytest.mark.parametrize(
    "stats, reason",
    [
        ('{"errors": ', "Expecting value"),
        ("[" * 100_000, "recursion"),
        (b'{"errors": {"7": {"witness": [2]}}}\xff', "can't decode"),
        ("[1, 2]", "the top-level value is not an object"),
        ('{"errors": [1]}', '"errors" is not an object'),
        ('{"errors": {"7": {"exec_index": 3}}}', "the witness of error 7 is not a list of integers"),
        ('{"errors": {"7": [2]}}', "the witness of error 7 is not a list of integers"),
        ('{"errors": {"7": {"witness": [2, "x"]}}}', "the witness of error 7 is not a list"),
        ('{"errors": {"7": {"witness": [2.0]}}}', "the witness of error 7 is not a list"),
        ('{"errors": {"7": {"witness": 2}}}', "the witness of error 7 is not a list"),
        ('{"errors": {"seven": {"witness": [2]}}}', "error id 'seven' is not an integer"),
    ],
    ids=[
        "truncated", "too-deep", "not-utf8", "array", "errors-array", "no-witness",
        "record-array", "string-symbol", "float-symbol", "witness-int", "named-id",
    ],
)
def test_report_rejects_malformed_stats(tmp_path, capsys, stats, reason):
    f = tmp_path / "p.rrp"
    f.write_text("inputs 1..5; var a = 0; step(in){ if (in == 2) { error 7; } }")
    out_dir = tmp_path / "camp"
    out_dir.mkdir()
    path = out_dir / "stats.json"
    if isinstance(stats, bytes):
        path.write_bytes(stats)
    else:
        path.write_text(stats)
    code, out, err = run(capsys, "report", str(out_dir), str(f))
    assert code == 2
    assert out == ""
    assert err.startswith(f"malformed {path}: ")
    assert reason in err
    assert err.count("\n") == 1


def test_many_path_program_fuzzes_and_plans(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text(MANY_IFS)
    assert count_paths(build_cfg(parse_or_raise(MANY_IFS))) == 2**25
    code, out, _ = run(capsys, "fuzz", str(f), "--max-execs", "2000",
                       "--out", str(tmp_path / "camp"))
    assert code == 0
    assert "errors in" in out
    code, out, _ = run(capsys, "analyze", str(f), "--plan")
    assert code == 0
    assert "certificate: segment counts" in out


def test_report_missing_campaign_exit_two(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text(generate_source(seed=3))
    code, out, err = run(capsys, "report", str(tmp_path / "nope"), str(f))
    assert code == 2


def test_main_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit):
        main(["garbage"])


def nested_ifs(depth: int) -> str:
    return (
        "inputs 1..2; var a = 0; step(in){ "
        + "if (a < 5) { " * depth + "a = in; " + "} " * depth
        + "if (a == 2) { error 1; } }"
    )


def long_sum(terms: int) -> str:
    return "inputs 1..2; var a = 0; step(in){ a = " + " + ".join(["a"] * terms) + "; }"


@pytest.mark.parametrize("command", ["check", "fuzz", "oracle"])
def test_program_too_deep_to_parse_is_a_diagnostic(tmp_path, capsys, command):
    """400 nested ifs overflow the recursive-descent parser: a diagnostic
    and exit 1, not a RecursionError."""
    f = tmp_path / "deep.rrp"
    f.write_text(nested_ifs(400))
    extra = ["--out", str(tmp_path / "camp")] if command == "fuzz" else []
    code, out, err = run(capsys, command, str(f), *extra)
    assert code == 1
    assert "error: program nests too deeply" in err


@pytest.mark.parametrize(
    "source",
    [nested_ifs(120), long_sum(400), long_sum(600)],
    # past Python's 100 indentation levels and 200 nested parentheses, and
    # past the recursion limit while the oracle's expander folds the sum
    ids=["120-nested-ifs", "400-term-sum", "600-term-sum"],
)
def test_program_too_deep_to_compile_exits_two(tmp_path, capsys, source):
    f = tmp_path / "deep.rrp"
    f.write_text(source)
    assert run(capsys, "check", str(f))[0] == 0
    camp = tmp_path / "camp"
    camp.mkdir()
    (camp / "stats.json").write_text('{"errors": {}}')
    symbols = tmp_path / "input.txt"
    symbols.write_text("1 2\n")
    for argv in (
        ["fuzz", str(f), "--max-execs", "100", "--out", str(tmp_path / "out")],
        ["replay", str(f), str(symbols)],
        ["oracle", str(f)],
        ["report", str(camp), str(f)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(f"cannot {argv[0]} {f}: "), err

