from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from runs import run_target

import reachfuzz.cli
from reachfuzz import executor
from reachfuzz.cfg import CapacityError, assign_block_tags, build_cfg, count_paths
from reachfuzz.cli import main
from reachfuzz.executor import DEFAULT_MAX_STEPS, GlobalMaps, compile_target
from reachfuzz.frontend import list_error_ids, parse_or_raise, reference_step
from reachfuzz.fuzzer import FuzzConfig, format_input, fuzz_loop, init_campaign
from reachfuzz.gen import generate_source
from reachfuzz.instrument import select_instrumentation
from reachfuzz.oracle import bfs_reachability

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


@pytest.mark.parametrize(
    "flag, value",
    [("--domain", "0"), ("--vars", "0"), ("--alphabet", "-1"), ("--depth", "0"), ("--errors", "-1")],
)
def test_gen_non_positive_parameter_exits_two(capsys, flag, value):
    code, out, err = run(capsys, "gen", flag, value)
    assert code == 2
    assert out == ""
    assert err == "cannot gen: generation parameters must be positive\n"


def test_gen_refuses_an_alphabet_check_would_reject(tmp_path, capsys):
    refused, largest = tmp_path / "refused.rrp", tmp_path / "largest.rrp"
    code, out, err = run(capsys, "gen", "--alphabet", "4097", "--out", str(refused))
    assert (code, out, err) == (2, "", "cannot gen: alphabet larger than 4096 symbols\n")
    assert not refused.exists()
    assert run(capsys, "gen", "--alphabet", "4096", "--out", str(largest))[0] == 0
    code, out, _ = run(capsys, "check", str(largest))
    assert code == 0 and "alphabet 1..4096" in out


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
    # the file name comes once, in place of render's "<input>"
    assert (code, out, err) == (1, "", f"{f}:1:29: error: duplicate declaration a\n")


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


def test_fuzz_into_an_earlier_campaign_leaves_only_its_own_files(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text(generate_source(seed=3))
    out_dir = tmp_path / "camp"
    corpus_sizes = []
    for budget in ("5000", "10"):
        code, _, _ = run(capsys, "fuzz", str(f), "--seed", "1",
                         "--max-execs", budget, "--out", str(out_dir))
        assert code == 0
        stats = json.loads((out_dir / "stats.json").read_text())
        corpus_sizes.append(stats["corpus_size"])
        if budget == "5000":
            assert stats["errors"]
            (out_dir / "queue" / "notes.txt").write_text("not a queue entry")
    # the second campaign is smaller: none of the first one's files stay
    assert corpus_sizes[0] > corpus_sizes[1]
    queue = sorted(p.name for p in (out_dir / "queue").iterdir())
    errors = sorted(p.name for p in (out_dir / "errors").iterdir())
    assert queue == sorted([f"id_{n}.txt" for n in range(corpus_sizes[1])] + ["notes.txt"])
    assert errors == sorted(f"error_{k}.txt" for k in stats["errors"])


def test_fuzz_budget_zero_reports_seeding(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text(generate_source(seed=3))
    out_dir = tmp_path / "camp0"
    code, out, _ = run(capsys, "fuzz", str(f), "--seed", "1",
                       "--max-execs", "0", "--out", str(out_dir))
    assert code == 0
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["execs"] == 0


@pytest.mark.parametrize(
    "flag, value",
    [("--max-seconds", "nan"), ("--max-seconds", "inf"), ("--max-seconds", "-1"),
     ("--max-execs", "-3")],
)
def test_fuzz_refuses_a_budget_that_cannot_end_the_campaign(tmp_path, capsys, flag, value):
    """A NaN or infinite time budget never ends the loop, and a negative
    one was once taken silently: each is refused with exit 2 before any
    campaign starts."""
    f = tmp_path / "p.rrp"
    f.write_text(generate_source(seed=3))
    out_dir = tmp_path / "camp"
    code, out, err = run(capsys, "fuzz", str(f), flag, value, "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith("cannot fuzz: ") and err.count("\n") == 1, err
    assert not out_dir.exists()


def test_fuzz_help_states_the_default_budget(capsys):
    with pytest.raises(SystemExit):
        main(["fuzz", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert out.count("exec budget is 100,000") == 2


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


def test_replay_rejects_a_non_integer_symbol(tmp_path, capsys):
    f = tmp_path / "p.rrp"
    f.write_text("inputs 1..5; var a = 0; step(in){ if (in == 2) { error 7; } }")
    w = tmp_path / "bad.txt"
    w.write_text("1 x 2\n")
    code, out, err = run(capsys, "replay", str(f), str(w))
    assert code == 2
    assert out == ""
    assert err.startswith(f"malformed {w}: ")
    assert "'x'" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    ["\u0663 +2 0_1\n", "1 +2\n", "0_1\n", "\uff12\n", "1\x1c2\n", "1\u20032\n"],
    ids=[
        "arabic-indic-signed-underscored", "signed", "underscored", "fullwidth",
        "file-separator", "em-space",
    ],
)
def test_replay_takes_only_ascii_decimal_symbols(tmp_path, capsys, text):
    """int() also reads an Arabic-Indic or fullwidth digit, a sign or an
    underscore, and str.split() also splits at non-ASCII whitespace; a
    campaign file holds none of them."""
    f = tmp_path / "p.rrp"
    f.write_text("inputs 1..5; var a = 0; step(in){ if (in == 2) { error 7; } }")
    w = tmp_path / "bad.txt"
    w.write_text(text)
    code, out, err = run(capsys, "replay", str(f), str(w))
    assert (code, out) == (2, "")
    assert err.startswith(f"malformed {w}: ")
    assert err.count("\n") == 1


# emits in a step that errors, rejects or completes
EMITS = (
    "inputs 1..5; var a = 0; step(in){ emit 4; if (in == 2) { emit 9; error 7; } "
    "if (in == 3) { reject; } a = a + in; }"
)


def target_lines(program, target, seq) -> str:
    """The lines of `replay` as one run of the campaign target gives them,
    merged into fresh maps. The target makes no outputs, so the AST
    interpreter gives those of the steps the target ran."""
    r = run_target(target, seq)
    new_branch, new_state = GlobalMaps().merge(bytearray(r.counts), r.touched, r.entries)
    ran = r.steps + (r.status in ("error", "invalid_input"))
    values, outputs = program.initial_values(), []
    for sym in seq[:ran]:
        _status, _err, values, emitted = reference_step(program, values, sym)
        outputs += emitted
    status = f"error({r.error_id})" if r.status == "error" else r.status
    return (
        f"status: {status}\nsteps: {r.steps}\noutputs: {' '.join(map(str, outputs))}\n"
        f"new_branch_bits: {str(new_branch).lower()}\nnew_state_bits: {str(new_state).lower()}\n"
    )


def test_replay_lines_match_one_campaign_target_run(tmp_path, capsys):
    """replay runs the AST interpreter, not the target: over generated
    programs and edge inputs its lines equal those of a target run."""
    texts = [EMITS] + [generate_source(seed=seed) for seed in range(6)]
    texts += [generate_source(vars=2, domain=3, alphabet=3, errors=4, seed=s) for s in range(4)]
    seen = set()
    for n, text in enumerate(texts):
        f = tmp_path / f"p{n}.rrp"
        f.write_text(text)
        p = parse_or_raise(text)
        lo, hi = p.alphabet_lo, p.alphabet_hi
        rnd = random.Random(n)
        seqs = [(), (lo - 1,), (hi + 1, lo), (lo, hi + 1)]
        # each symbol whose first step rejects or errors
        seqs += [(sym, lo) for sym in p.alphabet()
                 if reference_step(p, p.initial_values(), sym)[0] != "ok"]
        seqs += [(lo,) * (DEFAULT_MAX_STEPS + 3)]
        seqs += [tuple(rnd.randint(lo, hi) for _ in range(rnd.randint(1, 20))) for _ in range(6)]
        g = assign_block_tags(build_cfg(p), 0)
        target = compile_target(p, g, select_instrumentation(g))
        for seq in seqs:
            w = tmp_path / "input.txt"
            w.write_text(format_input(seq))
            code, out, err = run(capsys, "replay", str(f), str(w))
            assert (code, err) == (0, "")
            assert out == target_lines(p, target, seq), (n, seq[:8])
            seen.add(out.split("\n")[0].split("(")[0])
    assert seen == {"status: ok", "status: error", "status: invalid_input", "status: step_limit"}


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


@pytest.mark.parametrize(
    "caps, reason",
    [
        (["--state-cap", "0"], "state_cap is below 1 (0)"),
        (["--state-cap", "-5"], "state_cap is below 1 (-5)"),
        (["--depth-cap", "-1"], "depth_cap is negative (-1)"),
    ],
)
def test_oracle_refuses_a_meaningless_cap(tmp_path, capsys, caps, reason):
    f = tmp_path / "p.rrp"
    f.write_text("inputs 1..2; var c = 0; step(in){ c = c + 1; }")
    code, out, err = run(capsys, "oracle", str(f), *caps)
    assert (code, out, err) == (2, "", f"cannot oracle: {reason}\n")


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
    """report judges witnesses by the AST interpreter alone: it builds no
    plan and generates no code."""
    f = tmp_path / "p.rrp"
    f.write_text(generate_source(seed=3))
    out_dir = tmp_path / "camp"
    run(capsys, "fuzz", str(f), "--seed", "1",
        "--max-execs", "2000", "--out", str(out_dir))

    def no_plan(g):
        raise AssertionError("report must not select instrumentation")

    def no_codegen(*args):
        raise AssertionError("report must not generate code")

    monkeypatch.setattr(reachfuzz.cli, "select_instrumentation", no_plan)
    monkeypatch.setattr(executor, "_compile", no_codegen)
    code, out, _ = run(capsys, "report", str(out_dir), str(f))
    assert code == 0
    found = json.loads((out_dir / "stats.json").read_text())["errors"]
    ids = sorted(list_error_ids(parse_or_raise(f.read_text())))
    assert found
    assert out == "".join(
        f"{k},{'error_reachable' if str(k) in found else 'UNKNOWN'}\n" for k in ids
    )


TWO_ERRORS = "inputs 1..5; var a = 0; step(in){ if (in == 2) { error 7; } if (in == 3) { error 8; } }"


@pytest.mark.parametrize(
    "witness, got",
    [
        ([], "ok/None"),
        ([9], "invalid_input/None"),
        ([1] * (DEFAULT_MAX_STEPS + 1), "step_limit/None"),
        ([3], "error/8"),
        # the error lies past the step bound
        ([1] * DEFAULT_MAX_STEPS + [2], "step_limit/None"),
    ],
)
def test_report_rejects_witness_that_does_not_replay(tmp_path, capsys, witness, got):
    f = tmp_path / "p.rrp"
    f.write_text(TWO_ERRORS)
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
        ('{"errors": {"+7": {"witness": [2]}}}', "error id '+7' is not an integer"),
        ('{"errors": {"\u0667": {"witness": [2]}}}', "is not an integer"),
        ('{"errors": {" 7": {"witness": [2]}}}', "error id ' 7' is not an integer"),
    ],
    ids=[
        "truncated", "too-deep", "not-utf8", "array", "errors-array", "no-witness",
        "record-array", "string-symbol", "float-symbol", "witness-int", "named-id",
        "signed-id", "arabic-indic-id", "padded-id",
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
    assert "certificate: entry and the then-block of each of 25 branches" in out


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
    symbols = tmp_path / "input.txt"
    symbols.write_text("1 2\n")
    for argv in (
        ["fuzz", str(f), "--max-execs", "100", "--out", str(tmp_path / "out")],
        ["oracle", str(f)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(f"cannot {argv[0]} {f}: "), err
    # replay and report generate no code, so they take these programs
    code, out, err = run(capsys, "replay", str(f), str(symbols))
    assert (code, err) == (0, "")
    assert out.startswith("status: ")
    # with an empty campaign, every id is UNKNOWN
    camp = tmp_path / "camp"
    camp.mkdir()
    (camp / "stats.json").write_text('{"errors": {}}')
    code, out, err = run(capsys, "report", str(camp), str(f))
    assert (code, err) == (0, "")
    ids = sorted(list_error_ids(parse_or_raise(source)))
    assert out == "".join(f"{k},UNKNOWN\n" for k in ids)


def test_program_too_deep_to_compile_raises_capacity_error():
    """Every code generator refuses the 600-term sum with CapacityError,
    the oracle's expander included, not with a RecursionError."""
    program = parse_or_raise(long_sum(600))
    g = assign_block_tags(build_cfg(program), 0)
    for call in (
        lambda: compile_target(program, g, select_instrumentation(g)),
        lambda: bfs_reachability(program),
    ):
        with pytest.raises(CapacityError, match="nests too deeply to compile"):
            call()


def nested_sums(depth: int) -> str:
    """a grows by the input, through depth nested parenthesised sums."""
    e = "a"
    for _ in range(depth - 1):
        e = f"(0 + {e})"
    return (
        f"inputs 1..3; var a = 0; step(in){{ if (a < 6) {{ a = (in + {e}); }} "
        "if (a == 5) { error 1; } if (a == 4 && in == 3) { error 2; } }"
    )


def replays_to(program, witness) -> "int | None":
    values = program.initial_values()
    for sym in witness:
        status, error_id, values, _ = reference_step(program, values, sym)
        if status != "ok":
            return error_id
    return None


def test_200_nested_parenthesised_sums_fuzz_and_pass_the_oracle(tmp_path, capsys):
    f = tmp_path / "nested.rrp"
    f.write_text(nested_sums(200))
    assert f.read_text().count("(0 + ") == 199
    code, out, _ = run(capsys, "check", str(f))
    assert code == 0 and "2 error ids" in out
    program = parse_or_raise(nested_sums(200))
    oracle = bfs_reachability(program)
    assert oracle.complete and set(oracle.reachable) == {1, 2}
    campaign = init_campaign(program, FuzzConfig(), seed=0, max_execs=2000)
    found = fuzz_loop(campaign, max_execs=2000).errors
    assert set(found) == {1, 2}
    for k in (1, 2):
        assert replays_to(program, oracle.reachable[k]) == k
        assert replays_to(program, found[k].witness) == k


def console(*argv) -> "subprocess.CompletedProcess":
    """Run reachfuzz in a fresh interpreter at the stack depth of the
    console script, which sets how long an else-if chain can be."""
    path = [str(Path(reachfuzz.cli.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    launcher = "import sys; from reachfuzz.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", launcher, *argv], env=env, capture_output=True, text=True
    )


def test_984_arm_else_if_chain_fuzzes_and_reports(tmp_path):
    """fuzz, report and oracle take a 984-arm else-if chain, one arm short
    of the parser's limit, with a witness into its last arm."""
    arms = 984
    chain = " else ".join(f"if (in == {k}) {{ a = {k % 4}; }}" for k in range(arms - 1))
    f = tmp_path / "chain.rrp"
    f.write_text(
        f"inputs 0..{arms}; var a = 0; step(in){{ {chain} else if (in == {arms - 1}) {{ error 1; }} }}"
    )
    out_dir = tmp_path / "out"
    done = console("fuzz", str(f), "--max-execs", "2000", "--out", str(out_dir))
    assert done.returncode == 0, done.stderr
    done = console("report", str(out_dir), str(f))
    assert done.returncode == 0, done.stderr
    camp = tmp_path / "camp"
    camp.mkdir()
    (camp / "stats.json").write_text(json.dumps({"errors": {"1": {"witness": [arms - 1]}}}))
    done = console("report", str(camp), str(f))
    assert (done.returncode, done.stdout, done.stderr) == (0, "1,error_reachable\n", "")
    done = console("oracle", str(f))
    assert done.returncode == 0, done.stderr
    assert f"error 1: reachable, witness={arms - 1}, len=1" in done.stdout
