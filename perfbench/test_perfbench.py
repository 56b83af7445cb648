"""Tests of the benchmark's own checks, and a tiny run of each workload.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reachfuzz import analyze, bfs_reachability, cli, parse_or_raise  # noqa: E402

import judge  # noqa: E402
import workloads  # noqa: E402

# Error 1 needs symbol 2 and then symbol 3: shortest witness (2, 3).
SOURCE = """
inputs 1..3;
var a = 0;
step(x) {
    if (x == 2) { a = 1; }
    if (a == 1 && x == 3) { error 1; }
}
"""
PROGRAM = parse_or_raise(SOURCE)


def _spec(section: str) -> "set[str]":
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


def test_witness_with_changed_last_symbol_is_rejected():
    assert judge.check_fuzzer_witness(PROGRAM, 1, (2, 3)) == 2
    with pytest.raises(judge.CheckFailed):
        judge.check_fuzzer_witness(PROGRAM, 1, (2, 1))
    judge.check_oracle(PROGRAM, {1: (2, 3)}, True, {1})
    with pytest.raises(judge.CheckFailed):
        judge.check_oracle(PROGRAM, {1: (2, 1)}, True, {1})


def test_fuzzer_witness_counts_steps_up_to_its_error():
    # symbols after the error are never executed
    assert judge.check_fuzzer_witness(PROGRAM, 1, (1, 2, 3, 1, 1)) == 3


def test_valuation_outside_the_interval_bounds_is_rejected():
    bounds = analyze(PROGRAM).global_bounds
    entry = (0, 0, 1)
    judge.check_key_cache(PROGRAM, {(0,): entry, (1,): entry}, bounds, 2)
    with pytest.raises(judge.CheckFailed):
        judge.check_key_cache(PROGRAM, {(2,): entry}, bounds, 2)


def test_more_valuations_than_oracle_states_is_rejected():
    bounds = analyze(PROGRAM).global_bounds
    with pytest.raises(judge.CheckFailed):
        judge.check_key_cache(PROGRAM, {(0,): (0, 0, 1), (1,): (0, 0, 1)}, bounds, 1)


def test_id_missing_from_the_oracle_set_is_rejected():
    with pytest.raises(judge.CheckFailed):
        judge.check_discoveries({1: 2}, {})


def test_fuzzer_witness_shorter_than_the_oracles_is_rejected():
    judge.check_discoveries({1: 2}, {1: (2, 3)})
    with pytest.raises(judge.CheckFailed):
        judge.check_discoveries({1: 1}, {1: (2, 3)})


def test_incomplete_oracle_is_rejected():
    with pytest.raises(judge.CheckFailed):
        judge.check_oracle(PROGRAM, {1: (2, 3)}, False, {1})


@pytest.mark.parametrize(
    "csv_text, written",
    [
        ("1,error_reachable\n1,error_reachable\n", [1]),  # listed twice
        ("", []),  # id missing
        ("1,UNKNOWN\n", [1]),  # witness file without a verdict
        ("1,error_reachable\n", []),  # verdict without a witness file
        ("1,maybe\n", []),
    ],
)
def test_report_check_rejects(csv_text, written):
    with pytest.raises(judge.CheckFailed):
        judge.check_report(csv_text, {1}, written)


def test_report_check_accepts():
    judge.check_report("1,error_reachable\n2,UNKNOWN\n", {1, 2}, [1])


def test_oracle_output_reads_back(capsys, tmp_path):
    path = tmp_path / "p.rrp"
    path.write_text(SOURCE)
    assert cli.main(["oracle", str(path)]) == 0
    reachable, complete, states = judge.parse_oracle_output(capsys.readouterr().out)
    expected = bfs_reachability(PROGRAM)
    assert (reachable, complete, states) == (
        expected.reachable, expected.complete, expected.explored_states)


def test_clock_restores_the_alarm_and_samples_during_the_call():
    clock = workloads.Clock()
    handler = signal.getsignal(signal.SIGALRM)
    out, seconds = clock.call(lambda: time.sleep(0.35) or 7)
    assert out == 7 and seconds > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # two passes before, two after, and about three during the call
    assert len(clock.passes) >= 6


def _tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, gen_seeds=w.gen_seeds[:1], budget=300)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_clean(name, tmp_path):
    result = workloads.run(_tiny(name), seed=0, seconds=0, trace=False, out_dir=tmp_path, import_s=0.0)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert set(result["metrics"]) == _spec("end_to_end")
    metrics = result["metrics"]
    assert min(metrics[k] for k in ("wall_s", "setup_s", "execs_per_s", "peak_rss_mb")) > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_traced(name, tmp_path):
    result = workloads.run(_tiny(name), seed=0, seconds=0, trace=True, out_dir=tmp_path, import_s=0.0)
    # one untraced and one traced round; the traced one checks that the
    # wrapper counted one target call per campaign exec
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    metrics = result["metrics"]
    assert set(metrics) == _spec("per_layer")
    assert metrics["executor.target_calls"] > 0
    assert metrics["instrument.select_s"] > 0
    assert (tmp_path / "spans_seed0.jsonl").is_file()


def test_failed_check_marks_the_run_incorrect(monkeypatch, tmp_path):
    def reject(*args):
        raise judge.CheckFailed("rejected")

    monkeypatch.setattr(judge, "check_key_cache", reject)
    result = workloads.run(_tiny("family"), seed=0, seconds=0, trace=False, out_dir=tmp_path, import_s=0.0)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
