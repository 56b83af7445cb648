"""scripts/bench_pairs.py on two stub checkouts whose perfbench/run.py
prints a fixed result line."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

BENCHMARK = {
    "end_to_end": [
        {"name": "wall_s", "better": "lower"},
        {"name": "execs_per_s", "better": "higher"},
        {"name": "errors_found", "better": "higher"},
    ],
    "per_layer": [],
}

RUN_PY = '''import json, sys
args = sys.argv[1:]
opt = dict(zip(args[::2], args[1::2]))
with open({log!r}, "a") as f:
    f.write({side!r} + " " + " ".join(args) + "\\n")
seed = int(opt["--seed"])
metrics = {{"wall_s": {wall} + seed % 2, "execs_per_s": {rate} + seed, "errors_found": 7}}
print("a progress line")
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": "u"}} for k, v in metrics.items()}}}}))
'''


def stub(root: Path, side: str, log: Path, wall: float, rate: float) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "scripts").mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (root / "perfbench" / "run.py").write_text(
        RUN_PY.format(log=str(log), side=side, wall=wall, rate=rate))
    (root / "scripts" / "campaign_digest.py").write_text(f"print('campaigns {side}')\n")
    return root


def bench(tmp_path, *args, check=True):
    return subprocess.run([sys.executable, str(SCRIPT), "--parent", str(tmp_path / "p"),
                           "--change", str(tmp_path / "c"), *args], check=check, cwd=tmp_path,
                          capture_output=True, text=True)


def test_pairs_alternate_and_summarize(tmp_path):
    log = tmp_path / "log.txt"
    stub(tmp_path / "p", "parent", log, wall=2.0, rate=100.0)
    stub(tmp_path / "c", "change", log, wall=1.5, rate=99.0)
    out = tmp_path / "BENCH_stub.json"
    bench(tmp_path, "--workload", "deep-state", "--pairs", "3", "--first-seed", "10",
          "--seconds", "2", "--out", str(out), "--digests")
    assert log.read_text().splitlines() == [
        f"{side} --workload deep-state --seed {seed} --seconds 2.0 --trace 0"
        for side, seed in [("parent", 10), ("change", 10), ("change", 11), ("parent", 11),
                           ("parent", 12), ("change", 12)]
    ]
    doc = json.loads(out.read_text())
    assert list(doc) == ["label", "what", "command", "machine", "order", "digests",
                         "summary", "runs"]
    assert doc["label"] == "stub"
    assert doc["digests"]["parent"] == ["campaigns parent"]
    assert doc["digests"]["change"] == ["campaigns change"]
    runs = doc["runs"]["trace 0"]
    assert [(r["side"], r["seed"]) for r in runs][:2] == [("parent", 10), ("change", 10)]
    assert runs[0] == {"workload": "deep-state", "side": "parent", "seed": 10, "seconds": 2.0,
                       "correct": True, "attempted": 4, "failed": 0,
                       "metrics": {"wall_s": 2.0, "execs_per_s": 110.0, "errors_found": 7}}
    summary = doc["summary"]["trace 0"]["deep-state"]
    assert summary["wall_s"] == {"parent_median": 2.0, "change_median": 1.5,
                                 "change_better_pairs": "3 of 3"}
    assert summary["execs_per_s"] == {"parent_median": 111.0, "change_median": 110.0,
                                      "change_better_pairs": "0 of 3"}
    assert summary["errors_found"]["change_better_pairs"] == "0 of 3"

    # a set that repeats a seed already in the file is refused before it runs
    before, ran = out.read_text(), log.read_text()
    refused = bench(tmp_path, "--workload", "deep-state", "--pairs", "2", "--first-seed", "12",
                    "--out", str(out), check=False)
    assert refused.returncode == 2
    assert "already has trace 0 deep-state runs of seeds 12" in refused.stderr
    assert out.read_text() == before and log.read_text() == ran

    # other sets join the file, each run with its own seconds
    bench(tmp_path, "--workload", "family", "--pairs", "1", "--first-seed", "10",
          "--out", str(out), "--trace", "1")
    bench(tmp_path, "--workload", "deep-state", "--pairs", "1", "--first-seed", "14",
          "--seconds", "3", "--out", str(out))
    doc = json.loads(out.read_text())
    assert sorted(doc["runs"]) == ["trace 0", "trace 1"]
    assert len(doc["runs"]["trace 0"]) == 8 and len(doc["runs"]["trace 1"]) == 2
    assert [r["seconds"] for r in doc["runs"]["trace 0"]] == [2.0] * 6 + [3.0] * 2
    assert doc["label"] == "stub"
    assert doc["digests"]["change"] == ["campaigns change"]
    assert doc["summary"]["trace 1"]["family"]["wall_s"]["change_better_pairs"] == "1 of 1"
    assert doc["summary"]["trace 0"]["deep-state"]["wall_s"]["change_better_pairs"] == "4 of 4"
    assert "trace 0 deep-state seeds 10-12, 14; trace 1 family seeds 10" in doc["order"]
