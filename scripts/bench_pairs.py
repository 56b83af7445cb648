"""Run the benchmark on two checkouts in alternating pairs and write a
BENCH_*.json file.

Usage:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload deep-state --pairs 10 --first-seed 7201 \\
        --out BENCH_name.json [--seconds 10] [--trace 0] [--digests] \\
        [--what "what the change does"] [--machine "..."]

Pair i runs `python3 perfbench/run.py --workload <w> --seed <first-seed
+ i> --seconds <s> --trace <t>` in both checkouts, one process at a
time: the parent first in even pairs (the first pair included), the
change first in odd ones. Each run's last stdout line is its result.

The file's label is the --out name after BENCH_. When --out already
exists, the new runs are appended to its runs, so one file can collect
several workloads and both trace levels; a set that repeats a trace
level, workload and seed already in the file is refused before anything
runs, so every run made stays in the file. Each run records its
--seconds. The summary is recomputed from all runs: per trace level, workload and metric, the
median of each side and `change_better_pairs`, "k of n": the pairs in
which the change's value is strictly better, in the direction that the
change checkout's BENCHMARK.json gives the metric. With --digests, each
checkout's `scripts/campaign_digest.py` also runs, and its output lines
are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIGEST_COMMAND = "PYTHONPATH=src python3 scripts/campaign_digest.py"


def _env() -> dict:
    """The environment of a benchmark process: this one's, less
    PYTHONPATH, since run.py puts its own checkout's sources first."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in checkout, as a record of the runs list."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, env=_env(), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def run_pairs(checkouts: dict, workload: str, seeds: range, seconds: float,
              trace: int) -> "list[dict]":
    """The runs of one alternating pair per seed, in the order they ran."""
    runs = []
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            record = run_once(checkouts[side], workload, seed, seconds, trace)
            runs.append({"workload": workload, "side": side, "seed": seed, "seconds": seconds,
                         **record})
    return runs


def digests(checkout: Path) -> "list[str]":
    """The output lines of the checkout's campaign digest script."""
    proc = subprocess.run([sys.executable, "scripts/campaign_digest.py"], cwd=checkout,
                          env=dict(_env(), PYTHONPATH="src"), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"campaign_digest.py in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()


def better_directions(benchmark_json: Path) -> dict:
    """Metric name -> "lower" or "higher", from a BENCHMARK.json."""
    spec = json.loads(benchmark_json.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(runs: dict, better: dict) -> dict:
    """Per trace level, workload and metric: both sides' medians and the
    pairs (runs of one seed) in which the change is strictly better."""
    summary = {}
    for trace, records in runs.items():
        summary[trace] = {}
        for workload in dict.fromkeys(r["workload"] for r in records):
            mine = [r for r in records if r["workload"] == workload]
            by_run = {(r["side"], r["seed"]): r["metrics"] for r in mine}
            paired = sorted(s for side, s in by_run if side == "parent" and ("change", s) in by_run)
            metrics = {}
            for name in dict.fromkeys(n for r in mine for n in r["metrics"]):
                entry = {}
                for side in SIDES:
                    values = [r["metrics"][name] for r in mine if r["side"] == side]
                    if values:
                        entry[f"{side}_median"] = round(statistics.median(values), 4)
                sign = -1 if better.get(name) == "lower" else 1
                wins = sum(sign * (by_run["change", s][name] - by_run["parent", s][name]) > 0
                           for s in paired)
                entry["change_better_pairs"] = f"{wins} of {len(paired)}"
                metrics[name] = entry
            summary[trace][workload] = metrics
    return summary


def seed_ranges(seeds: "list[int]") -> str:
    """Sorted seeds as runs of consecutive ones: "1-3, 5"."""
    parts, first = [], 0
    for i, seed in enumerate(seeds):
        if i + 1 == len(seeds) or seeds[i + 1] != seed + 1:
            parts.append(f"{seeds[first]}-{seed}" if first < i else f"{seed}")
            first = i + 1
    return ", ".join(parts)


def describe_order(runs: dict) -> str:
    sets = []
    for trace, records in runs.items():
        for workload in dict.fromkeys(r["workload"] for r in records):
            seeds = sorted({r["seed"] for r in records if r["workload"] == workload})
            sets.append(f"{trace} {workload} seeds {seed_ranges(seeds)}")
    return ("pairs alternate which side runs first, starting with the parent; "
            + "; ".join(sets) + ". One process ran at a time.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    parser.add_argument("--digests", action="store_true", help="also record campaign digests")
    parser.add_argument("--what", help="what the change does")
    parser.add_argument("--machine", help="the machine the runs ran on")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    old = json.loads(args.out.read_text()) if args.out.exists() else {}
    trace_key = f"trace {args.trace}"
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    ran = sorted({r["seed"] for r in old.get("runs", {}).get(trace_key, [])
                  if r["workload"] == args.workload and r["seed"] in seeds})
    if ran:
        parser.error(f"{args.out} already has {trace_key} {args.workload} runs of seeds "
                     f"{seed_ranges(ran)}")
    runs = dict(old.get("runs", {}))
    runs[trace_key] = runs.get(trace_key, []) + run_pairs(
        checkouts, args.workload, seeds, args.seconds, args.trace)
    runs = dict(sorted(runs.items()))
    doc = {
        "label": args.out.stem.removeprefix("BENCH_"),
        "what": args.what or old.get("what", ""),
        "command": ("python3 perfbench/run.py --workload <w> --seed <seed> --seconds <s> "
                    "--trace <0|1>, run in the parent's checkout and the change's by "
                    "scripts/bench_pairs.py; each run records its seconds"),
        "machine": args.machine or old.get("machine", ""),
        "order": describe_order(runs),
        "digests": old.get("digests"),
        "summary": summarize(runs, better_directions(checkouts["change"] / "BENCHMARK.json")),
        "runs": runs,
    }
    if args.digests:
        doc["digests"] = {"command": DIGEST_COMMAND,
                          **{side: digests(checkouts[side]) for side in SIDES}}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
