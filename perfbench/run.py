"""Benchmark entry point.

    python3 perfbench/run.py --workload family --seed 0 --seconds 10 --trace 0

Runs whole rounds of one workload for at least --seconds and prints, as
the last line of stdout, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Scratch files go to
.perfbench_out/ at the root of the checkout. Exits 2 without a result
when the checkout holds no reachfuzz sources.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reachfuzz" / "__init__.py").is_file():
        print(f"no reachfuzz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reachfuzz  # noqa: F401  (timed: the cold set-up starts here)
    import reachfuzz.cli  # noqa: F401

    import_s = time.perf_counter() - _START

    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    units = _metric_specs()[args.trace]
    result = workloads.run(
        w,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out_dir=ROOT / ".perfbench_out" / w.name,
        import_s=import_s,
    )
    values = result["metrics"]
    if set(values) != set(units):
        print(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
