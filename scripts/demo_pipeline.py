"""Walk one program through the whole toolchain and print each stage.

Generates a reactive program, validates it, shows the instrumentation
plan and interval summary, runs a short campaign, checks the findings
against the exhaustive reachability oracle (with the box and width of
its state keys), and ends with the verdict table. A compact tour of the public API.

Usage:
    python scripts/demo_pipeline.py
    python scripts/demo_pipeline.py --gen-seed 3 --budget 50000 --out /tmp/demo
"""

from __future__ import annotations

import argparse
import math
import tempfile
from pathlib import Path

from reachfuzz.cfg import assign_block_tags, build_cfg, count_paths
from reachfuzz.executor import compile_expand
from reachfuzz.frontend import list_error_ids, parse_or_raise
from reachfuzz.fuzzer import fuzz_loop, init_campaign, write_outputs
from reachfuzz.gen import generate_source
from reachfuzz.instrument import select_instrumentation
from reachfuzz.interval import analyze, inductive_box
from reachfuzz.oracle import bfs_reachability


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gen-seed", type=int, default=0)
    ap.add_argument("--fuzz-seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=30_000)
    ap.add_argument("--out", type=Path, default=None,
                    help="campaign directory (default: a fresh temp dir)")
    args = ap.parse_args()

    print("== generate ==")
    source = generate_source(seed=args.gen_seed)
    program = parse_or_raise(source)
    print(f"alphabet 1..{program.alphabet_hi}, {len(program.globals)} globals, "
          f"{len(list_error_ids(program))} error ids, "
          f"{len(source.splitlines())} lines")

    print("\n== structure ==")
    g = assign_block_tags(build_cfg(program), args.fuzz_seed)
    plan = select_instrumentation(g)
    print(f"{len(g.blocks)} blocks, {count_paths(g)} step paths")
    print(f"instrumented blocks: {len(plan.instrumented)} of {len(g.blocks)} "
          f"({plan.adequacy_certificate})")

    print("\n== value analysis ==")
    summary = analyze(program)
    box, _ = inductive_box(program)
    for name, iv in summary.global_bounds.items():
        print(f"  {name}: {iv}, oracle box {box[name]}")
    print(f"  input constants: {sorted(summary.input_constants) or 'none'}")

    print("\n== campaign ==")
    c = fuzz_loop(init_campaign(program, seed=args.fuzz_seed), max_execs=args.budget)
    out_dir = args.out or Path(tempfile.mkdtemp(prefix="demo_campaign_"))
    write_outputs(c, out_dir)
    print(f"{c.execs} execs, {len(c.queue)} corpus entries, "
          f"{c.maps.branch_bit_count()} branch bits, {c.maps.state_bit_count()} state bits")
    print(f"campaign written to {out_dir}")

    print("\n== oracle cross-check ==")
    digits = compile_expand(program)[2]
    width = (math.prod(radix for _, radix in digits) - 1).bit_length()
    print(f"oracle keys: {len(digits)} digits, {width} bits")
    oracle = bfs_reachability(program, state_cap=10**5)
    print(f"explored {oracle.explored_states} states "
          f"({'complete' if oracle.complete else 'capped'})")
    agreed = sum(1 for k in c.errors if k in oracle.reachable)
    print(f"fuzzer found {len(c.errors)} error ids, "
          f"{agreed} confirmed reachable, "
          f"{len(oracle.reachable) - agreed} reachable but missed")

    print("\n== verdicts ==")
    for k in sorted(list_error_ids(program)):
        verdict = "error_reachable" if k in c.errors else "UNKNOWN"
        print(f"{k},{verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
