"""Command-line surface: check, analyze, gen, fuzz, replay, oracle, report.

Exit codes: 0 success, 1 invalid program, 2 I/O or capacity trouble.
Input and witness files are whitespace-separated ASCII decimal symbols.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cfg import CapacityError, assign_block_tags, build_cfg, count_paths, dump_cfg
from .executor import DEFAULT_MAX_STEPS, STATUS_BY_CODE, GlobalMaps, compile_step, run
from .frontend import Program, list_error_ids, parse_program
from .fuzzer import (
    FuzzConfig,
    baseline_config,
    fuzz_loop,
    init_campaign,
    parse_input_text,
    write_outputs,
)
from .gen import (
    DEFAULT_ALPHABET,
    DEFAULT_DEPTH,
    DEFAULT_DOMAIN,
    DEFAULT_ERRORS,
    DEFAULT_VARS,
    generate_source,
)
from .instrument import select_instrumentation
from .interval import analyze
from .oracle import DEFAULT_DEPTH_CAP, DEFAULT_STATE_CAP, bfs_reachability


def _read_text(path: str) -> "str | None":
    try:
        return Path(path).read_text()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None


def _load_program(path: str) -> "tuple[Program | None, int]":
    """Returns (program, 0), or (None, exit code) with diagnostics printed."""
    text = _read_text(path)
    if text is None:
        return None, 2
    result = parse_program(text)
    if isinstance(result, Program):
        return result, 0
    for diag in result:
        print(f"{path}:{diag.render()}", file=sys.stderr)
    return None, 1


def cmd_check(args) -> int:
    text = _read_text(args.file)
    if text is None:
        return 2
    result = parse_program(text)
    if isinstance(result, Program):
        ids = sorted(list_error_ids(result))
        print(
            f"{args.file}: ok "
            f"(alphabet {result.alphabet_lo}..{result.alphabet_hi}, "
            f"{len(result.globals)} globals, {len(ids)} error ids)"
        )
        return 0
    for diag in result:
        print(f"{args.file}:{diag.render()}", file=sys.stderr)
    return 1


def cmd_analyze(args) -> int:
    program, code = _load_program(args.file)
    if program is None:
        return code
    sections = {
        "cfg": args.cfg,
        "plan": args.plan,
        "intervals": args.intervals,
    }
    if not any(sections.values()):
        sections = {k: True for k in sections}
    g = assign_block_tags(build_cfg(program), args.seed)
    if sections["cfg"]:
        print(dump_cfg(g), end="")
        print(f"paths: {count_paths(g)}")
    if sections["plan"]:
        plan = select_instrumentation(g)
        s, v = len(plan.instrumented), len(g.blocks)
        print(f"|S| = {s} of |V| = {v} (ratio {s / v:.2f})")
        print("instrumented:", " ".join(str(b) for b in sorted(plan.instrumented)))
        print(f"certificate: {plan.adequacy_certificate}")
    if sections["intervals"]:
        summary = analyze(program)
        for name in program.global_names():
            print(f"bound {name}: {summary.global_bounds[name]}")
        consts = " ".join(str(c) for c in sorted(summary.input_constants))
        print(f"input constants: {consts}" if consts else "input constants: none")
        print("value pool:", " ".join(f"{s}:{w}" for s, w in summary.value_pool))
    return 0


def cmd_gen(args) -> int:
    text = generate_source(
        vars=args.vars,
        domain=args.domain,
        alphabet=args.alphabet,
        depth=args.depth,
        errors=args.errors,
        seed=args.seed,
    )
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        print(text, end="")
    return 0


def cmd_fuzz(args) -> int:
    program, code = _load_program(args.file)
    if program is None:
        return code
    config = baseline_config() if args.baseline else FuzzConfig()
    max_execs = args.max_execs
    if max_execs is None and args.max_seconds is None:
        max_execs = 10**5
    campaign = init_campaign(program, config, seed=args.seed, max_execs=max_execs)
    result = fuzz_loop(campaign, max_execs=max_execs, max_seconds=args.max_seconds)
    try:
        write_outputs(result, args.out)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"found {result.found_count}/{result.total_error_ids} errors in {result.execs} execs")
    return 0


def cmd_replay(args) -> int:
    program, code = _load_program(args.file)
    if program is None:
        return code
    text = _read_text(args.input)
    if text is None:
        return 2
    seq = parse_input_text(text)
    g = assign_block_tags(build_cfg(program), args.seed)
    plan = select_instrumentation(g)
    result = run(program, g, plan, seq, max_steps=args.max_steps)
    status = f"error({result.error_id})" if result.status == "error" else result.status
    print(f"status: {status}")
    print(f"steps: {result.steps}")
    print("outputs:", " ".join(str(v) for v in result.outputs))
    report = GlobalMaps().merge_and_report(result)
    print(f"new_branch_bits: {str(report.new_branch_bits).lower()}")
    print(f"new_state_bits: {str(report.new_state_bits).lower()}")
    return 0


def cmd_oracle(args) -> int:
    program, code = _load_program(args.file)
    if program is None:
        return code
    result = bfs_reachability(program, state_cap=args.state_cap, depth_cap=args.depth_cap)
    for k in sorted(result.reachable):
        witness = result.reachable[k]
        symbols = " ".join(str(v) for v in witness)
        print(f"error {k}: reachable, witness={symbols}, len={len(witness)}")
    print(f"complete: {str(result.complete).lower()}, states: {result.explored_states}")
    return 0


def _replay_status(program: Program, step, seq) -> "tuple[str, int | None]":
    """Status and error id that the campaign target reports for seq, found
    by uninstrumented steps from the initial valuation."""
    values = program.initial_values()
    for sym in seq[:DEFAULT_MAX_STEPS]:
        code, error_id, values = step(values, sym)
        if code:
            return STATUS_BY_CODE[code], error_id if code == 1 else None
    # code 3 (step_limit): the target stops a sequence longer than the bound
    return STATUS_BY_CODE[3 if len(seq) > DEFAULT_MAX_STEPS else 0], None


def _witnesses(stats) -> "dict[int, tuple[int, ...]]":
    """Error id -> witness from the parsed stats.json of a campaign;
    ValueError names the first part that does not have the form that
    write_outputs gives it."""
    if not isinstance(stats, dict):
        raise ValueError("the top-level value is not an object")
    records = stats.get("errors", {})
    if not isinstance(records, dict):
        raise ValueError('"errors" is not an object')
    found = {}
    for key, record in records.items():
        try:
            k = int(key)
        except ValueError:
            raise ValueError(f"error id {key!r} is not an integer") from None
        witness = record.get("witness") if isinstance(record, dict) else None
        if not isinstance(witness, list) or any(type(sym) is not int for sym in witness):
            raise ValueError(f"the witness of error {key} is not a list of integers")
        found[k] = tuple(witness)
    return found


def cmd_report(args) -> int:
    program, code = _load_program(args.file)
    if program is None:
        return code
    stats_path = Path(args.out) / "stats.json"
    try:
        data = stats_path.read_bytes()
    except OSError as exc:
        print(f"cannot read {stats_path}: {exc}", file=sys.stderr)
        return 2
    try:
        found = _witnesses(json.loads(data))
    except (ValueError, RecursionError) as exc:
        print(f"malformed {stats_path}: {exc}", file=sys.stderr)
        return 2
    step = compile_step(program)
    for k, witness in sorted(found.items()):
        status, error_id = _replay_status(program, step, witness)
        if status != "error" or error_id != k:
            print(
                f"witness for error {k} does not replay (got {status}/{error_id})",
                file=sys.stderr,
            )
            return 2
    for k in sorted(list_error_ids(program)):
        verdict = "error_reachable" if k in found else "UNKNOWN"
        print(f"{k},{verdict}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachfuzz",
        description="coverage-guided fuzzing toolkit for reactive reachability programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a program")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="CFG stats, instrumentation plan, interval summary")
    p.add_argument("file")
    p.add_argument("--cfg", action="store_true", help="dump blocks and edges")
    p.add_argument("--plan", action="store_true", help="show the instrumentation plan")
    p.add_argument("--intervals", action="store_true", help="show interval bounds and pool")
    p.add_argument("--seed", type=int, default=0, help="tag assignment seed")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen", help="generate a benchmark program")
    p.add_argument("--vars", type=int, default=DEFAULT_VARS)
    p.add_argument("--domain", type=int, default=DEFAULT_DOMAIN)
    p.add_argument("--alphabet", type=int, default=DEFAULT_ALPHABET)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--errors", type=int, default=DEFAULT_ERRORS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fuzz", help="run a fuzzing campaign")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-execs", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--out", default="fuzz-out", help="output directory")
    p.add_argument(
        "--baseline",
        action="store_true",
        help="uniform symbol pool and branch-only retention",
    )
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("replay", help="execute one input file")
    p.add_argument("file")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0, help="tag assignment seed")
    p.add_argument("--max-steps", type=int, default=4096)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("oracle", help="exhaustive reachability ground truth")
    p.add_argument("file")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("report", help="verdict CSV from a campaign directory")
    p.add_argument("out", help="campaign output directory")
    p.add_argument("file", help="program the campaign ran on")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, RecursionError) as exc:
        # a valid program beyond the tag space, or nested deeper than the
        # analyses or the generated code can go
        print(f"cannot {args.command} {args.file}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
