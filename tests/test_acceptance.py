"""End-to-end acceptance checks for the toolkit.

Each test covers one release criterion and prints a single PASS line
with its key numbers once the assertions hold. Budgets, seeds, and
tolerances are frozen; the campaigns in criteria 3 and 4 dominate the
runtime of the whole suite (several minutes combined).
"""

from __future__ import annotations

import random
import time

from runs import generate_program, iter_paths, project_trace, replay, run_target

from reachfuzz.cfg import assign_block_tags, build_cfg
from reachfuzz.cli import main
from reachfuzz.executor import BUCKET_LUT, MAP_SIZE, GlobalMaps, compile_target, state_key
from reachfuzz.frontend import parse_or_raise
from reachfuzz.fuzzer import (
    baseline_config,
    fuzz_loop,
    init_campaign,
    parse_input_text,
    write_outputs,
)
from reachfuzz.instrument import select_instrumentation
from reachfuzz.interval import Interval, abstract_step, analyze
from reachfuzz.oracle import bfs_reachability

FAMILY = dict(domain=8, alphabet=10)


def announce(capsys, line):
    with capsys.disabled():
        print("\n" + line)


def projections_distinct(g, s):
    seen = set()
    for path in iter_paths(g):
        proj = project_trace(path, s)
        if proj in seen:
            return False
        seen.add(proj)
    return True


def test_criterion_1_instrumentation_adequacy_and_reduction(capsys):
    t0 = time.perf_counter()
    sized = 0
    lean = 0
    for seed in range(50):
        p = generate_program(seed=seed)
        g = build_cfg(p)
        plan = select_instrumentation(g)
        s = plan.instrumented
        assert g.entry in s
        assert projections_distinct(g, s), f"plan not adequate for seed {seed}"
        for v in sorted(s):
            if v == g.entry:
                continue
            assert not projections_distinct(g, s - {v}), (
                f"seed {seed}: block {v} is redundant")
        n_blocks = len(g.blocks)
        if n_blocks >= 20:
            sized += 1
            assert len(s) < n_blocks
            if len(s) <= 0.7 * n_blocks:
                lean += 1
    elapsed = time.perf_counter() - t0
    assert sized > 0
    assert lean >= 0.8 * sized
    assert elapsed <= 60.0
    announce(capsys, (
        f"[criterion 1] instrumentation adequacy: PASS "
        f"(50/50 adequate and locally minimal, {lean}/{sized} plans at "
        f"ratio <= 0.7, {elapsed:.1f}s)"))


def test_criterion_2_interval_soundness(capsys):
    t0 = time.perf_counter()
    checked_steps = 0
    for seed in range(20):
        p = generate_program(seed=seed)
        summary = analyze(p)
        bounds = summary.global_bounds
        names = [n for n, _ in p.globals]
        los = tuple(bounds[n].lo for n in names)
        his = tuple(bounds[n].hi for n in names)
        init = tuple(v for _, v in p.globals)
        for v, l, h in zip(init, los, his):
            assert l <= v <= h
        post = abstract_step(p, dict(bounds),
                             Interval(p.alphabet_lo, p.alphabet_hi))
        assert post is not None, f"seed {seed}: no surviving path"
        for name in names:
            iv = post[name]
            assert iv.is_empty or (bounds[name].lo <= iv.lo
                                   and iv.hi <= bounds[name].hi), (
                f"seed {seed}: {name} not stable under re-analysis")
        # the campaign target's key_cache keys are exactly the valuations
        # after each completed step of the walks
        g = assign_block_tags(build_cfg(p), 0)
        target = compile_target(p, g, select_instrumentation(g))
        hits, touched, entries = [0] * MAP_SIZE, [], []
        rnd = random.Random(1000 + seed)
        lo, hi = p.alphabet_lo, p.alphabet_hi
        for _ in range(10_000):
            walk = [rnd.randint(lo, hi) for _ in range(rnd.randint(1, 30))]
            touched.clear()
            entries.clear()
            target.fn(walk, hits, touched, entries, target.key_cache)
            for i in touched:
                hits[i] = 0
            checked_steps += len(entries)
        assert target.key_cache
        for values in target.key_cache:
            for v, l, h in zip(values, los, his):
                assert l <= v <= h, (
                    f"seed {seed}: {values} escapes {bounds}")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    announce(capsys, (
        f"[criterion 2] interval soundness: PASS "
        f"(20 programs x 10^4 executions, {checked_steps} step valuations "
        f"in bounds, fixpoints stable, {elapsed:.1f}s)"))


def test_criterion_3_oracle_agreement(capsys):
    t0 = time.perf_counter()
    pool_total = 0
    found_in_pool = 0
    reported = 0
    for gseed in range(20):
        p = generate_program(seed=gseed, **FAMILY)
        orc = bfs_reachability(p, state_cap=10**5)
        assert orc.complete, f"family program {gseed} exceeds the state cap"
        res = fuzz_loop(init_campaign(p, seed=42), max_execs=200_000)
        for k, rec in res.errors.items():
            reported += 1
            assert k in orc.reachable, (
                f"program {gseed}: error {k} reported but unreachable")
            assert replay(p, rec.witness) == ("error", k), (
                f"program {gseed}: witness for error {k} does not replay")
        pool = {k for k, w in orc.reachable.items() if len(w) <= 25}
        pool_total += len(pool)
        found_in_pool += len(pool & set(res.errors))
    elapsed = time.perf_counter() - t0
    assert pool_total > 0
    recall = found_in_pool / pool_total
    assert recall >= 0.8
    assert elapsed <= 300.0
    announce(capsys, (
        f"[criterion 3] oracle agreement: PASS "
        f"({reported} reports, 0 false positives, recall "
        f"{found_in_pool}/{pool_total} of shallow-witness pool, "
        f"{elapsed:.1f}s)"))


def test_criterion_4_ablation_comparison(capsys):
    t0 = time.perf_counter()
    programs = [generate_program(seed=g, **FAMILY) for g in range(20)]
    full_rows = []
    base_rows = []
    for fseed in range(5):
        full_total = 0
        base_total = 0
        for p in programs:
            c = fuzz_loop(init_campaign(p, seed=fseed), max_execs=20_000)
            full_total += len(c.errors)
            b = fuzz_loop(init_campaign(p, baseline_config(), seed=fseed), max_execs=20_000)
            base_total += len(b.errors)
        full_rows.append(full_total)
        base_rows.append(base_total)
    elapsed = time.perf_counter() - t0

    lines = ["seed  full  baseline  margin", "----  ----  --------  ------"]
    for i, (f, b) in enumerate(zip(full_rows, base_rows)):
        lines.append(f"{i:>4}  {f:>4}  {b:>8}  {f - b:>+6}")
    lines.append("----  ----  --------  ------")
    lines.append(
        f" sum  {sum(full_rows):>4}  {sum(base_rows):>8}  "
        f"{sum(full_rows) - sum(base_rows):>+6}")
    table = "\n".join(lines)
    with capsys.disabled():
        print("\n[criterion 4] discoveries per fuzzer seed "
              "(20 programs, 2*10^4 execs each):")
        print(table)

    for f, b in zip(full_rows, base_rows):
        assert f >= b, f"full config lost a seed: {full_rows} vs {base_rows}"
    assert sum(full_rows) > sum(base_rows)
    announce(capsys, (
        f"[criterion 4] ablation: PASS (family totals {sum(full_rows)} vs "
        f"{sum(base_rows)}, every seed margin >= 0, {elapsed:.1f}s)"))


def campaign_dir(tmp_path, name, seed, budget):
    p = generate_program(seed=0)
    c = init_campaign(p, seed=seed)
    fuzz_loop(c, max_execs=budget)
    out = tmp_path / name
    write_outputs(c, out)
    return out


def test_criterion_5_byte_identical_reruns(tmp_path, capsys):
    a = campaign_dir(tmp_path, "a", seed=7, budget=5000)
    b = campaign_dir(tmp_path, "b", seed=7, budget=5000)
    assert (a / "stats.json").read_bytes() == (b / "stats.json").read_bytes()
    qa = sorted(f.name for f in (a / "queue").iterdir())
    qb = sorted(f.name for f in (b / "queue").iterdir())
    assert qa == qb
    for name in qa:
        assert (a / "queue" / name).read_bytes() == (b / "queue" / name).read_bytes()
    ea = sorted(f.name for f in (a / "errors").iterdir()) if (a / "errors").exists() else []
    eb = sorted(f.name for f in (b / "errors").iterdir()) if (b / "errors").exists() else []
    assert ea == eb
    for name in ea:
        assert (a / "errors" / name).read_bytes() == (b / "errors" / name).read_bytes()
    announce(capsys, (
        f"[criterion 5] determinism: PASS (stats.json identical, "
        f"{len(qa)} queue files identical, {len(ea)} witness files identical)"))


def test_criterion_6_map_semantics(capsys):
    table = {0: 0x00, 1: 0x01, 2: 0x02, 3: 0x04, 4: 0x08, 8: 0x10,
             16: 0x20, 32: 0x40, 128: 0x80}
    for raw, want in table.items():
        assert BUCKET_LUT[raw] == want
    assert BUCKET_LUT[7] == 0x08
    assert BUCKET_LUT[15] == 0x10
    assert BUCKET_LUT[31] == 0x20
    assert BUCKET_LUT[127] == 0x40
    assert BUCKET_LUT[255] == 0x80

    p = parse_or_raise("inputs 1..2; var a = 0; step(in){ a = in; }")
    g = assign_block_tags(build_cfg(p), 0)
    target = compile_target(p, g, select_instrumentation(g))
    m = GlobalMaps()

    def merge(seq):
        r = run_target(target, seq)
        return m.merge(bytearray(r.counts), r.touched, r.entries)

    first = merge([1])
    assert first == (True, True)
    again = merge([1])
    assert again == (False, False)
    state_only = merge([2])
    assert state_only == (False, True)

    assert state_key(()) == 0xCBF29CE484222325
    assert state_key((1, 0)) == 0x392209F14DEA4C24
    h = 0xCBF29CE484222325
    for byte in (5).to_bytes(8, "little"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    assert state_key((5,)) == h
    announce(capsys, (
        "[criterion 6] map semantics: PASS (bucket table exact, merge "
        "idempotent, state-only novelty (False, True), key constants match)"))


def test_criterion_7_pipeline(tmp_path, capsys):
    prog = tmp_path / "prog.rrp"
    camp = tmp_path / "campaign"
    assert main(["gen", "--seed", "5", "--out", str(prog)]) == 0
    assert main(["check", str(prog)]) == 0
    assert main(["analyze", str(prog), "--plan", "--intervals"]) == 0
    assert main(["fuzz", str(prog), "--seed", "3", "--max-execs", "8000",
                 "--out", str(camp)]) == 0
    capsys.readouterr()
    assert main(["report", str(camp), str(prog)]) == 0
    csv = capsys.readouterr().out.strip().splitlines()
    assert csv, "report produced no verdicts"
    reachable_ids = []
    for line in csv:
        k, verdict = line.split(",")
        assert verdict in ("error_reachable", "UNKNOWN")
        if verdict == "error_reachable":
            reachable_ids.append(int(k))
    assert reachable_ids, "campaign found no errors to verify"

    p = parse_or_raise(prog.read_text())
    for k in reachable_ids:
        witness = parse_input_text((camp / "errors" / f"error_{k}.txt").read_text())
        assert replay(p, witness) == ("error", k)
    announce(capsys, (
        f"[criterion 7] pipeline: PASS (gen/check/analyze/fuzz/report all "
        f"exit 0, {len(reachable_ids)} error_reachable verdicts replayed)"))
