from __future__ import annotations

import random
import struct

import hypothesis.strategies as st
from hypothesis import given, settings
from runs import generate_program, project_trace, replay, run_target

from reachfuzz import executor
from reachfuzz.cfg import Branch, Jump, assign_block_tags, build_cfg
from reachfuzz.executor import (
    BUCKET_LUT,
    DEFAULT_MAX_STEPS,
    MAP_SIZE,
    GlobalMaps,
    compile_expand,
    compile_target,
    pack_key,
    state_entry,
    state_key,
)
from reachfuzz.frontend import I64_MAX, Assign, eval_expr, parse_or_raise, reference_step
from reachfuzz.instrument import InstrumentationPlan, select_instrumentation

EXAMPLE = (
    "inputs 1..5; var a = 1; "
    "step(in){ if (in == 3) { a = 2; emit 20; } else { reject; } }"
)


def reference_run(program, g, plan, input_seq):
    """Reference engine: walk the CFG block by block with explicit probes.
    Returns the (status, error id, steps, counts, touched, state entries)
    that run_target should give for the compiled target, and the block
    trace of the run."""
    if g.tags is None:
        raise ValueError("cfg carries no tag table")
    tags = g.tags
    instrumented = plan.instrumented
    env = {name: value for name, value in program.globals}
    names = program.global_names()
    lo, hi = program.alphabet_lo, program.alphabet_hi

    counts = bytearray(MAP_SIZE)
    touched: "list[int]" = []
    entries: "list[tuple[int, int]]" = []
    trace: "list[int]" = []
    prev = tags[g.entry]
    status = "ok"
    error_id = None
    steps = 0

    for sym in input_seq:
        if steps >= DEFAULT_MAX_STEPS:
            status = "step_limit"
            break
        if sym < lo or sym > hi:
            status = "invalid_input"
            break
        env[program.param] = sym
        bid = g.entry
        exited = None
        while exited is None:
            trace.append(bid)
            if bid in instrumented:
                idx = (prev >> 1) ^ tags[bid]
                c = counts[idx]
                if c == 0:
                    counts[idx] = 1
                    touched.append(idx)
                elif c < 255:
                    counts[idx] = c + 1
                prev = tags[bid]
            blk = g.block(bid)
            for st in blk.stmts:
                if isinstance(st, Assign):
                    env[st.name] = eval_expr(st.expr, env)
            term = blk.term
            if isinstance(term, Jump):
                bid = term.target
            elif isinstance(term, Branch):
                bid = term.then_id if eval_expr(term.cond, env) != 0 else term.else_id
            else:
                exited = term
        if exited.kind == "ok":
            steps += 1
            entries.append(state_entry(state_key([env[n] for n in names])))
        elif exited.kind == "error":
            status = "error"
            error_id = exited.error_id
            break
        else:
            status = "invalid_input"
            break

    result = (status, error_id, steps, counts, tuple(touched), tuple(entries))
    return result, tuple(trace)


def build(src_or_program, tag_seed=0):
    p = src_or_program if not isinstance(src_or_program, str) else parse_or_raise(src_or_program)
    g = assign_block_tags(build_cfg(p), tag_seed)
    return p, g, select_instrumentation(g)


def run(p, g, plan, seq):
    """Compile the campaign target and run it once."""
    return run_target(compile_target(p, g, plan), seq)


def test_example_accepting_run():
    p, g, plan = build(EXAMPLE)
    target = compile_target(p, g, plan)
    r = run_target(target, [3])
    assert (r.status, r.error_id, r.steps) == ("ok", None, 1)
    assert r.state_keys == (state_key((2,)),)
    assert list(target.key_cache) == [(2,)]


def test_example_out_of_alphabet_symbol():
    p, g, plan = build(EXAMPLE)
    r = run(p, g, plan, [9])
    assert r.status == "invalid_input"
    assert r.steps == 0
    assert r.state_keys == ()


def test_example_reject_path():
    p, g, plan = build(EXAMPLE)
    r = run(p, g, plan, [2])
    assert r.status == "invalid_input"
    assert r.state_keys == ()


def test_empty_input_is_accepting_noop():
    p, g, plan = build(EXAMPLE)
    r = run(p, g, plan, [])
    assert r.status == "ok"
    assert r.steps == 0
    assert not r.touched
    assert sum(r.counts) == 0


def test_error_statement_reports_id():
    p, g, plan = build("inputs 1..3; var a = 0; step(in){ if (in == 2) { error 9; } a = 1; }")
    r = run(p, g, plan, [1, 2, 1])
    assert r.status == "error"
    assert r.error_id == 9
    assert r.steps == 1
    assert len(r.state_keys) == 1


def test_step_limit():
    p, g, plan = build("inputs 1..3; var a = 0; step(in){ a = a + 1; }")
    r = run(p, g, plan, [1, 2, 3] * (DEFAULT_MAX_STEPS // 3 + 1))
    assert r.status == "step_limit"
    assert r.steps == DEFAULT_MAX_STEPS
    assert r.state_keys[-1] == state_key((DEFAULT_MAX_STEPS,))


def fnv64_reference(values):
    """Field-tested constants, written against the published algorithm
    rather than the implementation under test."""
    h = 0xCBF29CE484222325
    for v in values:
        for byte in struct.pack("<Q", v & 0xFFFFFFFFFFFFFFFF):
            h ^= byte
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def test_state_key_of_empty_valuation_is_offset_basis():
    assert state_key(()) == 0xCBF29CE484222325


@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=6))
def test_state_key_matches_reference(values):
    assert state_key(tuple(values)) == fnv64_reference(values)


def test_state_key_frozen_vectors():
    assert state_key((1, 0)) == fnv64_reference((1, 0)) == 0x392209F14DEA4C24
    assert state_key((0,)) == fnv64_reference((0,))
    assert state_key((-1,)) == fnv64_reference((-1,))


def test_state_index_is_low_16_bits():
    """The target's state-map entries are state_entry of the key: the key
    and its state-map index, the key's low 16 bits."""
    p = parse_or_raise("inputs -3..3; var a = 0; var b = 5; step(in){ a = a * 7 + in; b = b - a; }")
    g = assign_block_tags(build_cfg(p), 0)
    t = compile_target(p, g, select_instrumentation(g))
    entries: list = []
    t.fn([3, -2, 1, 0, -3], [0] * MAP_SIZE, [], entries, {})
    values = p.initial_values()
    assert len(entries) == 5
    for sym, (key, index) in zip([3, -2, 1, 0, -3], entries):
        values = tuple(reference_step(p, values, sym)[2])
        assert key == state_key(values)
        assert index == key & 0xFFFF
        assert (key, index) == state_entry(state_key(values))


def test_classify_counts_table():
    table = {
        0: 0x00,
        1: 0x01,
        2: 0x02,
        3: 0x04,
        4: 0x08,
        7: 0x08,
        8: 0x10,
        15: 0x10,
        16: 0x20,
        31: 0x20,
        32: 0x40,
        127: 0x40,
        128: 0x80,
        255: 0x80,
    }
    for raw, want in table.items():
        assert BUCKET_LUT[raw] == want, raw


def bucket_reference(raw):
    if raw == 0:
        return 0x00
    if raw == 1:
        return 0x01
    if raw == 2:
        return 0x02
    if raw == 3:
        return 0x04
    if raw < 8:
        return 0x08
    if raw < 16:
        return 0x10
    if raw < 32:
        return 0x20
    if raw < 128:
        return 0x40
    return 0x80


def test_classify_counts_exhaustive():
    for raw in range(256):
        assert BUCKET_LUT[raw] == bucket_reference(raw)


def test_branch_pair_indices_hand_computed():
    p, g, plan = build(EXAMPLE)
    tags = {b.id: g.tags[b.id] for b in g.blocks}
    r = run(p, g, plan, [3])
    _, path = reference_run(p, g, plan, [3])
    probes = [b for b in path if b in plan.instrumented]
    prev = tags[g.entry]
    want = []
    for b in probes:
        want.append(((prev >> 1) ^ tags[b]) % MAP_SIZE)
        prev = tags[b]
    assert sorted(r.touched) == sorted(set(want))
    for idx in want:
        assert r.counts[idx] >= 1


def test_prev_tag_persists_across_steps():
    p, g, plan = build("inputs 1..2; var a = 0; step(in){ a = in; }")
    one = run(p, g, plan, [1])
    two = run(p, g, plan, [1, 1])
    tags = g.tags
    probes = [b for b in reference_run(p, g, plan, [1])[1] if b in plan.instrumented]
    prev = tags[g.entry]
    seen = []
    for b in probes + probes:
        seen.append(((prev >> 1) ^ tags[b]) % MAP_SIZE)
        prev = tags[b]
    cross = seen[len(probes)]
    assert cross in two.touched
    first_step_only = set(seen[: len(probes)])
    if cross not in first_step_only:
        assert cross not in one.touched


def test_counts_saturate_at_255():
    p, g, plan = build("inputs 1..2; var a = 0; step(in){ a = in; }")
    r = run(p, g, plan, [1] * 600)
    assert r.status == "ok"
    assert max(r.counts) == 255


def test_state_recorded_only_after_completed_steps():
    p, g, plan = build("inputs 1..3; var a = 0; step(in){ if (in == 2) { error 1; } a = a + 1; }")
    r = run(p, g, plan, [1, 1, 2])
    assert r.status == "error"
    assert r.steps == 2
    assert len(r.state_keys) == 2
    assert r.state_keys[0] == state_key((1,))
    assert r.state_keys[1] == state_key((2,))


def snapshot(target, seq, cut) -> list:
    """The snapshot that a run of seq takes at step cut ([] if none)."""
    snap = []
    run_target(target, seq, snap, cut)
    return snap


def check_resume(p, target, seq, cut) -> bool:
    """A run of seq with a cut equals the full run; when it completes cut
    steps its snapshot holds the state there, and resuming from it over
    seq[cut:] equals the full run too. Returns whether it took one."""
    full = run_target(target, seq)
    snap = []
    assert run_target(target, seq, snap, cut) == full
    if full.steps < cut or cut <= 0:
        assert snap == []
        return False
    (values, prev, steps), touched, counts, entries = snap
    head = run_target(target, seq[:cut])
    assert (head.status, steps) == ("ok", cut)
    assert (touched, entries) == (list(head.touched), list(head.entries))
    assert [min(n, 255) for n in counts] == [head.counts[i] for i in head.touched]
    ref = p.initial_values()
    for sym in seq[:cut]:
        ref = reference_step(p, ref, sym)[2]
    assert values == tuple(ref)
    assert run_target(target, seq[cut:], snap) == full
    return True


def test_resumed_runs_equal_full_runs():
    """Generated programs, family and deep-state sized, at random cuts,
    on inputs that may leave the alphabet; a second cut moves the
    snapshot on, as trim's catch-up over a chunk does."""
    taken = ended = 0
    for params, seeds in ((dict(vars=4, domain=8, alphabet=10), range(6)),
                          (dict(vars=8, domain=16, alphabet=10), range(3, 7))):
        for seed in seeds:
            p, g, plan = build(generate_program(seed=seed, **params))
            target = compile_target(p, g, plan)
            rnd = random.Random(seed)
            lo, hi = p.alphabet_lo, p.alphabet_hi
            for _ in range(40):
                seq = [rnd.randint(lo, hi) for _ in range(rnd.randint(0, 40))]
                if rnd.random() < 0.2:
                    seq[rnd.randrange(len(seq) + 1):0] = [rnd.choice((lo - 1, hi + 1))]
                cut = rnd.randint(0, len(seq) + 1)
                if not check_resume(p, target, seq, cut):
                    ended += 0 < cut <= len(seq)
                    continue
                taken += 1
                snap = snapshot(target, seq, cut)
                later = rnd.randint(cut, len(seq) + 1)
                moved = run_target(target, seq[cut:], snap, later)
                assert moved == run_target(target, seq)
                if snap[0][2] == later:
                    assert run_target(target, seq[later:], snap) == moved
                else:
                    assert snap[0][2] == cut  # the run ended before the later cut
    assert taken > 100 and ended > 10


def test_resume_after_an_error_or_a_rejected_symbol():
    p, g, plan = build("inputs 1..3; var a = 0; step(in){ if (in == 2) { error 9; } a = a + in; }")
    target = compile_target(p, g, plan)
    # the error ends the run before the cut: no snapshot
    assert not check_resume(p, target, [1, 3, 2, 1, 1], 4)
    assert not check_resume(p, target, [1, 3, 2, 1, 1], 3)
    assert check_resume(p, target, [1, 3, 2, 1, 1], 2)
    # a symbol outside the alphabet after the cut, right at it, or before it
    for seq, cut in (([1, 1, 3, 7, 1], 2), ([1, 1, 3, 0, 1], 3)):
        assert check_resume(p, target, seq, cut)
        r = run_target(target, seq[cut:], snapshot(target, seq, cut))
        assert (r.status, r.steps) == ("invalid_input", 3)
    assert not check_resume(p, target, [1, 7, 3, 1], 2)


def test_resume_past_step_2000_stops_on_the_step_limit():
    p, g, plan = build("inputs 1..3; var a = 0; step(in){ a = a + in; }")
    target = compile_target(p, g, plan)
    rnd = random.Random(5)
    seq = [rnd.randint(1, 3) for _ in range(DEFAULT_MAX_STEPS + 300)]
    for cut in (2001, 3500, DEFAULT_MAX_STEPS - 1, DEFAULT_MAX_STEPS):
        assert check_resume(p, target, seq, cut)
        r = run_target(target, seq[cut:], snapshot(target, seq, cut))
        assert (r.status, r.steps) == ("step_limit", DEFAULT_MAX_STEPS)
    # a cut past the step limit is never reached
    assert not check_resume(p, target, seq, DEFAULT_MAX_STEPS + 1)


def allowed_runs(seed_count=12):
    """(target, seq, full run, allow, stop) on family and deep-state sized
    programs: allow holds the indices of the first stop entries of the
    full run (all of them and one more when stop is None), and the stop
    entry, if any, is the first one outside it."""
    for params, seeds in ((dict(vars=4, domain=8, alphabet=10), range(seed_count // 2)),
                          (dict(vars=8, domain=16, alphabet=10), range(3, 3 + seed_count // 2))):
        for seed in seeds:
            p, g, plan = build(generate_program(seed=seed, **params))
            target = compile_target(p, g, plan)
            rnd = random.Random(seed)
            for _ in range(30):
                seq = [rnd.randint(p.alphabet_lo, p.alphabet_hi) for _ in range(rnd.randint(1, 40))]
                full = run_target(target, seq)
                indices = [index for _, index in full.entries]
                firsts = [j for j, index in enumerate(indices) if index not in indices[:j]]
                stop = rnd.choice(firsts[1:] + [None])
                allow = frozenset(indices[:stop] + ([MAP_SIZE] if stop is None else []))
                yield target, seq, full, allow, stop


def test_allow_stops_on_the_first_step_outside_it():
    """A run with allow returns (None, None) on the step of the first
    entry outside allow, with the buffers of a run of the symbols up to
    it; a run that stays inside allow is the run without it."""
    stopped = 0
    for target, seq, full, allow, stop in allowed_runs():
        r = run_target(target, seq, allow=allow)
        if stop is None:
            assert r == full
            continue
        stopped += 1
        assert (r.status, r.error_id) == (None, None)
        assert r.entries == full.entries[:stop + 1]
        assert r[2:] == run_target(target, seq[:stop + 1])[2:]
    assert stopped > 100


def test_allow_stops_a_resumed_run_after_the_cut():
    """The run that resumes from a snapshot stops where the run from the
    initial state does: the self-call past a cut carries allow, and a run
    from a start state checks it too. The snapshot is taken as without
    allow."""
    after_cut = 0
    rnd = random.Random(4)
    for target, seq, full, allow, stop in allowed_runs():
        whole = run_target(target, seq, allow=allow)
        cut = rnd.randint(1, stop if stop is not None else len(seq))
        snap = []
        assert run_target(target, seq, snap, cut, allow) == whole
        assert snap == snapshot(target, seq, cut)
        if snap:
            assert run_target(target, seq[cut:], snap, allow=allow) == whole
            after_cut += stop is not None
    assert after_cut > 100


def merge(maps, r):
    """Fold a run_target result into maps; returns (new_branch, new_state)."""
    return maps.merge(bytearray(r.counts), r.touched, r.entries)


def test_merge_first_then_duplicate():
    p, g, plan = build("inputs 1..2; var a = 0; step(in){ a = in; }")
    m = GlobalMaps()
    r1 = run(p, g, plan, [1])
    assert merge(m, r1) == (True, True)
    assert merge(m, r1) == (False, False)


def test_merge_state_novelty_only():
    p, g, plan = build("inputs 1..2; var a = 0; step(in){ a = in; }")
    m = GlobalMaps()
    merge(m, run(p, g, plan, [1]))
    assert merge(m, run(p, g, plan, [2])) == (False, True)


def test_merge_branch_novelty_via_bucket_change():
    p, g, plan = build("inputs 1..2; var a = 0; step(in){ a = in; }")
    m = GlobalMaps()
    merge(m, run(p, g, plan, [1]))
    new_branch, _ = merge(m, run(p, g, plan, [1, 1]))
    assert new_branch is True


def test_merge_commutative_and_monotone():
    p, g, plan = build(generate_program(seed=5))
    rnd = random.Random(0)
    runs = []
    for _ in range(12):
        seq = [rnd.randint(p.alphabet_lo, p.alphabet_hi) for _ in range(rnd.randint(1, 10))]
        runs.append(run(p, g, plan, seq))
    a = GlobalMaps()
    for r in runs:
        before = (a.branch_bit_count(), a.state_bit_count())
        merge(a, r)
        after = (a.branch_bit_count(), a.state_bit_count())
        assert after >= before
    b = GlobalMaps()
    for r in reversed(runs):
        merge(b, r)
    assert bytes(a.virgin_branch) == bytes(b.virgin_branch)
    assert a.state_indices == b.state_indices


def test_state_map_is_the_index_set_of_merged_runs(monkeypatch):
    """Over a long campaign, the state map after each merge is the set of
    key & 0xFFFF over the entries of every run merged so far, the seeds'
    included, and a run is state-novel iff it grew that set. Merging more
    keys than the map has indices fills it to exactly MAP_SIZE."""
    import reachfuzz.fuzzer

    reached: set = set()
    merges = []

    class SpiedMaps(GlobalMaps):
        def merge(self, hits, touched, entries):
            before = len(reached)
            reached.update(key & 0xFFFF for key, _ in entries)
            new_branch, new_state = super().merge(hits, touched, entries)
            assert new_state == (len(reached) > before)
            assert len(self.state_indices) == len(reached) <= MAP_SIZE
            merges.append(self)
            return new_branch, new_state

    monkeypatch.setattr(reachfuzz.fuzzer, "GlobalMaps", SpiedMaps)
    p = generate_program(seed=8, vars=8, domain=64, alphabet=10, depth=3)
    c = reachfuzz.fuzzer.init_campaign(p, seed=42)
    reachfuzz.fuzzer.fuzz_loop(c, max_execs=40000)
    assert len(merges) > 1500 and all(m is c.maps for m in merges)
    assert c.maps.state_indices == reached
    assert c.maps.state_bit_count() == len(reached) > 5000

    m = GlobalMaps()
    keys = [high << 16 | low for high in (1, 7, 1 << 40) for low in range(MAP_SIZE)]
    assert m.merge([], [], list(map(state_entry, keys))) == (False, True)
    assert m.state_indices == set(range(MAP_SIZE))
    assert m.state_bit_count() == MAP_SIZE


def test_trace_matches_projection():
    for seed in range(4):
        p, g, plan = build(generate_program(seed=seed))
        rnd = random.Random(seed)
        for _ in range(10):
            seq = [rnd.randint(p.alphabet_lo, p.alphabet_hi) for _ in range(rnd.randint(1, 8))]
            _, trace = reference_run(p, g, plan, seq)
            probes = project_trace(trace, plan.instrumented)
            assert probes == tuple(b for b in trace if b in plan.instrumented)


def test_compiled_and_interpreter_agree():
    """Short runs with symbols just outside the alphabet, and runs past
    the step bound, whose last symbol may lie outside it too."""
    limited = 0
    for seed in range(6):
        p, g, plan = build(generate_program(seed=seed))
        # probing every block also ends steps on tags other than the entry's
        every_block = InstrumentationPlan(frozenset(b.id for b in g.blocks), "all blocks")
        for plan in (plan, every_block):
            target = compile_target(p, g, plan)
            rnd = random.Random(seed + 100)
            lo, hi = p.alphabet_lo, p.alphabet_hi
            seqs = [tuple(rnd.randint(lo - 1, hi + 1) for _ in range(rnd.randint(0, 12)))
                    for _ in range(60)]
            steady = [s for s in p.alphabet() if run_target(target, [s] * 5000).steps > 4000]
            for n in (DEFAULT_MAX_STEPS, DEFAULT_MAX_STEPS + 1, DEFAULT_MAX_STEPS + 40):
                # a symbol whose repeats run up to the bound, then one that
                # may lie outside the alphabet, at the bound or past it
                for sym in steady[:1]:
                    seqs.append((sym,) * (n - 1) + (rnd.randint(lo - 1, hi + 1),))
            for seq in seqs:
                a = run_target(target, seq)
                b, _ = reference_run(p, g, plan, seq)
                assert a == b
                limited += a.status == "step_limit"
    assert limited == 6 * 2 * 2  # seeds x plans x runs past the bound


def test_compiled_wraps_like_interpreter():
    p, g, plan = build(
        "inputs 1..3; var a = 1; var b = 0; "
        "step(in){ a = a * 65536 + in; b = -a; "
        "if (a * 2 > b) { emit 1; } else { a = a - 1; } }"
    )
    target = compile_target(p, g, plan)
    seq = [1, 2, 3] * 8
    a = run_target(target, seq)
    b, _ = reference_run(p, g, plan, seq)
    assert a.status == "ok"
    assert a == b
    # a gains 16 bits a step, so it leaves the signed 64-bit range by step 4
    ref = (1, 0)
    for sym in seq:
        status, _err, ref, _outs = reference_step(p, ref, sym)
        assert status == "ok"
    assert a.state_keys[-1] == state_key(ref)
    assert ref in target.key_cache


def test_compiled_agrees_with_reference_step_composition():
    for seed in range(4):
        p, g, plan = build(generate_program(seed=seed))
        rnd = random.Random(seed + 55)
        for _ in range(40):
            seq = [rnd.randint(p.alphabet_lo, p.alphabet_hi) for _ in range(rnd.randint(0, 10))]
            r = run(p, g, plan, seq)
            values = tuple(v for _, v in p.globals)
            status, err, keys = "ok", None, []
            for sym in seq:
                status, err, values, _outs = reference_step(p, values, sym)
                if status != "ok":
                    break
                keys.append(state_key(values))
            assert r.status == status
            assert r.error_id == err
            assert r.state_keys == tuple(keys)


@given(st.integers(min_value=0, max_value=80), st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_replay_determinism(seed, rnd):
    p, g, plan = build(generate_program(seed=seed))
    seq = [rnd.randint(p.alphabet_lo, p.alphabet_hi) for _ in range(rnd.randint(1, 20))]
    assert run(p, g, plan, seq) == run(p, g, plan, seq)


M = I64_MAX

# A program for each case of the wrap tests after an arithmetic
# assignment. Random runs of them reach values near the ends of the range.
WRAP_PROGRAMS = {
    # one-sided guards at the i64 limits: the top test only
    "guard-top": (
        f"inputs 1..3; var a = 0; step(in){{ if (in == 1) {{ a = a - 3; }} "
        f"if (in == 2) {{ a = a + 2; }} if (a < {M}) {{ a = a + {M}; }} "
        "if (a > 0) { a = a * 3; } }"
    ),
    # the bottom test only
    "guard-bottom": (
        f"inputs 1..3; var a = 0; step(in){{ if (in == 1) {{ a = a + 7; }} "
        f"if (in == 2) {{ a = a * 5; }} if (a < 5) {{ a = a - {M}; }} }}"
    ),
    # a guard on an expression refines nothing: the bottom test stays
    "expression-guard": (
        f"inputs 1..2; var a = -{M}; step(in){{ if (0 + a < 5) {{ a = a - 1; }} "
        "if (in == 2) { a = 3; } }"
    ),
    # the sum leaves the range above and the difference brings it back
    # from below, both by wrapping
    "leave-and-reenter": (
        f"inputs 1..2; var a = 1; step(in){{ if (a > 0) {{ a = a + {M}; a = a - {M}; }} "
        "if (in == 2) { a = a * 3; } }"
    ),
    # a constant sum that escapes the range: a point that wraps, alone
    # and as an operand
    "escaping-constant": (
        f"inputs 1..2; var c = 0; var d = 0; step(in){{ c = {M} + 1; "
        f"if (in == 2) {{ c = c - 1; }} d = ({M} + 1) - d; }}"
    ),
    # unguarded doubling passes both ends over 64 steps
    "unguarded-double": (
        "inputs 1..2; var v = 1; var w = -1; step(in){ v = v * 2; if (in == 2) { w = w * 2; } }"
    ),
    # equal assignments in different places get their own tests
    "equal-assignments": (
        f"inputs 1..2; var a = 0; step(in){{ if (in == 2) {{ a = -{M}; }} "
        "if (a < 0) { a = a - 1; } else { a = a - 1; } }"
    ),
    # arms that no input reaches keep both tests
    "dead-arms": (
        "inputs 1..3; var a = 0; step(in){ if (in > 5) { a = a + 1; } "
        "if (a < 0) { if (a > 3) { a = a * 7; } } a = a + in; if (a > 100) { a = 0 - a; } }"
    ),
}


def target_source(monkeypatch, p, g, plan) -> str:
    """The source that compile_target generates."""
    sources = []
    monkeypatch.setattr(executor, "_compile", lambda source, *args: sources.append(source))
    compile_target(p, g, plan)
    monkeypatch.undo()
    return sources[0]


def wrap_tests(monkeypatch, text: str) -> "list[str]":
    """The wrap test after each arithmetic assignment of the campaign
    target's source, in order: "top", "bottom", "both" or "none"."""
    lines = target_source(monkeypatch, *build(text)).splitlines() + [""]
    sides = []
    for line, nxt in zip(lines, lines[1:]):
        # an arithmetic value is parenthesised; its wrap starts with "((("
        if line.lstrip().startswith("_g") and " = (" in line and " = (((" not in line:
            key = (f"> {M}" in nxt, f"< {-M - 1}" in nxt)
            sides.append({(1, 1): "both", (1, 0): "top", (0, 1): "bottom"}.get(key, "none"))
    return sides


def test_wrap_tests_only_where_the_bound_escapes(monkeypatch):
    want = {
        "guard-top": ["bottom", "top", "top", "top"],
        "guard-bottom": ["top", "both", "bottom"],
        "expression-guard": ["bottom"],
        "leave-and-reenter": ["top", "bottom", "both"],
        "escaping-constant": ["top", "bottom", "top"],
        "unguarded-double": ["both", "both"],
        "equal-assignments": ["bottom", "none"],
        # the alphabet folds in > 5 away; then the dead arm under a < 0,
        # a + in, and 0 - a under a > 100
        "dead-arms": ["both", "top", "none"],
    }
    for name, text in WRAP_PROGRAMS.items():
        assert wrap_tests(monkeypatch, text) == want[name], name
    # a guarded counter needs no test
    assert wrap_tests(
        monkeypatch, "inputs 1..2; var c = 0; step(in){ if (c < 9) { c = c + 1; } }"
    ) == ["none"]


def test_target_folds_what_the_alphabet_decides(monkeypatch):
    """A branch that no symbol of the alphabet takes has no source line,
    a decided operand of && is dropped, and runs still match the CFG
    walk and reference_step."""
    p, g, plan = build(
        "inputs 1..3; var a = 0; step(in){ "
        "if (in > 5) { a = 77; error 9; } "
        "if (a == 2 && in < 9) { a = 0; error 1; } "
        "if (in == 2) { a = a + 1; } }"
    )
    source = target_source(monkeypatch, p, g, plan)
    assert "_g0 = 77" not in source and "err = 9" not in source and "_s > 5" not in source
    assert "if (_g0 == 2):" in source and "_s < 9" not in source
    assert "if (_s == 2):" in source
    target = compile_target(p, g, plan)
    rnd = random.Random(9)
    for _ in range(200):
        seq = [rnd.randint(0, 4) for _ in range(rnd.randint(0, 8))]
        r = run_target(target, seq)
        assert r == reference_run(p, g, plan, seq)[0]
        assert (r.status, r.error_id) == replay(p, seq)


def test_and_chain_is_decided_in_linear_time(monkeypatch):
    """Folding a condition of n && operands evaluates each node of it a
    bounded number of times: the chain's decision comes from its
    operands' decisions, not from evaluating each of its n - 1 nested
    && nodes whole (about n^2 calls)."""
    from reachfuzz import interval

    n = 200
    chain = " && ".join(["in == 2", *(f"a != {k}" for k in range(3, n + 2))])
    p, g, plan = build(f"inputs 1..3; var a = 0; step(in){{ if ({chain}) {{ error 1; }} a = in; }}")
    calls = [0]
    eval_abs = interval.eval_abs

    def counted(e, env):
        calls[0] += 1
        return eval_abs(e, env)

    # the recursive calls inside interval count too
    monkeypatch.setattr(interval, "eval_abs", counted)
    monkeypatch.setattr(executor, "eval_abs", counted)
    target = compile_target(p, g, plan)
    assert calls[0] <= 5 * n
    monkeypatch.undo()
    for seq, want in (([1, 2], ("error", 1)), ([3, 2], ("ok", None)), ([2], ("error", 1))):
        r = run_target(target, seq)
        assert (r.status, r.error_id) == replay(p, seq) == want


def test_decide_matches_eval_abs_on_every_operand_decision():
    """_ExprGen.decide, which takes the decision of a !, && or || from its
    operands' decisions, gives the truth of interval.eval_abs on the
    whole condition, for every mix of decided and undecided operands."""
    from reachfuzz.interval import _truth, eval_abs

    leaves = ["in > 0", "in > 5", "a == 1"]  # over 1..3: true, false, undecided
    level = leaves + [f"!({x})" for x in leaves]
    conds = level + [f"({x}) {op} ({y})" for op in ("&&", "||") for x in level for y in level]
    conds += [f"!({x}) || ({y}) && ({z})" for x in leaves for y in conds[-9:] for z in leaves]
    decisions = set()
    for text in conds:
        p = parse_or_raise(f"inputs 1..3; var a = 0; step(in){{ if ({text}) {{ error 1; }} }}")
        gen, _, _ = executor._names(p, {})
        cond = p.body[0].cond
        want = _truth(eval_abs(cond, gen.env))
        assert gen.decide(cond) is want, text
        decisions.add(want)
    assert decisions == {True, False, None}


def test_wrap_tests_agree_with_reference_step():
    """The campaign target and the oracle's expander against the AST
    interpreter, on every state of long random runs; the expander both
    by the whole alphabet and by each symbol its classes list."""
    near_limits = set()
    for name, text in WRAP_PROGRAMS.items():
        p, g, plan = build(text)
        target = compile_target(p, g, plan)
        expand, classes, digits = compile_expand(p)
        rnd = random.Random(name)
        for _ in range(6):
            seq = [rnd.randint(p.alphabet_lo, p.alphabet_hi) for _ in range(80)]
            values, keys = p.initial_values(), []
            for sym in seq:
                want, successor = [], {}
                for other in p.alphabet():
                    status, _err, nxt, _outs = reference_step(p, values, other)
                    assert status == "ok"
                    successor[other] = tuple(nxt)
                    if tuple(nxt) not in want:
                        want.append(tuple(nxt))
                key = pack_key(values, digits)
                reached, kept, seen = [], [], set()
                assert expand([values], [key], seen, reached.append, kept.append, [].append,
                              {}, 10**9, classes) is False
                assert reached == want, (name, values)
                assert kept == [pack_key(v, digits) for v in want], (name, values)
                for j, symbols in enumerate(classes):
                    for other in symbols:
                        # every body off but body j, which runs for other alone
                        one = tuple((other,) if i == j else () for i in range(len(classes)))
                        reached, kept = [], []
                        expand([values], [key], set(), reached.append, kept.append, [].append,
                               {}, 10**9, one)
                        assert reached == [successor[other]], (name, values, other)
                        assert kept == [pack_key(successor[other], digits)], (name, values, other)
                values = tuple(reference_step(p, values, sym)[2])
                keys.append(state_key(values))
                if any(abs(v) > 2**62 for v in values):
                    near_limits.add(name)
            r = run_target(target, seq)
            assert (r.status, r.steps) == ("ok", len(seq)), name
            assert r.state_keys == tuple(keys), name
    assert near_limits == set(WRAP_PROGRAMS) - {"dead-arms"}
