from __future__ import annotations

import random
import struct

import hypothesis.strategies as st
from hypothesis import given, settings

from reachfuzz.cfg import Branch, ExitKind, Jump, assign_block_tags, build_cfg
from reachfuzz.executor import (
    DEFAULT_MAX_STEPS,
    MAP_SIZE,
    ExecResult,
    GlobalMaps,
    classify_counts,
    compile_step,
    compile_target,
    run,
    state_entry,
    state_key,
)
from reachfuzz.frontend import Assign, eval_expr, parse_or_raise, reference_step
from reachfuzz.gen import generate_program
from reachfuzz.instrument import InstrumentationPlan, project_trace, select_instrumentation

EXAMPLE = (
    "inputs 1..5; var a = 1; "
    "step(in){ if (in == 3) { a = 2; emit 20; } else { reject; } }"
)


def reference_run(program, g, plan, input_seq, max_steps=DEFAULT_MAX_STEPS):
    """Reference engine: walk the CFG block by block with explicit probes.
    Returns the ExecResult the compiled target should give, and the block
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
    keys: "list[int]" = []
    outputs: "list[int]" = []
    trace: "list[int]" = []
    prev = tags[g.entry]
    status = "ok"
    error_id = None
    steps = 0

    for sym in input_seq:
        if steps >= max_steps:
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
                else:
                    outputs.append(st.value)
            term = blk.term
            if isinstance(term, Jump):
                bid = term.target
            elif isinstance(term, Branch):
                bid = term.then_id if eval_expr(term.cond, env) != 0 else term.else_id
            else:
                exited = term
        if exited.kind is ExitKind.OK:
            steps += 1
            keys.append(state_key([env[n] for n in names]))
        elif exited.kind is ExitKind.ERROR:
            status = "error"
            error_id = exited.error_id
            break
        else:
            status = "invalid_input"
            break

    result = ExecResult(
        status=status,
        error_id=error_id,
        steps=steps,
        counts=counts,
        touched=tuple(touched),
        state_keys=tuple(keys),
        outputs=tuple(outputs),
        final_values=tuple(env[n] for n in names),
    )
    return result, tuple(trace)


def build(src_or_program, tag_seed=0):
    p = src_or_program if not isinstance(src_or_program, str) else parse_or_raise(src_or_program)
    g = assign_block_tags(build_cfg(p), tag_seed)
    return p, g, select_instrumentation(g)


def test_example_accepting_run():
    p, g, plan = build(EXAMPLE)
    r = run(p, g, plan, [3])
    assert r.status == "ok"
    assert r.steps == 1
    assert r.final_values == (2,)
    assert r.outputs == (20,)
    assert len(r.state_keys) == 1


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
    assert r.final_values == (1,)


def test_error_statement_reports_id():
    p, g, plan = build("inputs 1..3; var a = 0; step(in){ if (in == 2) { error 9; } a = 1; }")
    r = run(p, g, plan, [1, 2, 1])
    assert r.status == "error"
    assert r.error_id == 9
    assert r.steps == 1
    assert len(r.state_keys) == 1


def test_step_limit():
    p, g, plan = build("inputs 1..3; var a = 0; step(in){ a = a + 1; }")
    r = run(p, g, plan, [1, 2, 3, 1, 2], max_steps=2)
    assert r.status == "step_limit"
    assert r.steps == 2
    assert r.final_values == (2,)


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
    """The target's state-map entries are state_entry of the key: (key,
    byte, mask) of the bit at the key's low 16 bits."""
    p = parse_or_raise("inputs -3..3; var a = 0; var b = 5; step(in){ a = a * 7 + in; b = b - a; }")
    g = assign_block_tags(build_cfg(p), 0)
    t = compile_target(p, g, select_instrumentation(g))
    entries: list = []
    t.fn([3, -2, 1, 0, -3], DEFAULT_MAX_STEPS, [0] * MAP_SIZE, [], entries, {}, [])
    values = p.initial_values()
    assert len(entries) == 5
    for sym, (key, byte, mask) in zip([3, -2, 1, 0, -3], entries):
        values = tuple(reference_step(p, values, sym)[2])
        assert key == state_key(values)
        assert (byte, mask) == ((key & 0xFFFF) >> 3, 1 << (key & 7))
        assert (key, byte, mask) == state_entry(state_key(values))


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
        assert classify_counts(raw) == want, raw


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
        assert classify_counts(raw) == bucket_reference(raw)


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


def test_merge_first_then_duplicate():
    p, g, plan = build("inputs 1..2; var a = 0; step(in){ a = in; }")
    m = GlobalMaps()
    r1 = run(p, g, plan, [1])
    rep = m.merge_and_report(r1)
    assert rep.new_branch_bits and rep.new_state_bits
    again = m.merge_and_report(r1)
    assert not again.new_branch_bits and not again.new_state_bits


def test_merge_state_novelty_only():
    p, g, plan = build("inputs 1..2; var a = 0; step(in){ a = in; }")
    m = GlobalMaps()
    m.merge_and_report(run(p, g, plan, [1]))
    rep = m.merge_and_report(run(p, g, plan, [2]))
    assert rep.new_branch_bits is False
    assert rep.new_state_bits is True


def test_merge_branch_novelty_via_bucket_change():
    p, g, plan = build("inputs 1..2; var a = 0; step(in){ a = in; }")
    m = GlobalMaps()
    m.merge_and_report(run(p, g, plan, [1]))
    rep = m.merge_and_report(run(p, g, plan, [1, 1]))
    assert rep.new_branch_bits is True


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
        a.merge_and_report(r)
        after = (a.branch_bit_count(), a.state_bit_count())
        assert after >= before
    b = GlobalMaps()
    for r in reversed(runs):
        b.merge_and_report(r)
    assert bytes(a.virgin_branch) == bytes(b.virgin_branch)
    assert bytes(a.state_bits) == bytes(b.state_bits)
    assert a.state_keys == b.state_keys


def test_state_key_cap_bounds_key_set():
    p, g, plan = build("inputs 1..3; var a = 0; step(in){ a = a + 1; }")
    m = GlobalMaps(state_key_cap=5)
    rnd = random.Random(1)
    for _ in range(20):
        seq = [rnd.randint(1, 3) for _ in range(rnd.randint(1, 30))]
        m.merge_and_report(run(p, g, plan, seq))
    assert len(m.state_keys) <= 5
    assert m.state_bit_count() > 5


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
    for seed in range(6):
        p, g, plan = build(generate_program(seed=seed))
        # probing every block also ends steps on tags other than the entry's
        every_block = InstrumentationPlan(frozenset(b.id for b in g.blocks), "all blocks")
        for plan in (plan, every_block):
            target = compile_target(p, g, plan)
            rnd = random.Random(seed + 100)
            for _ in range(60):
                seq = tuple(rnd.randint(p.alphabet_lo - 1, p.alphabet_hi + 1)
                            for _ in range(rnd.randint(0, 12)))
                max_steps = rnd.choice((0, 1, 3, DEFAULT_MAX_STEPS))
                a = target.run(seq, max_steps)
                b, _ = reference_run(p, g, plan, seq, max_steps)
                assert a.status == b.status
                assert a.error_id == b.error_id
                assert a.steps == b.steps
                assert a.final_values == b.final_values
                assert a.outputs == b.outputs
                assert a.state_keys == b.state_keys
                assert bytes(a.counts) == bytes(b.counts)
                assert a.touched == b.touched


def test_compiled_wraps_like_interpreter():
    p, g, plan = build(
        "inputs 1..3; var a = 1; var b = 0; "
        "step(in){ a = a * 65536 + in; b = -a; "
        "if (a * 2 > b) { emit 1; } else { a = a - 1; } }"
    )
    target = compile_target(p, g, plan)
    seq = [1, 2, 3] * 8
    a = target.run(seq)
    b, _ = reference_run(p, g, plan, seq)
    assert a.status == b.status == "ok"
    assert a.final_values == b.final_values
    assert a.state_keys == b.state_keys
    assert a.outputs == b.outputs
    assert bytes(a.counts) == bytes(b.counts)
    # a gains 16 bits a step, so it leaves the signed 64-bit range by step 4
    values = ref = (1, 0)
    step = compile_step(p)
    for sym in seq:
        code, _err, values = step(values, sym)
        status, _err, ref, _outs = reference_step(p, ref, sym)
        assert (code, status) == (0, "ok")
        assert values == ref
    assert values == a.final_values


def test_compiled_agrees_with_reference_step_composition():
    for seed in range(4):
        p, g, plan = build(generate_program(seed=seed))
        rnd = random.Random(seed + 55)
        for _ in range(40):
            seq = [rnd.randint(p.alphabet_lo, p.alphabet_hi) for _ in range(rnd.randint(0, 10))]
            r = run(p, g, plan, seq)
            values = tuple(v for _, v in p.globals)
            status, err, steps = "ok", None, 0
            for sym in seq:
                status, err, values, _outs = reference_step(p, values, sym)
                if status != "ok":
                    break
                steps += 1
            assert r.status == status
            assert r.error_id == err
            assert r.steps == steps
            if r.status == "ok":
                assert r.final_values == values


def test_compile_step_codes():
    p = parse_or_raise(EXAMPLE)
    step = compile_step(p)
    assert step((1,), 3) == (0, -1, (2,))
    assert step((1,), 2) == (2, -1, (1,))
    assert step((1,), 9) == (2, -1, (1,))
    p2 = parse_or_raise("inputs 1..5; step(in){ if (in == 1) { error 4; } }")
    assert compile_step(p2)((), 1) == (1, 4, ())


@given(st.integers(min_value=0, max_value=80), st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_replay_determinism(seed, rnd):
    p, g, plan = build(generate_program(seed=seed))
    seq = [rnd.randint(p.alphabet_lo, p.alphabet_hi) for _ in range(rnd.randint(1, 20))]
    a = run(p, g, plan, seq)
    b = run(p, g, plan, seq)
    assert (a.status, a.error_id, a.steps, a.final_values, a.state_keys) == (
        b.status, b.error_id, b.steps, b.final_values, b.state_keys)
    assert bytes(a.counts) == bytes(b.counts)
