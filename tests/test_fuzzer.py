from __future__ import annotations

import dataclasses
import json
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from reachfuzz.executor import BUCKET_LUT, MAP_SIZE, STATUS_BY_CODE, GlobalMaps
from reachfuzz.frontend import parse_or_raise
from reachfuzz.fuzzer import (
    ENERGY_BASE,
    LONG_INPUT_LEN,
    MAX_LEN,
    FuzzConfig,
    TestCase as QueueEntry,
    baseline_config,
    finalize,
    format_input,
    fuzz_loop,
    init_campaign,
    mutate,
    parse_input_text,
    schedule_energy,
    trim,
    write_outputs,
)
from reachfuzz.gen import generate_program

ERROR_ON_TWO = "inputs 1..5; var a = 0; step(in){ if (in == 2) { error 7; } a = in; }"


class ScriptedRandom:
    """Stands in for random.Random in mutate: random() returns a draw
    that floors to each listed (value, range) pair in turn."""

    def __init__(self, *picks):
        self.draws = [(value + 0.5) / size for value, size in picks]

    def random(self):
        return self.draws.pop(0)


TWO_STEPS = (0, 6)  # the stack draw for 2 << 0 mutations
REPLACE, DELETE, INSERT, DUPLICATE, SPLICE = ((op, 5) for op in range(5))


def test_replace_delete_insert_examples():
    # replace draws the pool symbol before the position
    rng = ScriptedRandom(TWO_STEPS, REPLACE, (0, 2), (1, 3), DELETE, (0, 3))
    assert mutate((1, 2, 3), (5, 7), rng) == (5, 3)
    rng = ScriptedRandom(TWO_STEPS, INSERT, (1, 3), (0, 2), REPLACE, (1, 2), (2, 3))
    assert mutate((1, 3), (2, 7), rng) == (1, 2, 7)
    # a delete on a length-1 input degrades to a replace
    rng = ScriptedRandom(TWO_STEPS, DELETE, (0, 1), (0, 1), INSERT, (0, 2), (0, 1))
    assert mutate((4,), (6,), rng) == (6, 6)
    assert not rng.draws


def test_duplicate_and_splice_examples():
    corpus = [QueueEntry(input=seq, id=i, parent=None, new_branch=False, new_state=False,
                         exec_index=0) for i, seq in enumerate([(7, 8, 9), (6,)])]
    # duplicate [1, 2] at the end, then keep [1] and splice on (7, 8, 9)[2:]
    rng = ScriptedRandom(TWO_STEPS, DUPLICATE, (0, 3), (1, 3), (3, 4),
                         SPLICE, (0, 2), (0, 5), (2, 4))
    assert mutate((1, 2, 3), (5,), rng, corpus=corpus) == (1, 9)
    # a duplication past max_len is cut back to it
    rng = ScriptedRandom(TWO_STEPS, DUPLICATE, (0, 3), (2, 3), (0, 4), REPLACE, (0, 1), (0, 4))
    assert mutate((1, 2, 3), (5,), rng, max_len=4) == (5, 2, 3, 1)
    assert not rng.draws


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=150)
def test_mutate_closure_and_length(seq, seed):
    pool = (1, 1, 2, 3, 9)
    rng = random.Random(seed)
    out = mutate(tuple(seq), pool, rng, max_len=64)
    assert 1 <= len(out) <= 64
    allowed = set(pool) | set(seq)
    assert all(v in allowed for v in out)


def test_mutate_deterministic_for_seed():
    pool = (1, 2, 3)
    a = mutate((1, 2, 3, 1), pool, random.Random(99), max_len=32)
    b = mutate((1, 2, 3, 1), pool, random.Random(99), max_len=32)
    assert a == b


def havoc_by_int_draws(seq, pool_values, rng, max_len, corpus):
    """Reference havoc stack: every draw truncated with int()."""
    out = list(seq)
    npool = len(pool_values)
    rand = rng.random
    for _ in range(2 << int(rand() * 6.0)):
        op = int(rand() * 5.0)
        n = len(out)
        if op == 1 and n > 1:
            del out[int(rand() * n)]
        elif op == 2 and n < max_len:
            out.insert(int(rand() * (n + 1)), pool_values[int(rand() * npool)])
        elif op == 3 and n > 1:
            start = int(rand() * n)
            end = start + 1 + int(rand() * min(n - start, 16))
            at = int(rand() * (n + 1))
            out[at:at] = out[start:end]
            del out[max_len:]
        elif op == 4 and corpus is not None and len(corpus) > 1:
            other = corpus[int(rand() * len(corpus))].input
            cut_a = 1 + int(rand() * n)
            cut_b = int(rand() * (len(other) + 1))
            del out[cut_a:]
            out.extend(other[cut_b:])
            del out[max_len:]
        else:
            out[int(rand() * n)] = pool_values[int(rand() * npool)]
    return tuple(out)


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([2, 8, 4096]),
)
@settings(max_examples=300)
def test_mutate_matches_int_draw_reference(seq, seed, ncorpus, max_len):
    pool = (1, 1, 2, 3, 9)
    corpus = [
        QueueEntry(input=tuple(range(1, 2 + 3 * i)), id=i, parent=None,
                   new_branch=False, new_state=False, exec_index=0)
        for i in range(ncorpus)
    ]
    seq = tuple(seq[:max_len])
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        got = mutate(seq, pool, got_rng, max_len=max_len, corpus=corpus or None)
        want = havoc_by_int_draws(seq, pool, want_rng, max_len, corpus or None)
        assert got == want
        seq = got
    assert got_rng.getstate() == want_rng.getstate()


def test_schedule_energy_table():
    cfg = FuzzConfig()
    base = QueueEntry(input=(1, 2), id=0, parent=None,
                    new_branch=True, new_state=False, exec_index=0)
    state = QueueEntry(input=(1, 2), id=1, parent=0,
                     new_branch=True, new_state=True, exec_index=5)
    long_input = QueueEntry(input=tuple([1] * (LONG_INPUT_LEN + 1)), id=2,
                          parent=0, new_branch=True, new_state=False, exec_index=6)
    assert schedule_energy(base, cfg) == 128
    assert schedule_energy(state, cfg) == 256
    assert schedule_energy(long_input, cfg) == 64
    both = QueueEntry(input=tuple([1] * (LONG_INPUT_LEN + 1)), id=3,
                    parent=0, new_branch=True, new_state=True, exec_index=7)
    assert schedule_energy(both, cfg) == 128


def test_schedule_energy_ignores_state_flag_when_disabled():
    cfg = baseline_config()
    s = QueueEntry(input=(1,), id=0, parent=None,
                 new_branch=True, new_state=True, exec_index=0)
    assert schedule_energy(s, cfg) == ENERGY_BASE


def test_seeding_covers_alphabet():
    p = parse_or_raise("inputs 1..5; var a = 0; step(in){ a = in; }")
    c = init_campaign(p, seed=0)
    singles = {t.input for t in c.queue if len(t.input) == 1}
    assert {(s,) for s in range(1, 6)} <= singles


def test_seeding_finds_shallow_error():
    p = parse_or_raise(ERROR_ON_TWO)
    c = init_campaign(p, seed=0)
    assert 7 in c.errors
    assert c.errors[7].witness == (2,)
    assert c.errors[7].exec_index <= c.execs


def test_budget_zero_reports_seeding_only():
    p = parse_or_raise(ERROR_ON_TWO)
    c = init_campaign(p, seed=3)
    seeded = c.execs
    fuzz_loop(c, max_execs=0)
    assert c.execs == seeded
    assert set(c.errors) == {7}


def test_seeding_stops_at_the_budget():
    p = parse_or_raise(ERROR_ON_TWO)
    c = init_campaign(p, seed=3, max_execs=3)
    assert c.execs == 3 and [t.input for t in c.queue] == [(1,), (2,), (3,)]
    fuzz_loop(c, max_execs=3)
    assert c.execs == 3 and set(c.errors) == {7}
    # a budget that covers the seeds leaves the campaign as it was
    full = fuzz_loop(init_campaign(p, seed=3), max_execs=500)
    capped = fuzz_loop(init_campaign(p, seed=3, max_execs=500), max_execs=500)
    assert (capped.corpus, capped.errors.keys(), capped.execs) == (
        full.corpus,
        full.errors.keys(),
        full.execs,
    )


def test_seeds_are_parentless_and_loop_cases_have_parents():
    c = init_campaign(generate_program(seed=2), seed=1)
    seed_count = len(c.queue)
    fuzz_loop(c, max_execs=1500)
    for t in c.queue[:seed_count]:
        assert t.parent is None
    for t in c.queue[seed_count:]:
        assert t.parent is not None and 0 <= t.parent < t.id


def test_trim_drops_symbols_after_error():
    p = parse_or_raise(ERROR_ON_TWO)
    c = init_campaign(p, seed=0)
    assert trim(c, (3, 4, 2, 4, 4)) == (3, 4, 2)
    assert trim(c, (2, 4)) == (2,)


def test_trim_is_idempotent_and_preserves_error():
    p = parse_or_raise(ERROR_ON_TWO)
    c = init_campaign(p, seed=0)
    t = trim(c, (1, 3, 2, 5, 5, 5))
    assert trim(c, t) == t
    r = c.target.run(t)
    assert r.status == "error" and r.error_id == 7


def test_trim_preserves_signature_on_ok_inputs():
    p = generate_program(seed=4)
    c = init_campaign(p, seed=0)
    rnd = random.Random(2)

    def signature(seq):
        r = c.target.run(seq)
        buckets = tuple(sorted((i, BUCKET_LUT[r.counts[i]]) for i in r.touched))
        return (r.status, r.error_id, buckets, frozenset(k & 0xFFFF for k in r.state_keys))

    for _ in range(8):
        seq = tuple(rnd.randint(p.alphabet_lo, p.alphabet_hi) for _ in range(rnd.randint(2, 30)))
        out = trim(c, seq)
        assert len(out) <= len(seq)
        assert signature(out) == signature(seq)


def merge_reference(maps, result):
    """Reference merge of an ExecResult: every touched index through the
    bucket table, every state key's bit at its low 16 bits, and each key
    into the key set while it is below the cap. No shortcut."""
    new_branch = False
    for idx in result.touched:
        mask = BUCKET_LUT[result.counts[idx]]
        cur = maps.virgin_branch[idx]
        if mask & ~cur:
            maps.virgin_branch[idx] = cur | mask
            new_branch = True
    new_state = False
    for key in result.state_keys:
        idx = key & 0xFFFF
        b = maps.state_bits[idx >> 3]
        m = 1 << (idx & 7)
        if not b & m:
            maps.state_bits[idx >> 3] = b | m
            new_state = True
        if len(maps.state_keys) < maps.state_key_cap:
            maps.state_keys.add(key)
    return new_branch, new_state


def test_campaign_merge_matches_global_maps():
    """GlobalMaps.merge on the campaign's scratch buffers (unsaturated hit
    counts, known-key shortcut) leaves the same maps and novelty flags as
    the reference merge of the ExecResult, with and without the key cap
    reached, and leaves the hit buffer zero."""
    from reachfuzz.fuzzer import _execute_and_merge

    loop = parse_or_raise("inputs 1..3; var a = 0; step(in){ if (in == 3) { a = 0; } a = a + in; }")
    for p in (loop, generate_program(seed=3)):
        for cap in (3, 10**6):
            c = init_campaign(p, seed=0)
            c.maps, ref = GlobalMaps(state_key_cap=cap), GlobalMaps(state_key_cap=cap)
            scratch = ([0] * MAP_SIZE, [], [], [])
            rnd = random.Random(cap)
            for _ in range(120):
                seq = tuple(rnd.randint(p.alphabet_lo, p.alphabet_hi)
                            for _ in range(rnd.choice((1, 5, 40, 500, 700))))
                code, err, new_branch, new_state = _execute_and_merge(c, scratch, seq)
                r = c.target.run(seq)
                assert STATUS_BY_CODE[code] == r.status
                assert (err if code == 1 else None) == r.error_id
                assert (new_branch, new_state) == merge_reference(ref, r)
                assert c.maps.virgin_branch == ref.virgin_branch
                assert c.maps.state_bits == ref.state_bits
                assert c.maps.state_keys == ref.state_keys
                assert not any(scratch[0])
            assert len(ref.state_keys) == min(cap, len(c.target.key_cache))


def test_fuzz_counts_trim_executions():
    p = parse_or_raise(ERROR_ON_TWO)
    c = init_campaign(p, seed=0)
    before = c.execs
    trim(c, (3, 4, 2, 4, 4))
    assert c.execs > before


def test_trim_stops_on_every_budget():
    p = parse_or_raise(ERROR_ON_TWO)
    c = init_campaign(p, seed=0)
    seq = (1, 3, 4, 5, 3, 2, 4, 4, 1)
    start = c.execs
    full = trim(c, seq)
    needed = c.execs - start
    for extra in range(needed + 1):
        c.execs = start
        c.exec_budget = start + extra
        out = trim(c, seq)
        assert c.execs == start + extra
        assert out == seq if extra == 0 else len(full) <= len(out) <= len(seq)
        if extra == needed:
            assert out == full
        r = c.target.run(out)
        assert (r.status, r.error_id) == ("error", 7)


def test_trim_keeps_to_the_exec_budget(monkeypatch):
    """A trim that ignores the budget, as fuzz_loop's last one once did,
    ends this family campaign 100 execs late; the budgeted one ends on
    the budget with the same discoveries."""
    import reachfuzz.fuzzer

    p = generate_program(seed=2, vars=4, domain=8, alphabet=10)
    budget = 2000
    exact = fuzz_loop(init_campaign(p, seed=42), max_execs=budget)

    def unbudgeted_trim(c, seq, trim=reachfuzz.fuzzer.trim):
        saved, c.exec_budget = c.exec_budget, None
        try:
            return trim(c, seq)
        finally:
            c.exec_budget = saved

    monkeypatch.setattr(reachfuzz.fuzzer, "trim", unbudgeted_trim)
    late = fuzz_loop(init_campaign(p, seed=42), max_execs=budget)
    assert late.execs > budget
    assert exact.execs == budget
    assert exact.errors
    assert {k: (r.witness, r.exec_index) for k, r in exact.errors.items()} == {
        k: (r.witness, r.exec_index) for k, r in late.errors.items()}
    assert [t.input for t in exact.corpus[:-1]] == [t.input for t in late.corpus[:-1]]


def test_error_witnesses_replay():
    p = generate_program(seed=7)
    c = init_campaign(p, seed=11)
    fuzz_loop(c, max_execs=4000)
    res = finalize(c)
    assert res.errors
    for k, rec in res.errors.items():
        r = c.target.run(rec.witness)
        assert r.status == "error" and r.error_id == k
        assert all(p.alphabet_lo <= s <= p.alphabet_hi for s in rec.witness)


def test_monotone_discovery_with_budget():
    p = generate_program(seed=9)
    small = init_campaign(p, seed=5)
    fuzz_loop(small, max_execs=1500)
    big = init_campaign(p, seed=5)
    fuzz_loop(big, max_execs=5000)
    assert set(small.errors) <= set(big.errors)
    for k in small.errors:
        assert small.errors[k].exec_index == big.errors[k].exec_index
        assert small.errors[k].witness == big.errors[k].witness


def test_campaign_deterministic_for_seed():
    p = generate_program(seed=13)
    a = init_campaign(p, seed=21)
    fuzz_loop(a, max_execs=3000)
    ra = finalize(a)
    b = init_campaign(p, seed=21)
    fuzz_loop(b, max_execs=3000)
    rb = finalize(b)
    assert ra.execs == rb.execs
    assert [t.input for t in ra.corpus] == [t.input for t in rb.corpus]
    assert {k: v.witness for k, v in ra.errors.items()} == {
        k: v.witness for k, v in rb.errors.items()}


def test_corpus_entries_all_contributed_novelty():
    p = generate_program(seed=3)
    c = init_campaign(p, seed=8)
    fuzz_loop(c, max_execs=4000)
    res = finalize(c)
    maps = GlobalMaps()
    for t in res.corpus:
        rep = maps.merge_and_report(c.target.run(t.input))
        if t.parent is not None:
            assert rep.new_branch_bits or rep.new_state_bits


def test_baseline_retention_is_branch_only():
    p = generate_program(seed=3)
    c = init_campaign(p, baseline_config(), seed=8)
    fuzz_loop(c, max_execs=4000)
    res = finalize(c)
    maps = GlobalMaps()
    for t in res.corpus:
        rep = maps.merge_and_report(c.target.run(t.input))
        if t.parent is not None:
            assert rep.new_branch_bits
            assert t.new_branch is True


def test_baseline_config_toggles_flags_only():
    assert [f.name for f in dataclasses.fields(FuzzConfig)] == ["baseline"]
    assert baseline_config() == FuzzConfig(baseline=True)
    assert FuzzConfig().baseline is False
    # the baseline draws symbols uniformly; the full config weights the
    # compared constant 2 and its neighbours
    assert init_campaign(parse_or_raise(ERROR_ON_TWO), baseline_config()).pool_values == (
        1, 2, 3, 4, 5)
    assert init_campaign(parse_or_raise(ERROR_ON_TWO)).pool_values == (
        1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 5)


def test_queue_inputs_stay_in_alphabet():
    p = generate_program(seed=6)
    c = init_campaign(p, seed=2)
    fuzz_loop(c, max_execs=2500)
    for t in c.queue:
        assert all(p.alphabet_lo <= s <= p.alphabet_hi for s in t.input)
        assert 1 <= len(t.input) <= MAX_LEN


def test_max_seconds_stops_loop():
    p = generate_program(seed=1)
    c = init_campaign(p, seed=0)
    fuzz_loop(c, max_seconds=0.2)
    assert c.execs > 0


def test_write_outputs_layout_and_round_trip(tmp_path):
    p = parse_or_raise(ERROR_ON_TWO)
    c = init_campaign(p, seed=0)
    fuzz_loop(c, max_execs=500)
    res = finalize(c)
    write_outputs(res, tmp_path)
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["execs"] == res.execs
    assert stats["errors"]["7"]["witness"] == [2]
    assert set(stats) == {
        "branch_bits", "corpus_size", "errors", "execs", "state_bits",
        "total_error_ids"}
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert timing["elapsed_seconds"] >= 0
    queue_files = sorted((tmp_path / "queue").iterdir())
    assert len(queue_files) == len(res.corpus)
    for t in res.corpus:
        text = (tmp_path / "queue" / f"id_{t.id}.txt").read_text()
        assert parse_input_text(text) == t.input
    err_text = (tmp_path / "errors" / "error_7.txt").read_text()
    assert parse_input_text(err_text) == (2,)


def test_format_input_round_trip():
    assert parse_input_text(format_input((3, 1, 4))) == (3, 1, 4)
    assert parse_input_text(format_input(())) == ()
