from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings
from runs import generate_program

from reachfuzz.cfg import build_cfg
from reachfuzz.frontend import Program, list_error_ids, parse_program
from reachfuzz.gen import generate_source
from reachfuzz.oracle import bfs_reachability


def test_same_seed_same_text():
    assert generate_source(seed=7) == generate_source(seed=7)
    assert generate_source(seed=7) != generate_source(seed=8)


def test_source_parses_clean():
    for seed in range(20):
        out = parse_program(generate_source(seed=seed))
        assert isinstance(out, Program)


def test_generate_program_matches_source():
    p = generate_program(seed=5)
    q = parse_program(generate_source(seed=5))
    assert p == q


def test_alphabet_and_vars_follow_parameters():
    p = generate_program(vars=3, domain=4, alphabet=7, seed=1)
    assert (p.alphabet_lo, p.alphabet_hi) == (1, 7)
    assert len(p.globals) == 3
    for _, init in p.globals:
        assert 0 <= init < 4


def test_all_error_ids_present():
    for seed in range(10):
        p = generate_program(errors=10, seed=seed)
        assert list_error_ids(p) == frozenset(range(1, 11))


def test_error_count_parameter():
    p = generate_program(errors=3, seed=2)
    assert list_error_ids(p) == frozenset({1, 2, 3})


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_parameter_grid_generates_valid_programs(nvars, domain, alphabet, seed):
    p = generate_program(vars=nvars, domain=domain, alphabet=alphabet,
                         errors=4, seed=seed)
    assert isinstance(p, Program)
    assert (p.alphabet_lo, p.alphabet_hi) == (1, alphabet)
    assert len(p.globals) == nvars
    build_cfg(p)


def test_default_family_is_branchy():
    sizes = [len(build_cfg(generate_program(seed=s)).blocks) for s in range(10)]
    assert min(sizes) >= 20


def test_default_family_mostly_oracle_complete():
    complete = 0
    for seed in range(50):
        res = bfs_reachability(generate_program(seed=seed), state_cap=10**5)
        complete += res.complete
    assert complete >= 45
