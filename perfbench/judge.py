"""Independent checks of the benchmark's outputs.

The judges are the AST interpreter (`reference_step`), which shares no
code with the generated target the fuzzer runs, and the exhaustive BFS
oracle. No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import re

from reachfuzz import reference_step


class CheckFailed(Exception):
    """An output that the independent checks reject."""


def replay(program, witness) -> "tuple[str, int | None, int]":
    """Run a witness from the initial valuation under `reference_step`.

    Returns (status, error_id, consumed): the status of the first step
    that did not complete ("ok" if all did), its error id, and how many
    symbols were consumed up to and including that step.
    """
    values = program.initial_values()
    for n, sym in enumerate(witness, 1):
        status, err, values, _ = reference_step(program, values, sym)
        if status != "ok":
            return status, err, n
    return "ok", None, len(witness)


def check_fuzzer_witness(program, error_id: int, witness) -> int:
    """The run of a fuzzer witness must stop at error `error_id`.

    Returns the number of symbols the run consumed, which is the length
    of the witness that actually reached the error.
    """
    status, err, used = replay(program, witness)
    if status != "error" or err != error_id:
        raise CheckFailed(
            f"fuzzer witness for error {error_id} replays to {status}/{err}"
        )
    return used


def check_oracle(program, reachable: dict, complete: bool, error_ids) -> None:
    """The oracle must be complete and each of its witnesses must reach its
    error exactly at its last symbol."""
    if not complete:
        raise CheckFailed("oracle run is incomplete")
    for k, witness in reachable.items():
        if k not in error_ids:
            raise CheckFailed(f"oracle reports error {k}, which the program lacks")
        got = replay(program, witness)
        if got != ("error", k, len(witness)):
            raise CheckFailed(f"oracle witness for error {k} replays to {got}")


def check_discoveries(found: dict, reachable: dict) -> None:
    """`found` maps each discovered error id to the steps its fuzzer witness
    took to reach it. Every id must be oracle-reachable, and no witness may
    be shorter than the oracle's, since BFS witnesses are shortest."""
    for k, used in found.items():
        if k not in reachable:
            raise CheckFailed(f"error {k} was found but the oracle cannot reach it")
        if used < len(reachable[k]):
            raise CheckFailed(
                f"fuzzer witness for error {k} takes {used} steps, "
                f"fewer than the oracle's shortest {len(reachable[k])}"
            )


def check_key_cache(program, key_cache, bounds: dict, explored_states: int) -> None:
    """Every valuation the campaign saw lies inside the interval bounds, and
    there are no more of them than the oracle found reachable."""
    if len(key_cache) > explored_states:
        raise CheckFailed(
            f"campaign saw {len(key_cache)} valuations, "
            f"the oracle only {explored_states}"
        )
    names = program.global_names()
    ranges = [(bounds[n].lo, bounds[n].hi) for n in names]
    for values in key_cache:
        for name, x, (lo, hi) in zip(names, values, ranges):
            if not lo <= x <= hi:
                raise CheckFailed(
                    f"valuation {values}: {name} = {x} lies outside [{lo}, {hi}]"
                )


def check_report(csv_text: str, error_ids, written_ids) -> None:
    """The report lists every error id once, and its error_reachable ids
    are exactly the ids whose witness files were written."""
    listed: "dict[int, str]" = {}
    for line in csv_text.splitlines():
        key, sep, verdict = line.partition(",")
        if not sep or not key.strip().isdigit() or verdict not in ("error_reachable", "UNKNOWN"):
            raise CheckFailed(f"malformed report line {line!r}")
        k = int(key)
        if k in listed:
            raise CheckFailed(f"report lists error {k} twice")
        listed[k] = verdict
    if set(listed) != set(error_ids):
        raise CheckFailed(
            f"report lists ids {sorted(listed)}, the program has {sorted(error_ids)}"
        )
    reachable = {k for k, v in listed.items() if v == "error_reachable"}
    if reachable != set(written_ids):
        raise CheckFailed(
            f"report marks {sorted(reachable)} reachable, "
            f"witness files exist for {sorted(written_ids)}"
        )


_ORACLE_LINE = re.compile(r"error (\d+): reachable, witness=([\d ]*), len=(\d+)")
_ORACLE_TAIL = re.compile(r"complete: (true|false), states: (\d+)")


def parse_oracle_output(text: str) -> "tuple[dict, bool, int]":
    """Read `reachfuzz oracle` output back as (reachable, complete, states)."""
    reachable: dict = {}
    tail = None
    for line in text.splitlines():
        m = _ORACLE_LINE.fullmatch(line)
        if m:
            witness = tuple(int(tok) for tok in m.group(2).split())
            if len(witness) != int(m.group(3)):
                raise CheckFailed(f"oracle line {line!r} misstates its length")
            reachable[int(m.group(1))] = witness
            continue
        tail = _ORACLE_TAIL.fullmatch(line)
        if tail is None:
            raise CheckFailed(f"unexpected oracle output line {line!r}")
    if tail is None:
        raise CheckFailed("oracle output has no summary line")
    return reachable, tail.group(1) == "true", int(tail.group(2))
