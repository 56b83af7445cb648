"""scripts/demo_pipeline.py runs end to end on the library API."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from runs import generate_program

import reachfuzz
from reachfuzz.executor import compile_expand

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "demo_pipeline.py"


def test_demo_pipeline_runs_and_writes_its_campaign(tmp_path):
    path = [str(Path(reachfuzz.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out_dir = tmp_path / "camp"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--budget", "2000", "--out", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["execs"] == 2000
    lines = done.stdout.splitlines()
    assert (
        f"{stats['execs']} execs, {stats['corpus_size']} corpus entries, "
        f"{stats['branch_bits']} branch bits, {stats['state_bits']} state bits"
    ) in lines
    # the demo's program is gen's default at seed 0; no global of it
    # falls back to I64, so the key is narrow
    program = generate_program(seed=0)
    digits = compile_expand(program)[2]
    width = (math.prod(radix for _, radix in digits) - 1).bit_length()
    assert f"oracle keys: {len(digits)} digits, {width} bits" in lines
    assert len(digits) == len(program.globals) and width < 64
    verdicts = lines[lines.index("== verdicts ==") + 1:]
    assert len(verdicts) == stats["total_error_ids"]
    assert {int(v.split(",")[0]) for v in verdicts if v.endswith(",error_reachable")} == {
        int(k) for k in stats["errors"]}
