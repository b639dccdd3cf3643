"""The traced benchmark pass ends in one strict JSON result with a number for every layer.

A layer function that no longer resolves, or a work amount that raises,
reads ``null``, and a broken division ``NaN`` or ``Infinity``; any of
those makes the last line unusable as a result.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def _refuse(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


def test_traced_preset_sweep_result_line_is_numeric():
    run = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "preset_sweep", "--seed", "0", "--trace"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["unmeasured"] == [] and result["failed"] == 0
    assert result["layers"]
    for name, value in result["layers"].items():
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
