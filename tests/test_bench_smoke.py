"""The benchmark's output contract, on its decode workload.

`seqbench/run.py` must end with one JSON result line that carries every
metric `BENCHMARK.json` names for the mode, with `correct` true and no failed
operation.  A run whose last line is anything else cannot be measured.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_benchmark_ends_in_a_complete_result_line(trace, section):
    argv = [
        sys.executable, "seqbench/run.py", "--workload", "decode_q8_n400",
        "--seed", "1", "--seconds", "0", "--trace", str(trace),
    ]
    run = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600
    )
    assert run.returncode == 0, run.stdout[-2000:]
    lines = run.stdout.splitlines()
    assert "not found, not traced" not in run.stdout and "not measured" not in run.stdout
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[section])
