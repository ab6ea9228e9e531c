"""The benchmark's traced run end to end: `bench/run.py --trace 1` hashes and
sums fields of every study result outside its per-call error handling, so a
renamed result field or a value its report cannot serialize ends the run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.skipif(not RUN.is_file(), reason="bench/ is not in this checkout")
def test_traced_ens_long_run_exits_correct():
    cmd = [sys.executable, str(RUN), "--workload", "ens_long", "--seed", "1", "--seconds", "1",
           "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
