"""Smoke runs of the benchmark: every workload, untraced and traced.

``bench/run.py`` reaches into the package from outside: it wraps the
functions named in ``bench/tracing.py`` and needs each to be called
(``tensor.im2col_batch`` and ``cost.madds_cac`` during an eval op, for
example), calls ``cac_forward_hard(x, params)`` positionally, reads
``Network._outputs`` and checks the hard path against the oracle.  A
package change that breaks any of these makes the run exit 1, often
only with ``--trace 1``.  Each run writes only the git-ignored
``bench/out/`` and ``bench/work/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train_cifar10fmt", "eval_smooth", "eval_sharp"])
def test_bench_run_exits_clean(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
