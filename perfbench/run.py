"""Benchmark entry point: run one workload once, print one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 12 \\
        --trace 0

The run happens in a fresh child process (``worker.py``) so set-up
time and peak memory are those of one workload alone. ``REPRO_*``
environment variables are removed from the child so that worker
counts and tracing come from the benchmark, not the caller's shell.
The last line printed is ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 1`` the metrics are the per-layer ones.
Exits non-zero, printing no result, when the program under test is
missing or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_query", "warm_mix", "live_window", "gateway_open")
#: The child is stopped after this long (the run limit is 180 s).
CHILD_TIMEOUT = 170.0
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return fail(f"no program to benchmark: {src / 'repro'} is missing")

    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(ROOT / ".perfbench"),
        "--spawned-at", repr(time.monotonic()),
    ]
    # A session of its own, so a timeout can stop the worker's pool
    # processes too.
    child = subprocess.Popen(command, env=env, cwd=str(ROOT),
                             stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return fail(f"worker exceeded {CHILD_TIMEOUT:.0f} s")
    finally:
        _reap_group(child.pid)
    if child.returncode != 0:
        return fail(f"worker exited with code {child.returncode}")
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        stamp = json.loads(lines[-2])["stamp"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as error:
        return fail(f"unreadable worker output: {error}")
    if sorted(result) != sorted(RESULT_KEYS):
        return fail(f"worker result has keys {sorted(result)}")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


def _reap_group(pgid: int) -> None:
    """Stop anything the worker left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return


if __name__ == "__main__":
    sys.exit(main())
