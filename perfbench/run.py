"""qtspp benchmark: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The set-up time is the median of
several fresh interpreters that each import qtspp, load and check the
recurrence fixture and generate the seeded inputs.  The workload itself runs
in one more fresh interpreter so that its peak memory is its own (see
workloads.py).  With --trace 0 the last line of output carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The line before it records the seed, the generated inputs and any failures.

Exit status 0 only when every operation passed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS_PY = HERE / "workloads.py"
WORKLOADS = ("certify", "lift", "q1", "pipeline")

#: fresh-interpreter set-ups per run, besides the measuring interpreter's own
SETUP_PROBES = 6
#: every run must finish well inside three minutes
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def _child(args: list[str], timeout: float) -> dict:
    """Run workloads.py in its own process group; parse its last stdout line."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKLOADS_PY), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"workloads.py {args[0]} did not finish within {timeout:.0f} s")
    finally:
        # sweep workers are grandchildren; make sure none outlives the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RunFailed(f"workloads.py {args[0]} exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed(f"workloads.py {args[0]} printed nothing")
    return json.loads(lines[-1])


def end_to_end(doc: dict, setup_samples: list[float]) -> dict:
    op_s = doc["op_s"]
    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(op_s) / doc["loop_s"], "1/s"),
        "op_s_p50": (statistics.median(op_s), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    start = time.perf_counter()
    if not (ROOT / "src" / "qtspp" / "__init__.py").is_file():
        raise RunFailed(f"no qtspp sources under {ROOT / 'src'}; run from a source checkout")
    common = ["--workload", workload, "--seed", str(seed)]
    doc = _child(
        ["measure", *common, "--seconds", str(seconds), "--trace", str(trace)],
        DEADLINE_S - 20.0,
    )
    setup_samples = [doc["setup_s"]]
    for _ in range(SETUP_PROBES):
        setup_samples.append(_child(["setup", *common], DEADLINE_S - (time.perf_counter() - start))["setup_s"])
    attempted = len(doc["op_s"])
    failed = len(doc["failures"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": doc["layers"] if trace else end_to_end(doc, setup_samples),
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": doc["inputs"],
        "op_s": doc["op_s"],
        "setup_samples_s": setup_samples,
        "failures": doc["failures"],
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qtspp benchmark: one run of one workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
