"""Benchmark runner: run one workload for a fixed time and report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload framework --seed 1 --seconds 30 --trace 0

Each pass is a fresh interpreter (``one_pass.py``) with BLAS and OpenMP
pinned to one thread.  Passes repeat while another one still fits in
``--seconds``; the end-to-end metrics are medians over passes.  The
timed metrics are CPU seconds of the pass process, scaled by a fixed
calibration kernel sampled while the pass runs (``calibrate.py``), so
that they follow the program and not the speed a shared host happens to
run at; the raw CPU and wall times are printed alongside.  The first
pass checks every operation against the paper's guarantees; later
passes must reproduce its per-operation output digests exactly.  With ``--trace 1``
traced and untraced passes alternate (traced first), and the per-layer
metrics are medians over the traced passes.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import EXACT_COUNTS, LAYER_METRICS  # noqa: E402

WORKLOADS = ("framework", "decompose", "local", "solve")
END_TO_END = (("scaled_cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
REFERENCE = (("cpu_s", "s"), ("setup_cpu_s", "s"), ("sample_ms", "ms"),
             ("wall_s", "s"), ("setup_wall_s", "s"))
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
PASS_TIMEOUT_S = 120
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")


def git_commit():
    """HEAD of the checkout, read from ``.git`` directly (None if absent)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(workload, seed, traced, check):
    """Spawn one pass; return its report with ``setup_wall_s`` filled in."""
    spans = os.path.join(OUT_DIR, f"{workload}.trace.json")
    command = [sys.executable, os.path.join(HERE, "one_pass.py"), workload,
               str(seed), str(int(traced)), str(int(check)), spans]
    started = time.monotonic()
    proc = subprocess.run(
        command, cwd=ROOT, env=dict(os.environ, **PINNED_ENV),
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} pass exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_wall_s"] = report["inputs_ready"] - started
    report["traced"] = traced
    return report


def score(passes):
    """(attempted, failed, messages): later passes must match the first."""
    reference = passes[0]["ops"]
    attempted = failed = 0
    messages = []
    for number, report in enumerate(passes):
        for ref, op in zip(reference, report["ops"]):
            attempted += 1
            problem = op["error"] or ref["error"]
            if problem is None and op["digest"] != ref["digest"]:
                problem = "output digest differs from the checked pass"
            if problem is not None:
                failed += 1
                messages.append(f"pass {number} {op['label']}: {problem}")
    return attempted, failed, messages


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise SystemExit(f"no src/repro under {ROOT}: nothing to benchmark")

    # Start another pass only if one more (as long as the last) still
    # ends within --seconds, so a run's length does not depend on luck.
    deadline = time.monotonic() + args.seconds
    minimum = 2 if args.trace else 1
    passes, last = [], 0.0
    while len(passes) < minimum or time.monotonic() + last <= deadline:
        traced = bool(args.trace) and len(passes) % 2 == 0
        started = time.monotonic()
        passes.append(run_pass(args.workload, args.seed, traced,
                               check=not passes))
        last = time.monotonic() - started
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    attempted, failed, messages = score(passes)
    env = dict(passes[0]["env"], commit=git_commit())
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} "
          f"untraced + {len(traced)} traced passes, "
          f"{len(passes[0]['ops'])} operations each")
    combined = "".join(op["digest"] or "-" for op in passes[0]["ops"])
    print(f"digest {hashlib.sha256(combined.encode()).hexdigest()}")
    for name in ("scaled_cpu_s", "cpu_s", "sample_ms", "wall_s"):
        print(f"pass {name}: " + " ".join(
            f"{p[name]:.3f}{'t' if p['traced'] else ''}" for p in passes))
    for message in messages[:20]:
        print("FAIL " + message)
    print(f"fail_frac {failed / attempted:.4f} ({failed}/{attempted})")

    steady = True
    if traced:
        print("hooks found: " + ", ".join(traced[0]["hooks_found"]))
        print("hooks missing: " + (", ".join(traced[0]["hooks_missing"]) or "none"))
        counts = {tuple(p["layers"][k] for k in EXACT_COUNTS) for p in traced}
        steady = len(counts) == 1
        if not steady:
            print("UNSTEADY exact counts across passes: " + repr(sorted(counts)))
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name, _ in LAYER_METRICS}
        values["tracing.overhead_s"] = (
            statistics.median(p["scaled_cpu_s"] for p in traced)
            - statistics.median(p["scaled_cpu_s"] for p in untraced))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        for name, unit in REFERENCE:
            value = statistics.median(p[name] for p in untraced)
            print(f"{name:32s} {value:.6g} {unit} (reference, not a metric)")
        metrics = {
            name: {"value": statistics.median(p[name] for p in untraced),
                   "unit": unit}
            for name, unit in END_TO_END
        }
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
