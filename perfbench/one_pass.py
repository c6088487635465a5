"""One pass of one workload in a fresh interpreter (spawned by run.py).

Usage: python3 perfbench/one_pass.py WORKLOAD SEED TRACE CHECK SPANS_PATH

Imports the library from ``src/`` of the checkout, generates the
workload's inputs from SEED, runs every operation once (timed), and
prints one JSON object as its last line: the monotonic clock reading
when the inputs were ready (run.py turns it into the set-up wall time),
the process's CPU time up to that point (``setup_cpu_s``), the
operations' CPU and wall time, peak RSS, the calibration samples taken
while both ran (see ``calibrate.py``), both CPU times scaled by them
(``setup_s``, ``scaled_cpu_s``), per-operation digests and, with
CHECK=1, per-operation verdicts.  With TRACE=1 the layer wrappers are
installed first and the pass also reports per-layer busy times and
counts, and writes its spans to SPANS_PATH when it ends.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def main(argv):
    workload_name, seed, trace, check, spans_path = argv
    seed, trace, check = int(seed), trace == "1", check == "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import calibrate
    sampler = calibrate.Sampler()
    sampler.start()
    import repro
    import workloads
    from layers import Tracer

    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not src/")

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[workload_name](seed)
    inputs_ready = time.monotonic()
    # CPU seconds of this process since it was spawned: interpreter start,
    # imports and the generators, without the samples.
    setup_cpu_s = time.process_time() - sampler.spent

    operations = workload.operations()
    results, errors = [], []

    def run_all():
        for _, thunk in operations:
            try:
                results.append(thunk())
                errors.append(None)
            except Exception as exc:  # a raising operation is a failed one
                results.append(None)
                errors.append(f"raised {type(exc).__name__}: {exc}")

    start = time.perf_counter()
    cpu_start = time.process_time() - sampler.spent
    if tracer:
        tracer.call("other", run_all)
    else:
        run_all()
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - sampler.spent - cpu_start
    sampler.stop()
    scale = sampler.scale()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below is outside the timed region.
    ops = []
    for index, ((label, _), result, error) in enumerate(
            zip(operations, results, errors)):
        entry = {"label": label, "digest": None, "error": error}
        if error is None:
            entry["digest"] = workloads.digest(workload.canonical(index, result))
            if check:
                try:
                    entry["error"] = workload.check(index, result)
                except Exception as exc:
                    entry["error"] = f"check raised {type(exc).__name__}: {exc}"
        ops.append(entry)
    report = {
        "inputs_ready": inputs_ready,
        "setup_cpu_s": setup_cpu_s,
        "setup_s": setup_cpu_s * scale,
        "cpu_s": cpu_s,
        "scaled_cpu_s": cpu_s * scale,
        "sample_ms": 1000 * sampler.spent / len(sampler.samples),
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "checked": check,
        "env": _environment(),
    }
    if tracer:
        report["layers"] = tracer.layer_values(wall_s)
        report["hooks_found"] = tracer.found
        report["hooks_missing"] = tracer.missing
        tracer.write_chrome_trace(spans_path)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
