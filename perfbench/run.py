#!/usr/bin/env python3
"""lrpovm benchmark: one workload, timed end to end or traced by layer.

Run from the root of an lrpovm checkout (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least once) and reports the end-to-end metrics; ``--trace 1`` runs it
once untraced and once traced, both at one worker, and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (``record: {...}``), also written to
``.perfbench_run/records/``.  See ``perfbench/README.md``.
"""
import os

# Pin BLAS before numpy loads, so pool workers x BLAS threads <= nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_FIRST = 3       # set-up probes before the first iteration
SETUP_BETWEEN = 2     # and after each iteration


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["sweep", "point", "exact"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int, repeats: int) -> list[float]:
    """Fresh interpreters importing lrpovm and building the inputs."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(probe, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_facts(wl, seed: int, trace: int) -> dict:
    """The run record's header; field names match a future run report."""
    import numpy
    import lrpovm
    return {"workload": wl.name, "seed": seed, "trace": bool(trace),
            **wl.facts(),
            "workers": 1 if trace else wl.workers,
            "versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__,
                         "lrpovm": getattr(lrpovm, "__version__", None)},
            "git_commit": git_commit(),
            "machine": {"nproc": os.cpu_count(),
                        "platform": platform.platform()},
            "blas_threads": BLAS_THREADS}


def timed(wl, workers: int) -> tuple[float, dict]:
    start = time.perf_counter()
    result = wl.run(workers)
    return time.perf_counter() - start, result


def measure(wl, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: repeat the workload for at most ``seconds``.

    An iteration starts only if the median iteration so far still fits, so
    a run measures at most ``seconds`` (and at least one iteration).  The
    set-up probes are spread between iterations so that a slow spell of
    the machine does not land on all of them.
    """
    setup = setup_seconds(wl.name, wl.seed, SETUP_FIRST)
    walls = []
    start = time.perf_counter()
    while True:
        wall, result = timed(wl, wl.workers)
        walls.append(wall)
        wl.check(result)
        setup += setup_seconds(wl.name, wl.seed, SETUP_BETWEEN)
        spent = time.perf_counter() - start
        if spent + statistics.median(walls) > seconds:
            break
    t = wl.tally
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_rate": ((t.attempted - t.failed) / t.attempted, "ratio"),
        "exact_max_abs_err": (wl.exact_max_abs_err(), "abs"),
    }
    return metrics, {"wall_s": walls, "setup_s": setup}


def measure_traced(wl) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced and one traced iteration, 1 worker."""
    import tracing
    untraced, result = timed(wl, 1)
    wl.check(result)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced, result = timed(wl, 1)
    wl.check(result)
    pool = pool_probe(wl, tracer) if wl.workers > 1 else {}
    metrics = tracing.per_layer_metrics(tracer, traced, untraced, pool)
    silent = [name for name in wl.moves if not metrics[name][0]]
    if silent:
        raise SystemExit(f"error: {silent} read zero on workload {wl.name}; "
                         "the layer wrappers no longer reach the program")
    return metrics, {"untraced_s": untraced, "traced_s": traced,
                     "layers": tracing.layer_summary(tracer, traced),
                     "pool": pool}


def pool_probe(wl, tracer) -> dict:
    """The workload's first CLI call at 1 worker and then at wl.workers."""
    import tracing
    inputs, wl.inputs = wl.inputs, wl.inputs[:1]
    try:
        serial, result = timed(wl, 1)
        wl.check(result)
        with tracing.count_pool_starts(tracer.counts):
            parallel, result = timed(wl, wl.workers)
        wl.check(result)
    finally:
        wl.inputs = inputs
    return {"workers": wl.workers, "serial_s": serial, "parallel_s": parallel,
            "efficiency": serial / (wl.workers * parallel),
            "overhead_s": parallel - serial / wl.workers}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lrpovm" / "__init__.py").is_file():
        print(f"error: {SRC / 'lrpovm'} not found; run from the root of an "
              "lrpovm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lrpovm
    if not Path(lrpovm.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {lrpovm.__file__}, not the checkout's copy",
              file=sys.stderr)
        return 2
    import workloads

    out_dir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        if args.trace:
            metrics, detail = measure_traced(wl)
        else:
            metrics, detail = measure(wl, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    t = wl.tally
    record = dict(run_facts(wl, args.seed, args.trace),
                  timings=detail,
                  metrics={k: v for k, (v, _) in metrics.items()},
                  attempted=t.attempted, failed=t.failed,
                  known_defect_failures=t.known, problems=t.problems,
                  closed_form_worst=dict(sorted(
                      wl.closed_form.items(), key=lambda kv: -kv[1])[:5]))
    records = RUN_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1, default=str))
    print("record: " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": t.correct, "attempted": t.attempted, "failed": t.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
