"""Benchmark of the legsurf CLI, end to end and layer by layer.

Run from the root of a source tree:

    python3 perfbench/run.py --workload descend_flat --seed 1 --seconds 10 --trace 0

The workloads are described in perfbench/README.md.  One process runs one
workload: it imports ``legsurf.cli`` from ``src/``, times the interpreter
set-up in fresh subprocesses, then runs operations through
``legsurf.cli.main``: the cold one, then warm ones while the next should
end within ``--seconds`` of the cold one's end (at least one; two when
traced).  Every operation's outputs are checked.

Times are CPU seconds of the thread that runs the work (or, for set-up, of
the child interpreter), scaled to a reference speed: on a shared virtual
machine the wall clock also counts the time the host runs other guests,
which the CPU clock leaves out, and the CPU itself runs up to 1.7x slower
at times, which the speed probe of ``calibrate.py`` measures while the
work runs.  The report keeps the raw CPU and wall times too.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` operations alternate between traced and untraced after
the cold one and the last line holds the per-layer metrics.  The line
before it is a full report: environment, samples, work counters.  Reports
and spans are also written under ``.perfbench_run/<workload>/``.
"""

import os

# Single-threaded BLAS, pinned before NumPy is first imported.
BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# At least the cold operation and one warm one; a traced run adds an
# untraced one to compare with.
MIN_OPS = {0: 2, 1: 3}
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it, nearest rank.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies; the
    maximum is reported, and the report records the sample count.
    """
    xs = sorted(values)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs)


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_times(repeats, probe):
    """Fresh interpreters that import ``legsurf.cli`` and exit: scaled CPU and wall times.

    The interpreter runs while this process waits, so the probe samples the
    speed just before and just after it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpu, wall = [], []
    for _ in range(repeats):
        with probe:
            c0, t0 = children_cpu(), time.perf_counter()
            subprocess.run([sys.executable, "-c", "import legsurf.cli"], env=env, check=True)
            wall.append(time.perf_counter() - t0)
            c1 = children_cpu()
        cpu.append((c1 - c0) * probe.scale())
    return cpu, wall


def source_digest():
    """sha256 over the package sources: identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "legsurf").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def run_op(main, wl, workdir, rec, probe, traced):
    """One operation: every CLI call of ``wl``, timed, then checked."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    rec.reset(spans_on=traced)
    errors = []
    t0 = time.perf_counter()
    c0 = probe.clock()
    with probe, contextlib.redirect_stdout(io.StringIO()):
        for argv in wl.commands:
            try:
                status = main(argv)
            except Exception:  # an uncaught error is a failed operation, not a crash
                errors.append(traceback.format_exc())
                break
            if status != 0:
                errors.append(f"{argv[0]} exited with status {status}")
                break
    cpu = probe.clock() - c0
    wall = time.perf_counter() - t0
    values = {}
    if not errors:
        try:
            values = wl.check(out)
        except (workloads.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"output check: {type(exc).__name__}: {exc}")
    return {
        "cpu_s": cpu,
        "wall_s": wall,
        "scale": probe.scale(),
        "seconds": cpu * probe.scale(),
        "probe_samples": len(probe.samples),
        "traced": traced,
        "values": values,
        "errors": errors,
        "counts": dict(rec.counts),
        "descend_s": rec.descend_s,
        "spans": rec.spans,
        "digests": workloads.output_digests(out) if out.exists() else {},
    }


def step_rate(op, wl):
    """Accepted descent steps per second of ``descend`` time; meshes per second otherwise."""
    if isinstance(wl, workloads.Descent):
        return op["counts"].get("energy.accepted_steps", 0) / (op["descend_s"] * op["scale"])
    return op["counts"].get("mesh.build", 0) / op["seconds"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for perfbench/smoke.py")
    args = parser.parse_args(argv)

    if not (SRC / "legsurf" / "cli.py").is_file():
        print(f"no legsurf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.make(args.workload, args.seed, smoke=args.smoke)
    wl.prepare(workdir)

    t0 = time.perf_counter()
    import legsurf.cli  # noqa: F401  (in-process; also leaves bytecode for the set-up runs)

    import_s = time.perf_counter() - t0
    # One CPU for the process and its children, so that the speed probe
    # measures the CPU the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = calibrate.Probe()
    probe.sample()  # the first pass pays NumPy's and SciPy's lazy set-up
    rec = layers.Recorder(probe.clock)
    cli_main = layers.install(rec)
    setup, setup_wall = setup_times(SETUP_REPEATS, probe)

    # The cold operation, then warm ones while the next should end inside
    # the window of --seconds that starts after the cold one.
    ops = []
    start = last = 0.0
    while len(ops) < MIN_OPS[args.trace] or time.perf_counter() - start + last <= args.seconds:
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_op(cli_main, wl, workdir, rec, probe, traced))
        last = ops[-1]["wall_s"]
        if len(ops) == 1:
            start = time.perf_counter()

    # Repeated operations must agree byte for byte and count the same work.
    first = ops[0]
    for op in ops[1:]:
        if not op["errors"] and not first["errors"]:
            if op["digests"] != first["digests"]:
                op["errors"].append("output files differ from the first operation's")
            if op["counts"] != first["counts"]:
                op["errors"].append("work counters differ from the first operation's")
    failed = sum(bool(op["errors"]) for op in ops)
    for i, op in enumerate(ops):
        for err in op["errors"]:
            print(f"operation {i} failed: {err}", file=sys.stderr)

    warm = [op for op in ops[1:] if not op["traced"]]
    warm_s = [op["seconds"] for op in warm]
    tail_s, tail_pct = tail(warm_s)
    values = first["values"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "inputs": {"commands": wl.commands},
        "import_s": import_s,
        "setup_samples_s": setup,
        "setup_wall_samples_s": setup_wall,
        "op_samples_s": [op["seconds"] for op in ops],
        "op_cpu_samples_s": [op["cpu_s"] for op in ops],
        "op_wall_samples_s": [op["wall_s"] for op in ops],
        "op_scale": [op["scale"] for op in ops],
        "op_probe_samples": [op["probe_samples"] for op in ops],
        "op_traced": [op["traced"] for op in ops],
        "op_s_samples": len(warm_s),
        "op_s_tail_percentile": tail_pct,
        "attempted": len(ops),
        "failed": failed,
        "fail_frac": failed / len(ops),
        "work_counters": {k: first["counts"].get(k, 0) for k in layers.WORK_COUNTERS},
        # Traced and untraced operations alike count the cold one's work.
        "work_counters_repeat": all(op["counts"] == first["counts"] for op in ops),
        "counts": first["counts"],
        "values": values,
        "output_digests": first["digests"],
    }
    def metric(value, unit):
        return {"value": value, "unit": unit}

    e2e = {
        "op_s": metric(median(warm_s), "s"),
        "op_s_tail": metric(tail_s, "s"),
        "cold_op_s": metric(first["seconds"], "s"),
        "setup_s": metric(median(setup), "s"),
        "steps_per_s": metric(median([step_rate(op, wl) for op in warm]), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_energy": metric(values.get("final_energy", 0.0), "1"),
    }
    # Figures BENCHMARK.json cannot hold: they are 0 or absent on some workloads.
    extra = {k: metric(values[k], "1") for k in ("density_err", "balance_residual") if k in values}
    report["end_to_end"] = {**e2e, **extra, "fail_frac": metric(report["fail_frac"], "1")}

    if args.trace:
        traced = [op for op in ops if op["traced"]]
        per_op = [
            {name: v * op["scale"] if layers.unit(name) == "s" else v
             for name, v in layers.layer_metrics(op["counts"], op["spans"]).items()}
            for op in traced
        ]
        metrics = {
            name: metric(median([m[name] for m in per_op]), layers.unit(name))
            for name in per_op[0]
        }
        traced_s = median([op["seconds"] for op in traced])
        metrics["trace.overhead_frac"] = metric(traced_s / median(warm_s) - 1.0, "1")
        report["per_layer"] = metrics
        with open(workdir / "spans.json", "w") as f:
            json.dump([{"operation": i, "spans": op["spans"]}
                       for i, op in enumerate(ops) if op["traced"]], f)
    else:
        metrics = e2e

    with open(workdir / "report.json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
