"""Benchmark of the MTCSC reproduction: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload {sweep,fleet,long,stream} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run it from the repository root; it reads the library from ``src/`` and the
metric names and units from ``BENCHMARK.json``.  With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer ones (it
then alternates untraced and traced repetitions to measure the tracing
overhead).  Stdout holds only metrics; the last line is one JSON object.
Spark and every scratch file stay under ``.bench_work/``.  The exit code
is 0 only if every output check passed.  README.md explains the workloads
and metrics.
"""
import time

PROCESS_START = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_CORES = 4  # Spark runs local[min(MAX_CORES, usable CPUs)]
DRIVER_MEMORY = "1g"
SHUFFLE_PARTITIONS = 64  # as the test fixture and the jobs
# C1 only: with the default tiered JIT the Spark plans keep speeding up for
# ~35 s of repetitions, longer than a run can afford to warm up; with C1
# they are within ~10 % of steady after the warm-up pass.
# No perf-data file: HotSpot would write it to /tmp, outside the checkout.
JVM_OPTIONS = "-XX:TieredStopAtLevel=1 -XX:-UsePerfData"
PREPARE_ROUNDS = 3  # input preparation is repeated; setup_s takes the median
# Repetitions per pass however short --seconds is: every median covers two
# at least, two drains of `stream` pool 70 batch latencies (10 beyond the
# 85th percentile), and in a traced run each pass runs first once.
MIN_REPS = 2
WORKLOAD_NAMES = ("sweep", "fleet", "long", "stream")
UNBOUNDED_END_TO_END = (
    "rmse",
    "repair_fraction",
    "batch_latency_p50_ms",
    "batch_latency_p85_ms",
    "batch_latency_samples",
    "mismatch_frac",
    "failed_frac",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_revision() -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def claim_stdout():
    """Keep fd 1 for metrics; send everything else written to it to stderr.

    The JVM and the Python workers inherit fd 1, so this also keeps Spark
    output off stdout.
    """
    sys.stdout.flush()
    out = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    return out


def start_spark(cores: int, workdir: Path):
    """A local Spark session whose JVM, workers and temp files stay in ``workdir``."""
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    # Python workers get the library and this directory on their path.
    path = [str(ROOT / "src"), str(HERE)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(path)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(workdir / "local")
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # spark-submit's launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--driver-java-options " + shlex.quote(f"-Djava.io.tmpdir={tmp} {JVM_OPTIONS}"),
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf spark.driver.host=127.0.0.1",
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={workdir / 'warehouse'}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait until the JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def measure(wl, args, session_ready: float):
    """Set up, warm up, run repetitions for ``args.seconds``, check outputs.

    Returns ``(values, attempted, failed, problems)``.
    """
    from tracing import Tracer

    prep = []
    for _ in range(PREPARE_ROUNDS):
        start = time.perf_counter()
        wl.prepare()
        prep.append(time.perf_counter() - start)
    start = time.perf_counter()
    wl.warm_up()
    warm = time.perf_counter() - start
    setup_s = session_ready - PROCESS_START + statistics.median(prep) + warm

    plain, traced = [], []  # Reps; traced holds (Rep, layer metrics)
    attempted = failed = 0
    problems = []
    deadline = time.perf_counter() + args.seconds
    while len(plain) < MIN_REPS or time.perf_counter() < deadline:
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order if args.trace else (False,):
            tracer = Tracer(wl.spark.sparkContext) if with_trace else None
            attempted += wl.units
            try:
                rep = wl.run(tracer)
            except Exception:
                traceback.print_exc()
                failed += wl.units
                problems.append("a repetition raised")
                break
            failed += rep.failed
            if with_trace:
                traced.append((rep, dict(tracer.metrics)))
            else:
                plain.append(rep)
        if problems:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reps = plain + [r for r, _ in traced]
    if failed:
        problems.append(f"{failed} of {attempted} cells, groups or batches lost rows")
    if problems or not reps:
        return {}, attempted, failed, problems
    checks_start = time.perf_counter()
    checks = wl.check(reps[-1])
    print(
        f"phases: session {session_ready - PROCESS_START:.2f} s, prepare {sum(prep):.2f} s, "
        f"warm-up {warm:.2f} s, repetitions {[round(r.wall_s, 2) for r in reps]} s, "
        f"checks {time.perf_counter() - checks_start:.2f} s",
        file=sys.stderr,
    )
    problems += checks.problems
    if any(r.output.shape != reps[0].output.shape or (r.output != reps[0].output).any() for r in reps):
        problems.append("outputs differ between repetitions")

    wall = statistics.median(r.wall_s for r in plain)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "points_per_s": wl.points / wall,
        "peak_rss_mb": peak_rss_mb,
        "rmse": reps[0].rmse,
        "repair_fraction": reps[0].repair_fraction,
        "mismatch_frac": checks.metrics["mismatch_frac"],
        "failed_frac": failed / attempted,
    }
    # Batch latency is pooled over the repetitions of the reported pass.
    pool = [r for r, _ in traced] if args.trace else plain
    batch_ms = [ms for r in pool for ms in r.batch_ms]
    values["batch_latency_p50_ms"] = percentile(batch_ms, 50)
    values["batch_latency_p85_ms"] = percentile(batch_ms, 85)
    values["batch_latency_samples"] = len(batch_ms)
    if args.trace:
        layers = [m for _, m in traced]
        for key in {k for m in layers for k in m}:
            values[key] = statistics.median(m.get(key, 0.0) for m in layers)
        values.update(checks.metrics)
        values["trace.overhead_frac"] = (
            statistics.median(r.wall_s for r, _ in traced) / wall - 1
        )
        if values.get("chunk.chunked_s"):
            values["chunk.seq_speedup"] = values["chunk.seq_s"] / values["chunk.chunked_s"]
    return values, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import pandas
        import pyarrow
        import pyspark

        import repro  # noqa: F401
    except ImportError as e:
        print(f"error: cannot import the library or its dependencies: {e}", file=sys.stderr)
        return 2

    metrics_out = claim_stdout()
    usable = len(os.sched_getaffinity(0))
    cores = min(MAX_CORES, usable)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "spark_master": f"local[{cores}]",
        "driver_memory": DRIVER_MEMORY,
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "jvm_options": JVM_OPTIONS,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "git_revision": git_revision(),
    }
    print("meta " + json.dumps(meta), file=metrics_out)
    try:
        spark = start_spark(cores, workdir)
        session_ready = time.perf_counter()
        try:
            import workloads

            wl = workloads.WORKLOADS[args.workload](
                spark, seed=args.seed, size=args.size, cores=cores, workdir=workdir
            )
            values, attempted, failed, problems = measure(wl, args, session_ready)
        finally:
            stop_spark(spark)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # Zero: the layer is not on this workload's path (README.md).
        v = float(values.get(m["name"], 0.0)) if values else math.nan
        metrics[m["name"]] = {"value": v if math.isfinite(v) else None, "unit": m["unit"]}
        print(f"metric {m['name']} {v!r} {m['unit']}", file=metrics_out)
    if not args.trace and values:
        # The other end-to-end figures have no relative bound (they vary
        # with the seed's data, or are 0 when the code is correct);
        # BENCHMARK.json lists them with the per-layer metrics.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in UNBOUNDED_END_TO_END:
            print(f"metric {name} {float(values[name])!r} {units[name]}", file=metrics_out)
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), file=metrics_out)
    metrics_out.close()
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
