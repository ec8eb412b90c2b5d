"""The four benchmark workloads.

Each workload makes its inputs from the seed (``prepare``), runs one
repetition of its pipeline through the library's public entry points
(``run``) and checks one repetition's output against sequential numpy
(``check``).  The library only ever sees the generated arrays.  README.md
says why each workload is here and which layers it stresses.
"""
from __future__ import annotations

import math
import shutil
import statistics
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import (
    SpeedConstraint,
    estimate_speed,
    mtcsc_a,
    mtcsc_c,
    mtcsc_g,
    mtcsc_l,
    series_satisfies,
    violations,
)
from repro.core.spark_clean import (
    attach_truth,
    clean_chunked,
    clean_per_series,
    to_spark_long,
)
from repro.core.streaming import StreamingCleaner, run_file_stream, write_stream_files
from repro.datasets import gps_walk, ild
from repro.errors import inject_errors
from repro.experiments import sweep_injected
from repro.metrics import evaluate, spark_metrics
from tracing import ProgressLog, Tracer, patched

#: GPS walking constraint used by the tests and the Table 4 job.
GPS_S = SpeedConstraint(1.6, 45.0)
#: ILD constraint window, as in the Figure 6/7 jobs.
ILD_WINDOW = 10.0

KERNELS = {"mtcsc_g": mtcsc_g, "mtcsc_l": mtcsc_l, "mtcsc_c": mtcsc_c, "mtcsc_a": mtcsc_a}

#: Progress-event durations reported as ``stream.<name>_ms_p50``.
STREAM_DURATIONS = {
    "trigger": "triggerExecution",
    "add_batch": "addBatch",
    "get_batch": "getBatch",
    "latest_offset": "latestOffset",
    "query_planning": "queryPlanning",
    "wal_commit": "walCommit",
}


def ild_constraint(t: np.ndarray, X: np.ndarray) -> SpeedConstraint:
    """The Figure 6/7 jobs' constraint: 99.5 % speed quantile x 1.5."""
    return SpeedConstraint(estimate_speed(t, X, 0.995, scale=1.5), ILD_WINDOW)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else nullcontext()


def _broken_units(out_units, out_t, in_units) -> int:
    """Units (tracks, chunks, batches) whose rows went missing or repeat.

    ``in_units`` names the unit of every input row; ``out_units``/``out_t``
    the unit and timestamp of every output row.
    """
    got = pd.Series(out_units).value_counts()
    want = pd.Series(in_units).value_counts()
    bad = set(want.index[want.ne(got.reindex(want.index, fill_value=0))])
    repeated = pd.DataFrame({"u": out_units, "t": out_t}).duplicated().to_numpy()
    bad |= set(np.asarray(out_units)[repeated])
    return len(bad)


def _repaired(pdf: pd.DataFrame) -> np.ndarray:
    return np.array(pdf["repaired"].tolist(), dtype=float)


@dataclass
class Rep:
    """One repetition of a workload's pipeline."""

    wall_s: float
    output: np.ndarray  # repaired values (sweep: cell metrics) in a fixed row order
    units: int  # cells, groups, chunks or batches attempted
    failed: int  # of those, the ones whose rows went missing or doubled
    rmse: float
    repair_fraction: float
    batch_ms: list[float] = field(default_factory=list)  # stream only
    frame: pd.DataFrame | None = None  # the sweep's result table


@dataclass
class Checks:
    """Outcome of the output checks of one run, made outside timed regions."""

    metrics: dict[str, float] = field(
        default_factory=lambda: {
            "mismatch_frac": 0.0,
            "speed.check_s": 0.0,
            "speed.violating_pairs": 0.0,
            **{f"kernel.seq_us_per_point.{k}": 0.0 for k in KERNELS},
        }
    )
    problems: list[str] = field(default_factory=list)
    _seq: dict[str, list[float]] = field(default_factory=dict)  # kernel -> [s, points]

    def reference(self, kernel: str, t: np.ndarray, X: np.ndarray, s: SpeedConstraint):
        """Sequential single-threaded run of ``kernel`` in the driver.

        Returns the repaired values and the seconds the run took.
        """
        start = time.perf_counter()
        Xr, _ = KERNELS[kernel](t, X, s)
        elapsed = time.perf_counter() - start
        total = self._seq.setdefault(kernel, [0.0, 0])
        total[0] += elapsed
        total[1] += len(t)
        self.metrics[f"kernel.seq_us_per_point.{kernel}"] = total[0] / total[1] * 1e6
        return Xr, elapsed

    def speed(self, label: str, t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> None:
        """``series_satisfies`` gate for MTCSC-G/L/C outputs."""
        start = time.perf_counter()
        ok = series_satisfies(t, X, s)
        self.metrics["speed.check_s"] += time.perf_counter() - start
        if not ok:
            n = len(violations(t, X, s))
            self.metrics["speed.violating_pairs"] += n
            self.problems.append(f"{label}: {n} in-window pairs violate the constraint")

    def mismatched_rows(self, label: str, got: np.ndarray, want: np.ndarray) -> int:
        """Rows of ``got`` that differ from the sequential reference."""
        if got.shape != want.shape:
            self.problems.append(f"{label}: shape {got.shape}, expected {want.shape}")
            return len(want)
        return int(np.any(got != want, axis=1).sum())


class Workload:
    """Base: size presets, the Spark session and the run's scratch directory."""

    name: str
    sizes: dict[str, dict]

    def __init__(self, spark, *, seed: int, size: str, cores: int, workdir: Path):
        self.spark = spark
        self.seed = seed
        self.cores = cores
        self.workdir = workdir
        self.__dict__.update(self.sizes[size])
        self.points = 0  # input points per repetition
        self.units = 0  # cells, groups, chunks or batches per repetition

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Two untimed passes: one over the tiny preset, then one full-size.

        The tiny preset has the full preset's groups with fewer points, so
        its pass starts the Python workers and compiles the same Spark plans
        at a fraction of a full pass's cost.  After it alone, the first
        full-size repetition of ``long`` still ran a median 7 % (up to 18 %)
        slower than the next; the full-size pass takes that cost out of the
        timed repetitions.  ``Stream`` warms up its own way.
        """
        small = type(self)(
            self.spark, seed=self.seed, size="tiny", cores=self.cores, workdir=self.workdir
        )
        small.prepare()
        small.run(None)
        self.run(None)

    def run(self, tracer: Tracer | None) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep) -> Checks:
        raise NotImplementedError


class Sweep(Workload):
    """The paper's protocol: ILD x MTCSC-G/L/C/A x error rates x seeds."""

    name = "sweep"
    methods = ("MTCSC-G", "MTCSC-L", "MTCSC-C", "MTCSC-A")
    rates = (0.05, 0.20)
    sizes = {
        "full": {"n": 2_000, "cell_seeds": (0, 1, 2, 3)},
        "tiny": {"n": 200, "cell_seeds": (0, 1, 2, 3)},
    }
    result_cols = ["rmse", "repair_distance", "repair_number", "repair_fraction"]

    def prepare(self) -> None:
        self.t, self.X = ild(self.n, seed=self.seed)
        self.s = ild_constraint(self.t, self.X)
        self.units = len(self.methods) * len(self.rates) * len(self.cell_seeds)
        self.points = self.units * self.n

    def run(self, tracer: Tracer | None) -> Rep:
        start = time.perf_counter()
        out = sweep_injected(
            self.spark,
            self.t,
            self.X,
            self.s,
            methods=self.methods,
            rates=self.rates,
            seeds=self.cell_seeds,
        )
        wall = time.perf_counter() - start
        done = (out["skipped"] == "") & np.isfinite(out["seconds"])
        done &= ~out.duplicated(["method", "rate", "seed"], keep=False)
        if tracer:
            # The method registry runs inside the workers; the kernel time
            # of each cell is the sweep's own ``seconds`` column.
            sec = out["seconds"].to_numpy(float)
            m = tracer.metrics
            m["kernel.busy_s"] = float(sec.sum())
            m["kernel.calls"] = len(sec)
            m["kernel.points"] = len(sec) * self.n
            m["kernel.skew"] = float(sec.max() / np.median(sec))
            m["sweep.cells"] = len(sec)
            m["sweep.cell_s_p50"] = float(np.median(sec))
            m["sweep.cell_s_max"] = float(sec.max())
            m["sweep.parallel_eff"] = float(sec.sum() / (wall * self.cores))
        return Rep(
            wall_s=wall,
            output=out[self.result_cols].to_numpy(float),
            units=self.units,
            failed=self.units - int(done.sum()),
            rmse=float(out["rmse"].mean()),
            repair_fraction=float(out["repair_fraction"].mean()),
            frame=out,
        )

    def check(self, rep: Rep) -> Checks:
        """Recompute the first cell of every method sequentially."""
        c = Checks()
        out = rep.frame
        rate, cell_seed = self.rates[0], self.cell_seeds[0]
        dirty, _ = inject_errors(self.X, rate, seed=cell_seed)
        mismatched = 0
        for method in self.methods:
            Xr, _ = c.reference(method.lower().replace("-", "_"), self.t, dirty, self.s)
            want = evaluate(Xr, dirty, self.X)
            row = out[(out["method"] == method) & (out["rate"] == rate) & (out["seed"] == cell_seed)]
            if len(row) != 1 or any(row.iloc[0][k] != v for k, v in want.items()):
                mismatched += 1
                c.problems.append(f"{method} cell ({rate}, {cell_seed}) differs from numpy")
            # MTCSC-A is exempt: its stale-anchor reset trades soundness
            # for bounded staleness (DESIGN.md Section 4).
            if method != "MTCSC-A":
                c.speed(method, self.t, Xr, self.s)
        c.metrics["mismatch_frac"] = mismatched / len(self.methods)
        return c


class Fleet(Workload):
    """Many short GPS tracks cleaned by MTCSC-L with ``clean_per_series``."""

    name = "fleet"
    sizes = {
        "full": {"n_tracks": 32, "length": 1_000, "speed_checked_tracks": 2},
        "tiny": {"n_tracks": 32, "length": 60, "speed_checked_tracks": 1},
    }

    def prepare(self) -> None:
        # Tracks are independent walks; track k of seed s uses seed 1000 s + k.
        self.tracks = [
            gps_walk(self.length, seed=self.seed * 1000 + k) for k in range(self.n_tracks)
        ]
        self.ids = [f"track{k:04d}" for k in range(len(self.tracks))]
        self.dirty = np.vstack([d for _, d, _, _ in self.tracks])
        self.truth = np.vstack([tr for _, _, tr, _ in self.tracks])
        self.units = len(self.tracks)
        self.points = len(self.dirty)

    def run(self, tracer: Tracer | None) -> Rep:
        fn = partial(mtcsc_l, s=GPS_S)
        if tracer:
            fn = tracer.wrap(fn)
        start = time.perf_counter()
        with _span(tracer, "pack.s"):
            frames = [
                to_spark_long(self.spark, t, d, series_id=sid)
                for sid, (t, d, _, _) in zip(self.ids, self.tracks)
            ]
            df = reduce(DataFrame.unionByName, frames)
        t0 = time.time()
        pdf = clean_per_series(df, fn).toPandas()
        t1 = time.time()
        wall = time.perf_counter() - start
        if tracer:
            tracer.metrics["pack.calls"] = len(frames)
            tracer.metrics["pack.rows"] = self.points
            tracer.apply_layer(t0, t1, len(pdf))
        pdf = pdf.sort_values(["series_id", "t"], kind="stable")
        failed = _broken_units(pdf["series_id"], pdf["t"], np.repeat(self.ids, self.length))
        Xr = _repaired(pdf)
        with _span(tracer, "metrics.numpy_s"):
            q = evaluate(Xr, self.dirty, self.truth) if not failed else {}
        return Rep(wall, Xr, self.units, failed, q.get("rmse", math.nan), q.get("repair_fraction", math.nan))

    def check(self, rep: Rep) -> Checks:
        """Every track against sequential MTCSC-L; the first tracks also
        against ``series_satisfies``."""
        c = Checks()
        want = np.vstack(
            [c.reference("mtcsc_l", t, d, GPS_S)[0] for t, d, _, _ in self.tracks]
        )
        bad = c.mismatched_rows("fleet", rep.output, want)
        c.metrics["mismatch_frac"] = bad / self.points
        if bad:
            c.problems.append(f"fleet: {bad} rows differ from sequential MTCSC-L")
        for k in range(self.speed_checked_tracks):
            rows = slice(k * self.length, (k + 1) * self.length)
            c.speed(self.ids[k], self.tracks[k][0], rep.output[rows], GPS_S)
        return c


class Long(Workload):
    """One long ILD series cleaned by MTCSC-C with ``clean_chunked``."""

    name = "long"
    rate = 0.05
    sizes = {
        "full": {"n": 8_000, "chunks": 8},
        "tiny": {"n": 1_200, "chunks": 8},
    }

    def prepare(self) -> None:
        self.t, self.truth = ild(self.n, seed=self.seed)
        self.s = ild_constraint(self.t, self.truth)
        self.dirty, mask = inject_errors(self.truth, self.rate, seed=self.seed)
        self.error_rows = mask.any(axis=1)
        self.warmup = 3 * self.s.window
        self.chunk_rows = math.ceil(self.n / self.chunks)
        self.units = self.chunks
        self.points = self.n

    def run(self, tracer: Tracer | None) -> Rep:
        fn = partial(mtcsc_c, s=self.s)
        if tracer:
            fn = tracer.wrap(fn)
        start = time.perf_counter()
        with _span(tracer, "pack.s"):
            df = to_spark_long(self.spark, self.t, self.dirty, truth=self.truth)
        cleaned = clean_chunked(
            df, fn, chunk_rows=self.chunk_rows, warmup=self.warmup
        ).cache()
        t0 = time.time()
        pdf = cleaned.toPandas()
        t1 = time.time()
        with _span(tracer, "metrics.spark_s"):
            q = spark_metrics(attach_truth(cleaned, df)).first()
        wall = time.perf_counter() - start
        cleaned.unpersist()
        if tracer:
            tracer.metrics["pack.calls"] = 1
            tracer.metrics["pack.rows"] = self.n
            tracer.metrics["chunk.chunked_s"] = t1 - t0
            tracer.apply_layer(t0, t1, len(pdf))
        pdf = pdf.sort_values("t", kind="stable")
        t_out = pdf["t"].to_numpy()
        failed = _broken_units(
            t_out.astype(np.int64) // self.chunk_rows, t_out, np.arange(self.n) // self.chunk_rows
        )
        Xr = _repaired(pdf)
        if tracer:
            with tracer.span("metrics.numpy_s"):
                evaluate(Xr, self.dirty, self.truth)
        return Rep(wall, Xr, self.units, failed, q.rmse, q.repair_number / self.n)

    def check(self, rep: Rep) -> Checks:
        """The whole chunked series against sequential MTCSC-C.

        ``clean_chunked`` is approximate in two known ways: a chunk whose
        warm-up span starts on an injected error can diverge from the
        sequential repair and break the constraint at its seams, and the
        last window of a chunk is repaired without the rows after it.  A
        row may differ from the sequential reference only there, and then
        it must equal MTCSC-C run on its chunk and warm-up span alone; a
        violating pair must touch a chunk of the first kind.  Anything else
        fails.  Differing rows and violating pairs are reported
        (``chunk.mismatch_rows``, ``speed.violating_pairs``).
        """
        c = Checks()
        want, c.metrics["chunk.seq_s"] = c.reference("mtcsc_c", self.t, self.dirty, self.s)
        got = rep.output
        bad = c.mismatched_rows("long", got, want)
        c.metrics["chunk.mismatch_rows"] = bad
        c.metrics["mismatch_frac"] = bad / self.n
        if got.shape != want.shape:
            return c
        rmse = evaluate(got, self.dirty, self.truth)["rmse"]
        if not math.isclose(rmse, rep.rmse, rel_tol=1e-9):
            c.problems.append(f"long: Spark RMSE {rep.rmse} != numpy RMSE {rmse}")

        chunk = np.arange(self.n) // self.chunk_rows
        first = np.arange(0, self.n, self.chunk_rows)  # first row of each chunk
        last = np.minimum(first + self.chunk_rows, self.n) - 1
        warm = np.searchsorted(self.t, self.t[first] - self.warmup)  # first warm-up row
        stale = (warm < first) & self.error_rows[warm]
        in_stale = stale[chunk]
        in_tail = self.t > self.t[last[chunk]] - self.s.window
        differs = np.any(got != want, axis=1)
        unexplained = int((differs & ~(in_stale | in_tail)).sum())
        if unexplained:
            c.problems.append(f"long: {unexplained} rows differ from sequential MTCSC-C "
                              "outside a stale warm-up chunk or a chunk's last window")
        for k in np.unique(chunk[differs]):
            span = slice(warm[k], last[k] + 1)  # the chunk with its warm-up
            local, _ = mtcsc_c(self.t[span], self.dirty[span], self.s)
            own = slice(first[k], last[k] + 1)
            d = differs[own]
            if (got[own][d] != local[first[k] - warm[k]:][d]).any():
                c.problems.append(f"long: chunk {k} differs from MTCSC-C on its own rows")

        start = time.perf_counter()
        pairs = np.array(violations(self.t, got, self.s), dtype=int).reshape(-1, 2)
        c.metrics["speed.check_s"] += time.perf_counter() - start
        c.metrics["speed.violating_pairs"] = len(pairs)
        stray = int((~in_stale[pairs].any(axis=1)).sum())
        if stray:
            c.problems.append(f"long: {stray} violating pairs touch no stale warm-up chunk")
        return c


class Stream(Workload):
    """A GPS walk drained through ``run_file_stream`` as a file backlog."""

    name = "stream"
    sizes = {
        "full": {"n": 1_750, "batch_rows": 50, "warmup_files": 4},
        "tiny": {"n": 600, "batch_rows": 50, "warmup_files": 3},
    }

    def __init__(self, spark, **kw):
        super().__init__(spark, **kw)
        self.progress = ProgressLog()
        spark.streams.addListener(self.progress)
        self.write_s: list[float] = []

    def prepare(self) -> None:
        self.t, self.dirty, self.truth, _ = gps_walk(self.n, seed=self.seed)
        self.backlog = self.workdir / "stream"
        self.warmup_dir = self.workdir / "stream-warmup"
        for d in (self.backlog, self.warmup_dir):
            shutil.rmtree(d, ignore_errors=True)
        start = time.perf_counter()
        self.units = write_stream_files(
            self.t, self.dirty, self.backlog, batch_rows=self.batch_rows
        )
        self.write_s.append(time.perf_counter() - start)
        head = self.warmup_files * self.batch_rows
        write_stream_files(
            self.t[:head], self.dirty[:head], self.warmup_dir, batch_rows=self.batch_rows
        )
        self.points = self.n

    def _drain(self, directory: Path) -> pd.DataFrame:
        return run_file_stream(
            self.spark, directory, GPS_S, variant="cluster", max_files_per_trigger=1
        )

    def warm_up(self) -> None:
        self._drain(self.warmup_dir)
        self.progress.take(self.warmup_files)

    def run(self, tracer: Tracer | None) -> Rep:
        batch_s: list[float] = []
        rows_fed: list[int] = []
        held: list[int] = []

        def timed_batch(process_batch):
            def wrapper(state, pdf):
                start = time.perf_counter()
                process_batch(state, pdf)
                batch_s.append(time.perf_counter() - start)
                rows_fed.append(len(pdf))

            return wrapper

        def counted_finish(finish):
            def wrapper(state):
                held.append(len(getattr(state, "results", ())))
                return finish(state)

            return wrapper

        with ExitStack() as stack:
            if tracer:
                stack.enter_context(patched(StreamingCleaner, "process_batch", timed_batch))
                stack.enter_context(patched(StreamingCleaner, "finish", counted_finish))
            start = time.perf_counter()
            out = self._drain(self.backlog)
            wall = time.perf_counter() - start
        events = self.progress.take(self.units)
        batch_ms = [float(e["triggerExecution"]) for e, _ in events]
        if tracer:
            m = tracer.metrics
            m["kernel.busy_s"] = sum(batch_s)
            m["kernel.calls"] = len(batch_s)
            m["kernel.points"] = sum(rows_fed)
            m["kernel.skew"] = max(batch_s) / statistics.median(batch_s)
            m["stream.process_batch_ms_p50"] = statistics.median(batch_s) * 1e3
            m["stream.process_batch_ms_max"] = max(batch_s) * 1e3
            m["stream.write_s"] = statistics.median(self.write_s)
            m["stream.batches"] = len(events)
            m["stream.rows_per_batch"] = statistics.mean(rows for _, rows in events)
            for name, key in STREAM_DURATIONS.items():
                m[f"stream.{name}_ms_p50"] = statistics.median(
                    float(e.get(key, 0.0)) for e, _ in events
                )
            m["stream.state_rows"] = held[0]
        t_out = out["t"].to_numpy()
        failed = _broken_units(
            t_out.astype(np.int64) // self.batch_rows, t_out, np.arange(self.n) // self.batch_rows
        )
        Xr = _repaired(out)
        with _span(tracer, "metrics.numpy_s"):
            q = evaluate(Xr, self.dirty, self.truth) if not failed else {}
        return Rep(
            wall,
            Xr,
            self.units,
            failed,
            q.get("rmse", math.nan),
            q.get("repair_fraction", math.nan),
            batch_ms=batch_ms,
        )

    def check(self, rep: Rep) -> Checks:
        """The stream's repairs against batch MTCSC-C on the same series."""
        c = Checks()
        want, _ = c.reference("mtcsc_c", self.t, self.dirty, GPS_S)
        bad = c.mismatched_rows("stream", rep.output, want)
        c.metrics["mismatch_frac"] = bad / self.n
        if bad:
            c.problems.append(f"stream: {bad} rows differ from batch MTCSC-C")
        c.speed("stream", self.t, rep.output, GPS_S)
        return c


WORKLOADS = {w.name: w for w in (Sweep, Fleet, Long, Stream)}
