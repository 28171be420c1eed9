"""Benchmark of the ``repro-track`` CLI and job server, driven from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table2|watch-long|serve-mix \\
        --seed N --seconds S --trace 0|1

Every program under test is started as its own process with the
checkout's ``src`` on ``PYTHONPATH`` and every ``REPRO_*`` variable
removed, so no run reads a user cache, ledger or server URL.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see ``README.md``).  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record, with the host fingerprint, goes to
``.perfbench/results/``; ``compare.py`` compares two such sets.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HELPER = HERE / "helper.py"
OUT_DIR = ROOT / ".perfbench"

#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: One process may run this long before it counts as failed.
PROCESS_TIMEOUT_S = 120.0

#: The paper's Table 2, row for row: images, tracked regions, coverage %.
TABLE2_ROWS = (
    ("Gadget", "2", "8", "88"),
    ("QuantumE", "2", "6", "66"),
    ("WRF", "2", "12", "100"),
    ("Gromacs", "3", "5", "100"),
    ("CGPOP", "4", "2", "66"),
    ("NAS BT", "4", "6", "100"),
    ("HydroC", "12", "2", "100"),
    ("MR-Genesis", "12", "2", "100"),
    ("NAS FT", "15", "2", "100"),
    ("Gromacs (20)", "20", "4", "80"),
)
TABLE2_AVERAGE = "Average coverage: 90.0%"

#: watch-long: the trace simulated in set-up and the window count.
WATCH_SCENARIO = ("nas-ft", "ranks=32", "iterations=180")
WATCH_WINDOWS = 120

#: serve-mix: open-loop rate, about half the ~7.7 jobs/s that two
#: closed-loop clients sustain on the 2-CPU host the rate was set on.
SERVE_RATE = 4.0
SERVE_WORKERS = 2
SERVE_TENANTS = ("t0", "t1", "t2")
#: A run is invalid when the generator's p90 submit lateness exceeds
#: this share of the inter-arrival gap: it no longer held the rate.
SERVE_MAX_LATENESS = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rss_peak_mib", "MiB"),
    ("ok_frac", "ratio"),
)

#: Per-layer metrics: name, unit, the end-to-end metric it should move.
PER_LAYER = (
    ("cli.import_s", "s", "setup_s on all three; wall_s on table2"),
    ("apps.run.calls", "count", "wall_s on table2"),
    ("apps.run.self_s", "s", "wall_s on table2 (columnar trace builder)"),
    ("apps.bursts", "count", "wall_s on table2"),
    ("trace.load.self_s", "s", "wall_s on watch-long"),
    ("trace.load.bursts", "count", "wall_s on watch-long"),
    ("robust.validate.calls", "count", "wall_s on table2 and watch-long"),
    ("robust.validate.self_s", "s", "wall_s on table2 and watch-long"),
    ("clustering.frames.self_s", "s", "wall_s on table2"),
    ("clustering.dbscan.calls", "count", "wall_s on table2; latency_p50_ms on watch-long"),
    ("clustering.dbscan.self_s", "s", "wall_s on table2 (cell-graph fix)"),
    ("clustering.dbscan.points", "count", "wall_s on table2"),
    ("clustering.dbscan.points_per_call", "count", "latency_p50_ms on watch-long (per-call overhead)"),
    ("alignment.calls", "count", "wall_s on table2"),
    ("alignment.self_s", "s", "wall_s on table2"),
    ("tracking.normalize.self_s", "s", "wall_s on table2"),
    ("tracking.combine.calls", "count", "wall_s on table2"),
    ("tracking.combine.self_s", "s", "wall_s on table2"),
    ("tracking.displacement.self_s", "s", "wall_s on table2"),
    ("tracking.callstack.self_s", "s", "wall_s on table2"),
    ("tracking.simultaneity.self_s", "s", "wall_s on table2"),
    ("tracking.sequence.self_s", "s", "wall_s on table2"),
    ("tracking.evalcache.hit_ratio", "ratio", "wall_s on table2"),
    ("tracking.chain.calls", "count", "latency_p90_ms on watch-long"),
    ("tracking.chain.self_s", "s", "latency_p90_ms on watch-long"),
    ("tracking.chain.first_tenth_ms", "ms", "latency_p50_ms on watch-long"),
    ("tracking.chain.last_tenth_ms", "ms", "latency_p90_ms on watch-long"),
    ("stream.push.calls", "count", "wall_s on watch-long"),
    ("stream.push.self_s", "s", "latency_p90_ms and wall_s on watch-long"),
    ("stream.checkpoint.calls", "count", "wall_s on watch-long"),
    ("stream.checkpoint.self_s", "s", "latency_p90_ms and wall_s on watch-long"),
    ("stream.checkpoint.total_s", "s", "latency_p90_ms and wall_s on watch-long (with its cache put)"),
    ("stream.checkpoint.first_tenth_ms", "ms", "latency_p50_ms on watch-long"),
    ("stream.checkpoint.last_tenth_ms", "ms", "latency_p90_ms on watch-long"),
    ("stream.checkpoint.records", "count", "latency_p90_ms on watch-long"),
    ("stream.checkpoint.bytes", "B", "latency_p90_ms on watch-long"),
    ("parallel.cache.get.calls", "count", "latency_p50_ms on watch-long"),
    ("parallel.cache.hit_ratio", "ratio", "0 by construction: every run starts cold"),
    ("parallel.cache.put.calls", "count", "latency_p50_ms on watch-long"),
    ("parallel.cache.put.self_s", "s", "latency_p50_ms on watch-long"),
    ("parallel.cache.bytes_written", "B", "latency_p50_ms on watch-long"),
    ("serve.http.submit_ms.p50", "ms", "latency_p50_ms on serve-mix (journal append)"),
    ("serve.http.submit_ms.p90", "ms", "latency_p90_ms on serve-mix"),
    ("serve.http.status_ms.p50", "ms", "latency_p50_ms on serve-mix"),
    ("serve.http.result_ms.p50", "ms", "latency_p50_ms on serve-mix"),
    ("serve.queue_wait_ms.p50", "ms", "latency_p50_ms on serve-mix"),
    ("serve.queue_wait_ms.p90", "ms", "latency_p90_ms on serve-mix"),
    ("serve.run_ms.p50", "ms", "latency_p50_ms on serve-mix (child start, imports)"),
    ("serve.run_ms.p90", "ms", "latency_p90_ms on serve-mix"),
    ("serve.done_seen_ms.p50", "ms", "latency_p50_ms on serve-mix (poll interval)"),
    ("serve.polls_per_job", "count", "latency_p50_ms on serve-mix"),
    ("serve.submitted", "count", "ok_frac on serve-mix"),
    ("serve.done", "count", "ok_frac on serve-mix"),
    ("serve.failed", "count", "ok_frac on serve-mix"),
    ("serve.refused", "count", "ok_frac on serve-mix"),
    ("serve.gen_late_ms.p90", "ms", "validity of serve-mix (generator lateness)"),
    ("serve.gen_late_ms.max", "ms", "validity of serve-mix (generator lateness)"),
    ("trace.untraced_wall_s", "s", "wall_s (the untraced runs of this traced run)"),
    ("trace.traced_wall_s", "s", "none: the traced process's own wall time"),
    ("trace.overhead_frac", "ratio", "none: (traced - untraced) / untraced wall_s"),
)


class InvalidRun(Exception):
    """The measurement itself is not valid; no result is printed."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
@dataclass
class Completed:
    """One finished process: exit code, wall time, peak RSS, timed lines."""

    code: int
    wall_s: float
    rss_mib: float
    out: list[tuple[float, str]] = field(default_factory=list)
    err: list[tuple[float, str]] = field(default_factory=list)
    #: Why the run counts as failed, once checked; ``None`` when it passed.
    problem: str | None = None

    def stdout(self) -> str:
        return "\n".join(line for _, line in self.out)


class Bench:
    """Environment, scratch space and process runner of one run."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.work = OUT_DIR / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        # Run from cached bytecode, as an installed package does; the
        # fingerprint step compiles it once per checkout.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["TMPDIR"] = str(self.work / "tmp")
        self.env = env
        self.python = sys.executable
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.fingerprint: dict = {}

    def cli(self, *argv: str) -> list[str]:
        """The argv of ``repro-track ARGV`` with unbuffered output."""
        return [self.python, "-u", "-m", "repro", *argv]

    def helper(self, *argv: str) -> list[str]:
        return [self.python, "-u", str(HELPER), *argv]

    def run(self, argv: list[str], timeout: float = PROCESS_TIMEOUT_S) -> Completed:
        """Run *argv* to exit, stamping each output line as it arrives.

        Peak RSS comes from ``os.wait4`` on this very process, so it is
        the process's own high-water mark, not the harness's.
        """
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.env, cwd=self.work,
        )
        lines: dict[str, list[tuple[float, str]]] = {"out": [], "err": []}
        pending = {"out": b"", "err": b""}
        killed = False
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stdout, selectors.EVENT_READ, "out")
                selector.register(proc.stderr, selectors.EVENT_READ, "err")
                while selector.get_map():
                    left = start + timeout - time.perf_counter()
                    if left <= 0:
                        proc.kill()
                        killed = True
                        break
                    for key, _ in selector.select(left):
                        chunk = os.read(key.fd, 1 << 16)
                        stamp = time.perf_counter() - start
                        if not chunk:
                            selector.unregister(key.fileobj)
                            continue
                        *complete, pending[key.data] = (pending[key.data] + chunk).split(b"\n")
                        lines[key.data].extend(
                            (stamp, line.decode("utf-8", "replace")) for line in complete
                        )
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        for name, rest in pending.items():
            if rest:
                lines[name].append((wall, rest.decode("utf-8", "replace")))
        code = -9 if killed else proc.returncode
        return Completed(code, wall, usage.ru_maxrss / 1024.0, lines["out"], lines["err"])

    def must(self, argv: list[str], what: str) -> Completed:
        """Run a set-up step; a failure there aborts the run."""
        done = self.run(argv)
        if done.code != 0:
            tail = "\n".join(line for _, line in done.err[-20:])
            raise SystemExit(f"set-up step failed: {what} (exit {done.code})\n{tail}")
        return done

    def record(self, ok: bool, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += not ok
        self.wrong += wrong

    def take_fingerprint(self) -> None:
        """Host fingerprint; as the first import it also warms ``__pycache__``."""
        done = self.must(self.helper("fingerprint"), "host fingerprint")
        self.fingerprint = json.loads(done.out[-1][1])

    def cold_start_s(self) -> float:
        """Median of cold ``repro-track --version`` processes."""
        times = []
        for _ in range(SETUP_REPEATS):
            done = self.must(self.cli("--version"), "repro-track --version")
            if not done.stdout().startswith("repro-track "):
                raise SystemExit(f"unexpected --version output: {done.stdout()!r}")
            times.append(done.wall_s)
        return median(times)

    def deadline(self) -> float:
        return time.perf_counter() + self.args.seconds


# ----------------------------------------------------------------------
# Closed-loop CLI workloads: table2 and watch-long
# ----------------------------------------------------------------------
@dataclass
class CliWorkload:
    """One closed-loop CLI workload: its argv, check and latency samples."""

    name: str
    argv: list[str]
    check: Callable[[Completed], str | None]  # the failure, if any
    latencies: Callable[[Completed], list[float]]  # seconds
    fresh_cache: bool = False  # append ``--cache-dir`` with a fresh empty dir


def check_table2(done: Completed) -> str | None:
    rows = []
    for _, line in done.out:
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 4 and cells[0] not in ("Application",):
            rows.append(tuple(cells))
    if tuple(rows) != TABLE2_ROWS:
        return f"Table 2 rows differ from the paper: {rows}"
    if TABLE2_AVERAGE not in done.stdout():
        return "Table 2 average coverage is not 90.0%"
    return None


def table2_latencies(done: Completed) -> list[float]:
    """Per case study: from its ``running X...`` line to the next step."""
    starts = [t for t, line in done.err if re.match(r"running .+\.\.\.$", line)]
    if not starts or not done.out:
        return []
    ends = starts[1:] + [done.out[0][0]]
    return [end - begin for begin, end in zip(starts, ends)]


WINDOW_LINE = re.compile(r"window (\d+): ")
WATCH_SUMMARY = re.compile(
    rf"frames: {WATCH_WINDOWS}\s+tracked regions: \d+\s+coverage: \d+%"
)


def check_watch(done: Completed, reference: str) -> str | None:
    """120 ordered window lines, a summary, and the uncached run's bytes.

    Two tracked regions at 100 % coverage is the usual outcome but not
    an invariant: at some seeds (22 and 23, for one) a window late in
    the stream drops coverage to 66 %.  What must hold at every seed is
    that the checkpointed, label-cached run prints exactly what the
    same watch prints without ``--cache-dir``.
    """
    indices = [int(m.group(1)) for _, line in done.out if (m := WINDOW_LINE.match(line))]
    if indices != list(range(WATCH_WINDOWS)):
        return f"expected window lines 0..{WATCH_WINDOWS - 1}, got {len(indices)}"
    if not any(WATCH_SUMMARY.match(line) for _, line in done.out):
        return f"watch printed no {WATCH_WINDOWS}-frame summary"
    if done.stdout() != reference:
        return "output differs from the same watch run without --cache-dir"
    return None


def watch_latencies(done: Completed) -> list[float]:
    """Per window: gap between consecutive ``window N:`` lines."""
    stamps = [t for t, line in done.out if WINDOW_LINE.match(line)]
    return [b - a for a, b in zip(stamps, stamps[1:])]


def run_cli_once(bench: Bench, workload: CliWorkload, argv: list[str]) -> Completed:
    fresh = None
    if workload.fresh_cache:
        fresh = bench.work / f"cache-{bench.attempted}"
        fresh.mkdir()
        argv = [*argv, "--cache-dir", str(fresh)]
    done = bench.run(argv)
    problem = None if done.code == 0 else f"exit code {done.code}"
    problem = problem or workload.check(done)
    if problem:
        print(f"{workload.name}: FAILED: {problem}", file=sys.stderr)
    bench.record(problem is None, wrong=done.code == 0 and problem is not None)
    if fresh is not None:
        shutil.rmtree(fresh, ignore_errors=True)
    done.problem = problem
    return done


def cli_end_to_end(bench: Bench, workload: CliWorkload) -> dict[str, float]:
    setup_s = bench.cold_start_s()
    runs: list[Completed] = []
    deadline = bench.deadline()
    while not runs or time.perf_counter() < deadline:
        runs.append(run_cli_once(bench, workload, bench.cli(*workload.argv)))
    good = [r for r in runs if r.problem is None]
    # Percentiles per process (120 windows, or 10 case studies), then
    # the median over the run's processes.
    samples = [workload.latencies(r) for r in good]
    return {
        "setup_s": setup_s,
        "wall_s": median(r.wall_s for r in good),
        "latency_p50_ms": median(median(s) for s in samples) * 1e3,
        "latency_p90_ms": median(percentile(s, 0.9) for s in samples) * 1e3,
        "rss_peak_mib": median(r.rss_mib for r in good),
        "ok_frac": len(good) / len(runs),
        "_samples": sum(len(s) for s in samples),
        "_runs": len(runs),
    }


def cli_traced(bench: Bench, workload: CliWorkload) -> dict[str, float]:
    """Alternate untraced and traced processes until time is up."""
    untraced: list[float] = []
    traced: list[tuple[float, dict]] = []
    deadline = bench.deadline()
    while not (untraced and traced) or time.perf_counter() < deadline:
        if bench.attempted >= 6 and not (untraced and traced):
            raise SystemExit("traced run: no successful runs")
        done = run_cli_once(bench, workload, bench.cli(*workload.argv))
        if done.problem is None:
            untraced.append(done.wall_s)
        spans_path = bench.work / f"spans-{bench.attempted}.json"
        argv = bench.helper("traced", workload.name, str(spans_path), "--", *workload.argv)
        done = run_cli_once(bench, workload, argv)
        if done.problem is not None or not spans_path.is_file():
            continue
        metrics = span_metrics(json.loads(spans_path.read_text(encoding="utf-8")))
        if metrics["parallel.cache.hit_ratio"] != 0:
            # Every run starts cold; a hit means the isolation broke.
            print(f"{workload.name}: FAILED: a cold run hit the cache", file=sys.stderr)
            bench.failed += 1
            bench.wrong += 1
            continue
        traced.append((done.wall_s, metrics))
        shutil.copyfile(
            spans_path,
            OUT_DIR / "results" / f"{workload.name}-seed{bench.args.seed}-spans.json",
        )
    per_run = [metrics for _, metrics in traced]
    result = {name: median(m[name] for m in per_run) for name in per_run[0]}
    untraced_s = median(untraced)
    traced_s = median(wall for wall, _ in traced)
    result.update({
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    })
    return result


def span_metrics(document: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    Self time is a span's duration minus the durations of its direct
    child spans.
    """
    spans = document["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, list[float]] = {}
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        calls.setdefault(name, []).append(end - start - child[index])

    def n(name: str) -> int:
        return len(calls.get(name, ()))

    def self_s(*names: str) -> float:
        return sum(sum(calls.get(name, ())) for name in names)

    def tenth_ms(name: str, last: bool) -> float:
        values = calls.get(name, [])
        if not values:
            return 0.0
        k = max(1, len(values) // 10)
        return median(values[-k:] if last else values[:k]) * 1e3

    def attr_sum(name: str, key: str, where=lambda span: True) -> float:
        return sum(
            span[4][key] for span in spans
            if span[0] == name and span[4] and key in span[4] and where(span)
        )

    # An evaluator-cache call "reaches repro.alignment" when an
    # alignment span runs beneath it.
    reached = set()
    for name, start, end, parent, attrs in spans:
        if name == "alignment":
            while parent >= 0:
                reached.add(parent)
                parent = spans[parent][3]
    cached = [
        i for i, span in enumerate(spans)
        if span[0] in ("tracking.simultaneity", "tracking.consensus")
    ]
    gets = [span[4]["hit"] for span in spans if span[0] == "parallel.cache.get"
            and span[4] and "hit" in span[4]]
    points = attr_sum("clustering.dbscan", "points")
    return {
        "cli.import_s": document["import_s"],
        "apps.run.calls": n("apps.run"),
        "apps.run.self_s": self_s("apps.run"),
        "apps.bursts": attr_sum("apps.run", "bursts"),
        "trace.load.self_s": self_s("trace.load"),
        "trace.load.bursts": attr_sum("trace.load", "bursts"),
        "robust.validate.calls": n("robust.validate"),
        "robust.validate.self_s": self_s("robust.validate"),
        "clustering.frames.self_s": self_s("clustering.frames"),
        "clustering.dbscan.calls": n("clustering.dbscan"),
        "clustering.dbscan.self_s": self_s("clustering.dbscan"),
        "clustering.dbscan.points": points,
        "clustering.dbscan.points_per_call": points / max(1, n("clustering.dbscan")),
        "alignment.calls": n("alignment"),
        "alignment.self_s": self_s("alignment"),
        "tracking.normalize.self_s": self_s("tracking.normalize"),
        "tracking.combine.calls": n("tracking.combine"),
        "tracking.combine.self_s": self_s("tracking.combine"),
        "tracking.displacement.self_s": self_s("tracking.displacement"),
        "tracking.callstack.self_s": self_s("tracking.callstack"),
        "tracking.simultaneity.self_s": self_s("tracking.simultaneity"),
        "tracking.sequence.self_s": self_s("tracking.sequence", "tracking.consensus"),
        "tracking.evalcache.hit_ratio": (
            sum(i not in reached for i in cached) / len(cached) if cached else 0.0
        ),
        "tracking.chain.calls": n("tracking.chain"),
        "tracking.chain.self_s": self_s("tracking.chain"),
        "tracking.chain.first_tenth_ms": tenth_ms("tracking.chain", last=False),
        "tracking.chain.last_tenth_ms": tenth_ms("tracking.chain", last=True),
        "stream.push.calls": n("stream.push"),
        "stream.push.self_s": self_s("stream.push"),
        "stream.checkpoint.calls": n("stream.checkpoint"),
        "stream.checkpoint.self_s": self_s("stream.checkpoint"),
        "stream.checkpoint.total_s": sum(
            span[2] - span[1] for span in spans if span[0] == "stream.checkpoint"
        ),
        "stream.checkpoint.first_tenth_ms": tenth_ms("stream.checkpoint", last=False),
        "stream.checkpoint.last_tenth_ms": tenth_ms("stream.checkpoint", last=True),
        "stream.checkpoint.records": attr_sum("stream.checkpoint", "records"),
        "stream.checkpoint.bytes": attr_sum(
            "parallel.cache.put", "bytes",
            lambda span: span[3] >= 0 and spans[span[3]][0] == "stream.checkpoint",
        ),
        "parallel.cache.get.calls": len(gets),
        "parallel.cache.hit_ratio": sum(gets) / len(gets) if gets else 0.0,
        "parallel.cache.put.calls": sum(
            1 for span in spans
            if span[0] == "parallel.cache.put" and span[4] and "bytes" in span[4]
        ),
        "parallel.cache.put.self_s": self_s("parallel.cache.put"),
        "parallel.cache.bytes_written": attr_sum("parallel.cache.put", "bytes"),
    }


def cli_workload(bench: Bench) -> CliWorkload:
    if bench.args.workload == "table2":
        # The rows are calibrated at seed 0, so table2 ignores --seed.
        return CliWorkload("table2", ["table2"], check_table2, table2_latencies)
    trace = bench.work / "watch.json"
    app, *scenario = WATCH_SCENARIO
    bench.must(
        bench.cli("simulate", app, *scenario, "--seed", str(bench.args.seed), "-o", str(trace)),
        "simulate the watch-long trace",
    )
    argv = ["watch", str(trace), "--windows", str(WATCH_WINDOWS)]
    reference = bench.must(bench.cli(*argv), "watch without a cache").stdout()
    summary = [line for line in reference.splitlines() if WATCH_SUMMARY.match(line)]
    print(f"watch-long reference: {' '.join(summary[0].split()) if summary else '?'}",
          file=sys.stderr)
    return CliWorkload(
        "watch-long", argv, partial(check_watch, reference=reference), watch_latencies,
        fresh_cache=True,
    )


# ----------------------------------------------------------------------
# Open-loop server workload: serve-mix
# ----------------------------------------------------------------------
def serve_jobs(seed: int, count: int) -> list[list]:
    """``[index, tenant, spec, due_s]`` per job, drawn from *seed*.

    Jobs are due at a fixed rate.  The seed picks each job's tenant and
    simulation seeds; every job simulates with seeds of its own, so no
    job hits a cache.  Two short ``track`` jobs come for each ``watch``
    job, so the median job is a short one and the p90 job a long one;
    at one to one the median would sit on the edge between the two
    kinds and jump between them from run to run.
    """
    rng = random.Random(seed)
    jobs = []
    for index in range(count):
        base = 2 * (seed * 100_000 + index)
        if index % 3 != 2:
            spec = {
                "kind": "track",
                "app": "hydroc",
                "scenarios": [
                    {"block_size": 64, "ranks": 8, "iterations": 3},
                    {"block_size": 64, "ranks": 8, "iterations": 4},
                ],
                "seeds": [base, base + 1],
            }
        else:
            spec = {
                "kind": "watch",
                "app": "nas-ft",
                "scenarios": [{"ranks": 16, "iterations": 30}],
                "seeds": [base],
                "windows": 15,
            }
        jobs.append([index, rng.choice(SERVE_TENANTS), spec, index / SERVE_RATE])
    return jobs


class Server:
    """A ``repro-track serve`` process on a fresh root and a free port."""

    def __init__(self, bench: Bench, name: str) -> None:
        root = bench.work / name
        root.mkdir()
        self.log_path = root / "server.log"
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                bench.cli("serve", "--root", str(root / "state"), "--port", "0",
                          "--workers", str(SERVE_WORKERS)),
                stdout=subprocess.DEVNULL, stderr=log, env=bench.env, cwd=bench.work,
            )
        self.rss_mib = 0.0
        self.url = self._wait_url(start + 60)
        while not self._healthy():
            if time.perf_counter() > start + 60 or self.proc.poll() is not None:
                self.stop()
                raise SystemExit("job server did not become healthy")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - start

    def _wait_url(self, deadline: float) -> str:
        while time.perf_counter() < deadline and self.proc.poll() is None:
            match = re.search(r"on (http://\S+)", self.log_path.read_text("utf-8", "replace"))
            if match:
                return match.group(1)
            time.sleep(0.005)
        self.stop()
        raise SystemExit("job server did not report its URL")

    def _healthy(self) -> bool:
        try:
            with urllib.request.urlopen(self.url + "/healthz", timeout=5) as reply:
                return reply.status == 200
        except (urllib.error.URLError, OSError):
            return False

    def stop(self) -> int:
        """SIGTERM, reap with ``os.wait4`` (peak RSS), SIGKILL after 30 s."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        # ru_maxrss of a reaped process covers the descendants it reaped
        # too: the server's peak includes its per-job worker processes.
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode


def serve_run(bench: Bench) -> dict:
    """Set up, run the open loop once, and return records plus server facts."""
    count = max(1, int(bench.args.seconds * SERVE_RATE))
    jobs = serve_jobs(bench.args.seed, count)
    expected = bench.work / "expected"
    expected.mkdir()
    # The direct runs each job's bytes must equal, split over two processes.
    parts = []
    for part in range(2):
        path = bench.work / f"jobs-{part}.json"
        path.write_text(json.dumps(jobs[part::2]), encoding="utf-8")
        parts.append(subprocess.Popen(
            bench.helper("expected", str(path), str(expected)),
            stdout=subprocess.DEVNULL, env=bench.env, cwd=bench.work,
        ))
    try:
        codes = [proc.wait() for proc in parts]
    finally:
        for proc in parts:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise SystemExit("set-up step failed: direct runs of the serve-mix jobs")
    jobs_path = bench.work / "jobs.json"
    jobs_path.write_text(json.dumps(jobs), encoding="utf-8")

    setups = []
    for attempt in range(SETUP_REPEATS - 1):
        server = Server(bench, f"warm-{attempt}")
        setups.append(server.setup_s)
        server.stop()
    server = Server(bench, "server")
    setups.append(server.setup_s)
    records_path = bench.work / "records.json"
    try:
        generator = bench.run(
            bench.helper("generate", server.url, str(jobs_path), str(expected),
                         str(records_path)),
            timeout=bench.args.seconds + 60,
        )
    finally:
        server_code = server.stop()
    if generator.code != 0 or not records_path.is_file():
        tail = "\n".join(line for _, line in generator.err[-20:])
        raise SystemExit(f"serve-mix generator failed (exit {generator.code})\n{tail}")
    if server_code != 0:
        print(f"serve-mix: job server exited with {server_code}", file=sys.stderr)
    records = json.loads(records_path.read_text(encoding="utf-8"))
    for record in records:
        ok = record["outcome"] == "ok"
        if not ok:
            print(f"serve-mix: job {record['index']} {record['outcome']}: "
                  f"{record.get('error', '')}", file=sys.stderr)
        bench.record(ok, wrong=record["outcome"] == "wrong")
    lateness = [r["sent"] - r["due"] for r in records if "sent" in r]
    late_p90, late_max = percentile(lateness, 0.9), max(lateness, default=0.0)
    print(f"serve-mix: generator lateness p90 {late_p90 * 1e3:.1f} ms, "
          f"max {late_max * 1e3:.1f} ms", file=sys.stderr)
    if late_p90 > SERVE_MAX_LATENESS / SERVE_RATE:
        raise InvalidRun(
            f"generator fell behind its schedule (p90 lateness {late_p90 * 1e3:.0f} ms); "
            "the run is invalid"
        )
    return {"records": records, "setup_s": median(setups), "rss_mib": server.rss_mib,
            "late_p90": late_p90, "late_max": late_max}


def serve_end_to_end(bench: Bench) -> dict[str, float]:
    outcome = serve_run(bench)
    records = outcome["records"]
    end = max(r["done"] for r in records)
    # A job that failed, was refused or timed out counts as late as the
    # run's end: later than any job that succeeded.
    latencies = [
        (r["done"] if r["outcome"] == "ok" else end) - r["due"] for r in records
    ]
    return {
        "setup_s": outcome["setup_s"],
        "wall_s": end,
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "rss_peak_mib": outcome["rss_mib"],
        "ok_frac": sum(r["outcome"] == "ok" for r in records) / len(records),
        "_samples": len(latencies),
        "_runs": 1,
    }


def serve_traced(bench: Bench) -> dict[str, float]:
    import_times = []
    for _ in range(SETUP_REPEATS):
        done = bench.must(bench.helper("import-time"), "time import repro.cli")
        import_times.append(float(done.out[-1][1]))
    outcome = serve_run(bench)
    records = outcome["records"]
    finished = [r for r in records if r.get("finished_at") is not None]
    started = [r for r in finished if r.get("started_at") is not None]
    statuses = [ms for r in records for ms in r["status_ms"]]
    queue_wait = [(r["started_at"] - r["submitted_at"]) * 1e3 for r in started]
    run = [(r["finished_at"] - r["started_at"]) * 1e3 for r in started]
    seen = [(r["seen_epoch"] - r["finished_at"]) * 1e3 for r in finished]
    submits = [r["submit_ms"] for r in records if "submit_ms" in r]
    return {
        "cli.import_s": median(import_times),
        "serve.http.submit_ms.p50": median(submits),
        "serve.http.submit_ms.p90": percentile(submits, 0.9),
        "serve.http.status_ms.p50": median(statuses),
        "serve.http.result_ms.p50": median(r["result_ms"] for r in records if "result_ms" in r),
        "serve.queue_wait_ms.p50": median(queue_wait),
        "serve.queue_wait_ms.p90": percentile(queue_wait, 0.9),
        "serve.run_ms.p50": median(run),
        "serve.run_ms.p90": percentile(run, 0.9),
        "serve.done_seen_ms.p50": median(seen),
        "serve.polls_per_job": len(statuses) / max(1, len(submits)),
        "serve.submitted": len(submits),
        "serve.done": sum(r["outcome"] in ("ok", "wrong") for r in records),
        "serve.failed": sum(r["outcome"] in ("failed", "error", "timeout") for r in records),
        "serve.refused": sum(r["outcome"] == "refused" for r in records),
        "serve.gen_late_ms.p90": outcome["late_p90"] * 1e3,
        "serve.gen_late_ms.max": outcome["late_max"] * 1e3,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def layer_table(metrics: dict[str, float]) -> str:
    rows = [("metric", "value", "unit", "should move")]
    for name, unit, target in PER_LAYER:
        rows.append((name, f"{metrics[name]:.6g}", unit, target))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) + "  " + row[3]
        for row in rows
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table2", "watch-long", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so every child gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    bench = Bench(args)
    try:
        bench.take_fingerprint()
        print(f"host: {json.dumps(bench.fingerprint, sort_keys=True)}", file=sys.stderr)
        serve = args.workload == "serve-mix"
        if args.trace:
            # A layer the workload never reaches reads 0.
            raw = {name: 0.0 for name, _, _ in PER_LAYER}
            raw.update(serve_traced(bench) if serve else cli_traced(bench, cli_workload(bench)))
        else:
            raw = serve_end_to_end(bench) if serve else cli_end_to_end(bench, cli_workload(bench))
    except InvalidRun as error:
        print(f"{args.workload}: INVALID: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in PER_LAYER}
    metrics = {name: {"value": float(raw[name]), "unit": unit} for name, unit in units.items()}
    result = {
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    if args.trace:
        print(f"per-layer metrics, {args.workload} (traced run):", file=sys.stderr)
        print(layer_table(raw), file=sys.stderr)
    else:
        print(f"{args.workload}: {raw['_runs']} run(s), {raw['_samples']} latency samples",
              file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": bench.fingerprint, "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / "results" / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
