"""tourlab benchmark: the CLI as a researcher runs it, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-h8 --seed 1 --seconds 60 --trace 0

Every workload uses the same six tourlab commands, each a fresh process with
its own empty working directory, at the workload's own sizes:

    enumerate        --h H        (empty cache: enumerate and write it)
    fas-table        --h H        (warm cache: classify and render)
    construct        --kind tnp --n N --p 3/5
    density          --pattern all --h H_MC --mode mc --samples S
    construct        --kind transversal --n N_T --h 6 --hstar T5
    dominance-check  --h 5 --x 1/10        (exact census)

A workload's schedule interleaves its short commands between its long
ones, so every command is sampled across the whole run.  The schedule
repeats until the next command is expected to end after --seconds, once
every command has run.  Each step's metric is the mean of its samples.
Every command's output is checked without tourlab's code
(checks.py).

Before the timed part, every run enumerates and tabulates h=6 with
--threads 2, untimed, so the process-pool paths are checked against the
same pinned bytes as the single-thread table.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the six commands
in order twice per pass, plain and under traced.py, always with --threads 1,
and reports per-layer metrics from the spans.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"
WORK = ROOT / ".perfbench-work"
COMMAND_TIMEOUT_S = 150
SETUP_REPEATS = 7  # import probes before a traced run
TRANSVERSAL_SEED = 2020  # fixed, so the exact dominance-check output can be pinned
TRANSVERSAL_PARTS, PLANTED = 6, 5  # the transversal host plants T5 across 6 classes
POOL_CHECK_H, POOL_CHECK_THREADS = 6, 2  # the untimed check of the process-pool paths

CATALOG_STEPS = ("enumerate", "fas-table")
GRAPH_STEPS = ("construct-tnp", "density-mc", "construct-transversal", "dominance-check")
STEPS = CATALOG_STEPS + GRAPH_STEPS
SETUP = "setup"  # a fresh interpreter importing tourlab: what every command pays first
IMPORT_PROBE = "import sys, tourlab; sys.stdout.write(tourlab.__file__)"

# Schedules.  "enumerate" starts a new catalog directory with an empty
# cache; "construct-tnp" starts a new graph directory whose cache is a copy
# of the current catalog cache, so density-mc at h=6 finds its catalog warm.
# Short commands sit between long ones and, where they are few, run twice
# per round, so that each is sampled across the whole run.
GRAPHS_BETWEEN_CATALOG = (SETUP, "enumerate", SETUP, *GRAPH_STEPS,
                          SETUP, "fas-table", SETUP, *GRAPH_STEPS)
CATALOG_BETWEEN_GRAPH = (SETUP, *CATALOG_STEPS, "construct-tnp",
                         SETUP, *CATALOG_STEPS, "density-mc",
                         SETUP, *CATALOG_STEPS, "construct-transversal", "construct-tnp",
                         SETUP, *CATALOG_STEPS, "construct-transversal", "dominance-check")


@dataclass(frozen=True)
class Workload:
    h: int             # catalog size for enumerate and fas-table
    tnp_n: int
    mc_h: int
    mc_samples: int
    transversal_n: int
    schedule: tuple[str, ...]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "catalog-h8": Workload(8, 512, 5, 100_000, 30, GRAPHS_BETWEEN_CATALOG),
    "density-pipeline": Workload(6, 2048, 6, 1_000_000, 60, CATALOG_BETWEEN_GRAPH),
}

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "cold_catalog_s": "s", "warm_table_s": "s",
    "construct_s": "s", "density_mc_s": "s", "dominance_exact_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB",
}


@dataclass
class Run:
    """One finished command."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    error: str | None = None


# tourlab calls no BLAS routine, but numpy's OpenBLAS starts a thread per
# core that spins at import.  On a 2-core host those threads compete with
# the command being timed and with the --threads 2 pool workers.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **ONE_BLAS_THREAD)
    env.pop("TOURLAB_CACHE", None)
    env["PYTHONPATH"] = str(SOURCE)
    return env


def spawn(cmd: list[str], cwd: Path) -> Run:
    """Run cmd to completion; CPU time and peak RSS come from os.wait4 for
    this child alone (including pool workers it waited for)."""
    out_path, err_path = cwd / "stdout", cwd / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    run = Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code,
              out_path.read_bytes())
    if code != 0:
        run.error = f"exit {code}: {err_path.read_text().strip().splitlines()[-1:]}"
    return run


def tourlab_cmd(argv: list[str], trace_file: Path | None, step: str) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "tourlab.cli", *argv]
    return [sys.executable, str(TRACED), "--spans", str(trace_file), "--command", step,
            "--", *argv]


def command(step: str, w: Workload, threads: int, seeds: tuple[int, int],
            catalog: Path, graph: Path):
    """(tourlab argv, output check) for step; catalog and graph are the
    current directories of the schedule."""
    cache, graph_cache = catalog / "cache", graph / "cache"
    tnp, transversal = graph / "tnp.txt", graph / "transversal.txt"
    tnp_seed, mc_seed = seeds
    common = ["--threads", str(threads)]
    if step == "enumerate":
        return (["enumerate", "--h", str(w.h), "--cache-dir", str(cache), *common],
                lambda out: checks.check_enumerate(out, w.h, cache))
    if step == "fas-table":
        return (["fas-table", "--h", str(w.h), "--cache-dir", str(cache), *common],
                lambda out: checks.check_fas_table(out, w.h, cache))
    if step == "construct-tnp":
        return (["construct", "--kind", "tnp", "--n", str(w.tnp_n), "--p", "3/5",
                 "--seed", str(tnp_seed), "--out", str(tnp), *common],
                lambda out: checks.check_construct_tnp(out, w.tnp_n, tnp_seed, tnp))
    if step == "density-mc":
        return (["density", "--graph", str(tnp), "--pattern", "all", "--h", str(w.mc_h),
                 "--mode", "mc", "--samples", str(w.mc_samples), "--seed", str(mc_seed),
                 "--cache-dir", str(graph_cache), *common],
                lambda out: checks.check_density_mc(out, w.mc_h, w.tnp_n, w.mc_samples))
    if step == "construct-transversal":
        return (["construct", "--kind", "transversal", "--n", str(w.transversal_n),
                 "--h", str(TRANSVERSAL_PARTS), "--hstar", f"T{PLANTED}",
                 "--seed", str(TRANSVERSAL_SEED), "--out", str(transversal), *common],
                lambda out: checks.check_construct_transversal(
                    out, w.transversal_n, TRANSVERSAL_PARTS, PLANTED, TRANSVERSAL_SEED,
                    transversal))
    if step == "dominance-check":
        return (["dominance-check", "--graph", str(transversal), "--h", str(PLANTED),
                 "--x", "1/10", "--cache-dir", str(graph_cache), *common],
                lambda out: checks.check_dominance(out, w.transversal_n))
    raise ValueError(step)


class Runner:
    """Runs steps one at a time under base; failed commands and checks go
    to failures.  With traced, each step writes base/spans-<step>.json."""

    def __init__(self, w: Workload, threads: int, seeds: tuple[int, int], base: Path,
                 traced: bool, failures: list[str]) -> None:
        self.w, self.threads, self.seeds, self.base = w, threads, seeds, base
        self.traced, self.failures = traced, failures
        self.catalog = self.graph = base
        self.count = 0
        base.mkdir(parents=True)

    def _new_dir(self, kind: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{kind}-{self.count:04d}-", dir=self.base))

    def run(self, step: str) -> Run:
        self.count += 1
        if step == SETUP:
            return self._check(step, spawn([sys.executable, "-c", IMPORT_PROBE],
                                           self._new_dir(step)), check_import)
        if step == "enumerate":
            self.catalog = self._new_dir("catalog")
        elif step == "construct-tnp":
            self.graph = self._new_dir("graph")
            if (self.catalog / "cache").is_dir():
                shutil.copytree(self.catalog / "cache", self.graph / "cache")
        argv, check = command(step, self.w, self.threads, self.seeds, self.catalog, self.graph)
        trace_file = self.base / f"spans-{step}.json" if self.traced else None
        return self._check(step, spawn(tourlab_cmd(argv, trace_file, step),
                                       self._new_dir(step)), check)

    def _check(self, step: str, run: Run, check) -> Run:
        if run.error is None:
            try:
                check(run.stdout)
            except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                run.error = f"check: {exc!r}"
        if run.error is not None:
            self.failures.append(f"{step}: {run.error}")
        return run


def run_schedule(w: Workload, seeds: tuple[int, int], base: Path, seconds: float,
                 failures: list[str]) -> dict[str, list[Run]]:
    """Repeat w.schedule until the next command is expected to end after
    seconds; every step runs at least once."""
    runner = Runner(w, 1, seeds, base, False, failures)
    runs: dict[str, list[Run]] = {step: [] for step in (SETUP, *STEPS)}
    deadline = perf_counter() + seconds
    for step in itertools.cycle(w.schedule):
        if all(runs.values()) and perf_counter() + runs[step][-1].wall_s > deadline:
            break
        runs[step].append(runner.run(step))
    return runs


def run_pass(w: Workload, seeds: tuple[int, int], base: Path, traced: bool,
             failures: list[str]) -> tuple[dict[str, Run], Path]:
    """The six steps once, in order; returns the runs and the catalog cache."""
    runner = Runner(w, 1, seeds, base, traced, failures)
    runs = {step: runner.run(step) for step in STEPS}
    return runs, runner.catalog / "cache"


def pool_check(w: Workload, seeds: tuple[int, int], base: Path,
               failures: list[str]) -> list[Run]:
    """Untimed: enumerate and fas-table at h=6 with --threads 2, whose
    stdout must match the pinned single-thread bytes."""
    runner = Runner(replace(w, h=POOL_CHECK_H), POOL_CHECK_THREADS, seeds, base, False,
                    failures)
    return [runner.run(step) for step in CATALOG_STEPS]


def check_import(stdout: bytes) -> None:
    if not Path(stdout.decode()).is_relative_to(SOURCE):
        raise checks.CheckFailed(f"tourlab imported from {stdout!r}, not {SOURCE}")


def reference_loop_s() -> float:
    """A fixed pure-Python loop; its time tracks host speed, not tourlab."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def median(values) -> float:
    return statistics.median(list(values))


def end_to_end(runs: dict[str, list[Run]]) -> dict[str, float]:
    # The mean, not the median: a step has only a few samples in a run, and
    # the host drifts between a fast and a slow state, so a median lands in
    # one state while the mean weighs every sample's share of the run.
    wall = {step: statistics.fmean(run.wall_s for run in runs[step]) for step in STEPS}
    cpu = {step: statistics.fmean(run.cpu_s for run in runs[step]) for step in STEPS}
    return {
        "setup_s": median(run.wall_s for run in runs[SETUP]),
        "wall_s": sum(wall.values()),
        "cold_catalog_s": wall["enumerate"],
        "warm_table_s": wall["fas-table"],
        "construct_s": wall["construct-tnp"] + wall["construct-transversal"],
        "density_mc_s": wall["density-mc"],
        "dominance_exact_s": wall["dominance-check"],
        "cpu_s": sum(cpu.values()),
        "peak_rss_mb": max(median(run.rss_mb for run in runs[step]) for step in STEPS),
    }


class Span(NamedTuple):
    name: str
    duration: float
    self_s: float       # duration minus the time its child spans cover
    work: int
    enumerated: bool    # has an enumerate_tournaments child: a catalog cache miss


class SpanTable:
    """Spans of every traced command of one pass."""

    def __init__(self, base: Path) -> None:
        self.rows: list[Span] = []
        self.caches: dict[str, list[int]] = {}
        for step in STEPS:
            record = json.loads((base / f"spans-{step}.json").read_text())
            names, spans = record["names"], record["spans"]
            child_time = [0.0] * len(spans)
            enumerated = [False] * len(spans)
            for parent, name_id, start, end, _ in spans:
                if parent is not None:
                    child_time[parent] += end - start
                    if names[name_id] == "enumeration.enumerate_tournaments":
                        enumerated[parent] = True
            for span_id, (_, name_id, start, end, work) in enumerate(spans):
                duration = end - start
                self.rows.append(Span(names[name_id], duration, duration - child_time[span_id],
                                      work, enumerated[span_id]))
            for key, counts in record["caches"].items():
                total = self.caches.setdefault(key, [0, 0])
                total[0] += counts[0]
                total[1] += counts[1]

    def select(self, *names: str, prefix: bool = False) -> list[Span]:
        return [row for row in self.rows
                if (row.name.startswith(names) if prefix else row.name in names)]

    def calls(self, *names: str) -> int:
        return len(self.select(*names))

    def self_s(self, *names: str, prefix: bool = False) -> float:
        return sum(row.self_s for row in self.select(*names, prefix=prefix))

    def rate(self, name: str, keep=lambda row: True) -> float:
        """Work per second over the whole duration of the named spans."""
        rows = [row for row in self.select(name) if keep(row)]
        seconds = sum(row.duration for row in rows)
        return sum(row.work for row in rows) / seconds if seconds else 0.0

    def hit_ratio(self, cache: str) -> float:
        hits, misses = self.caches.get(cache, [0, 0])
        return hits / (hits + misses) if hits + misses else 0.0


def per_layer(spans: SpanTable, cache_bytes: int, startup_s: float,
              plain: dict[str, Run], traced: dict[str, Run]) -> dict[str, tuple[float, str]]:
    canon = ("core.canonical_form", "core.aut_size")
    classified = sum(row.work for row in spans.select("bias.classify_catalog"))
    loads = spans.select("enumeration.load_or_enumerate")
    min_fas_calls = spans.calls("fas.min_fas")
    hits, misses = spans.caches.get("core.canon_cache", [0, 0])
    metrics = {
        "core.canon.calls": (spans.calls(*canon), "count"),
        "core.canon.self_s": (spans.self_s(*canon), "s"),
        "core.canon_cache.hit_ratio": (spans.hit_ratio("core.canon_cache"), "ratio"),
        "core.canon_cache.hits": (hits, "count"),
        "core.canon_cache.misses": (misses, "count"),
        "enumeration.enumerate_tournaments.self_s":
            (spans.self_s("enumeration.enumerate_tournaments"), "s"),
        "enumeration.classes_per_s": (spans.rate("enumeration.enumerate_tournaments"), "1/s"),
        "enumeration.cache_write_s": (sum(r.self_s for r in loads if r.enumerated), "s"),
        "enumeration.cache_read_s": (sum(r.self_s for r in loads if not r.enumerated), "s"),
        "enumeration.cache_bytes": (cache_bytes, "bytes"),
        "bias.forward_histogram.calls": (spans.calls("bias.forward_histogram"), "count"),
        "bias.forward_histogram.self_s": (spans.self_s("bias.forward_histogram"), "s"),
        "bias.bias_polynomial.self_s": (spans.self_s("bias.bias_polynomial"), "s"),
        "bias.classify_catalog.self_s": (spans.self_s("bias.classify_catalog"), "s"),
        "fas.min_fas.calls": (min_fas_calls, "count"),
        "fas.min_fas.self_s": (spans.self_s("fas.min_fas"), "s"),
        "fas.min_fas.calls_per_class": (min_fas_calls / classified if classified else 0.0,
                                        "ratio"),
        "construct.build_tnp.self_s": (spans.self_s("construct.build_tnp"), "s"),
        "construct.build_transversal.self_s": (spans.self_s("construct.build_transversal"), "s"),
        "construct.save_s": (spans.self_s("construct.BigTournament.save"), "s"),
        "construct.load_s": (spans.self_s("construct.BigTournament.load"), "s"),
        "density.census.subsets_per_s": (spans.rate("density.density_census"), "1/s"),
        "density.mc.samples_per_s":
            (spans.rate("density.dominance_report", keep=lambda row: row.work > 0), "1/s"),
        "density.pattern_canon.hit_ratio": (spans.hit_ratio("density.pattern_canon"), "ratio"),
        "density.dominance_report.self_s": (spans.self_s("density.dominance_report"), "s"),
        "cli.startup_s": (startup_s, "s"),
        "cli.self_s": (spans.self_s("cli.main"), "s"),
    }
    for layer in ("core", "enumeration", "bias", "fas", "construct", "density"):
        metrics[f"{layer}.self_s"] = (spans.self_s(f"{layer}.", prefix=True), "s")
    overheads = {step: traced[step].wall_s - plain[step].wall_s for step in STEPS}
    metrics["trace.overhead_s"] = (sum(overheads.values()), "s")
    for step, seconds in overheads.items():
        metrics[f"trace.overhead_s.{step}"] = (seconds, "s")
    return metrics


def traced_passes(w: Workload, seeds: tuple[int, int], work: Path, seconds: float,
                  startup_s: float, failures: list[str]):
    """Passes of the six steps, plain then traced, while the next pass is
    expected to end within seconds (at least one).  Returns every run and
    the per-layer metrics, each the median over passes."""
    runs: dict[str, list[Run]] = {step: [] for step in STEPS}
    samples: list[dict[str, tuple[float, str]]] = []
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        index = len(samples)
        plain, _ = run_pass(w, seeds, work / f"pass{index}", False, failures)
        base = work / f"traced{index}"
        traced, cache = run_pass(w, seeds, base, True, failures)
        for step in STEPS:
            runs[step] += [plain[step], traced[step]]
        cache_bytes = sum(f.stat().st_size for f in cache.glob("*"))
        samples.append(per_layer(SpanTable(base), cache_bytes, startup_s, plain, traced))
        if perf_counter() + (perf_counter() - started) > deadline:
            break  # the next pass would likely end after seconds
    metrics = {name: {"value": median(sample[name][0] for sample in samples), "unit": unit}
               for name, (_, unit) in samples[0].items()}
    return runs, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "tourlab" / "cli.py").is_file():
        print(f"error: no tourlab source under {SOURCE}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the running command is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    seeds = (rng.getrandbits(32), rng.getrandbits(32))
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "reference_loop_s_start": reference_loop_s(),
    }
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        failures: list[str] = []
        pool_runs = pool_check(workload, seeds, work / "pool", failures)
        if args.trace:
            probes = Runner(workload, 1, seeds, work / "setup", False, failures)
            setup = [probes.run(SETUP) for _ in range(SETUP_REPEATS)]
            runs, metrics = traced_passes(workload, seeds, work, args.seconds,
                                          median(run.wall_s for run in setup), failures)
            runs[SETUP] = setup
            print("note: traced commands ran with --threads 1; pool workers are separate "
                  "processes and are not traced")
        else:
            runs = run_schedule(workload, seeds, work / "schedule", args.seconds, failures)
            metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                       for name, value in end_to_end(runs).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    environment["reference_loop_s_end"] = reference_loop_s()

    print("environment: " + json.dumps(environment, sort_keys=True))
    print("detail: " + json.dumps({
        "workload": args.workload, "seeds": seeds,
        "step_wall_s": {step: [round(run.wall_s, 4) for run in step_runs]
                        for step, step_runs in runs.items()},
    }))
    for failure in failures:
        print(f"failed: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(pool_runs) + sum(map(len, runs.values())),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
