"""Cold-process benchmark of the ``peca`` command line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload paper-daily --seed 1 --seconds 30 --trace 0

One client runs a closed loop.  It generates the workload's input files from
``--seed`` (untimed), then runs rounds until ``--seconds`` have passed: a
cold ``import peca.cli``, then the workload's fixed sequence of cold
``python -m peca`` processes, one at a time.  Every process is timed
wall-clock, its peak RSS read from ``os.wait4``, and every output checked
(see ``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced jobs with jobs whose processes run under ``tracer.py`` and reports
the per-layer metrics of ``layers.py``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``correct`` is false when a number disagrees with the recount; an invocation
that fails any check, format checks included, counts in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

SOURCE = Path("src")
WORK_ROOT = Path(".bench_work")
HARD_LIMIT_S = 165.0      # every run must exit within 180 s
MIN_ROUNDS = 2
R = 10000                 # replicates in every Monte Carlo step

END_TO_END = (
    # (name, unit, better, bound).  Cold-process times on a shared 2-core host
    # spread by up to ~17 % between runs, so the time bounds sit at the ceiling.
    ("setup_s", "s", "lower", 0.25),
    ("pointwise_s", "s", "lower", 0.24),
    ("multi_s", "s", "lower", 0.24),
    ("job_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_ops_frac", "fraction", "higher", 0.01),
)


@dataclass(frozen=True)
class Step:
    role: str                           # "pointwise" or "multi": the *_s metric it feeds
    argv: tuple[str, ...]               # arguments after ``python -m peca``
    outputs: tuple[Path, ...]           # removed before the step runs
    check: Callable[[], list[checks.Problem]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int                           # rows per ingested series (0: no ingest)
    steps: Callable[[Path, int], tuple[Step, ...]]


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    problems: list[checks.Problem] = field(default_factory=list)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _series_steps(name: str, delta: int, quantile: float, m: int):
    def steps(work: Path, seed: int) -> tuple[Step, ...]:
        data = inputs.make_series_input(name, seed, work, delta)
        x = checks.reference_values(data.values, preprocess=True)
        common = ("--series", str(data.series_path), "--events", str(data.events_path),
                  "--delta", str(delta), "--preprocess")
        pw, mu, qtr, svg = (work / f for f in ("pointwise.json", "multi.json", "qtr.csv", "qtr.svg"))
        return (
            Step("pointwise", ("pointwise", *common, "--quantile", str(quantile), "--out", str(pw)),
                 (pw,), lambda: checks.check_pointwise(_read(pw), x, data.events, delta, quantile)),
            Step("multi", ("multi", *common, "--m", str(m), "--r", str(R), "--seed", "0",
                           "--out", str(mu), "--qtr", str(qtr), "--svg", str(svg)),
                 (mu, qtr, svg),
                 lambda: checks.check_multi(_read(mu), _read(qtr), _read(svg), x, data.events,
                                            delta, 0.75, 1.0, m, R)),
        )
    return steps


def _simulate_steps(work: Path, seed: int) -> tuple[Step, ...]:
    # The preset seeds are fixed: appendix-b1's 131 is the seed its acceptance
    # criterion documents, and the fig4 checks are stated for seed 0.
    fig4, b1 = work / "fig4", work / "appendix-b1"

    def check_fig4():
        files = {p.name: _read(p) for p in sorted(fig4.iterdir()) if p.suffix in (".csv", ".svg")}
        return checks.check_fig4(_read(fig4 / "summary.json"), files, R)

    return (
        Step("multi", ("simulate", "--preset", "fig4", "--seed", "0", "--replicates", str(R),
                       "--out", str(fig4)), (fig4,), check_fig4),
        Step("pointwise", ("simulate", "--preset", "appendix-b1", "--seed", "131",
                           "--replicates", str(R), "--out", str(b1)), (b1,),
             lambda: checks.check_appendix_b1(_read(b1 / "summary.json"),
                                              _read(b1 / "null_comparison.csv"), 9)),
    )


WORKLOADS = {w.name: w for w in (
    Workload("paper-daily",
             "The typical user run: the paper's shape (T=1096 daily counts, 17 events); "
             "imports dominate pointwise, the replicate loop dominates multi; control for ingest.",
             1096, _series_steps("paper-daily", 7, 0.99, 32)),
    Workload("long-hourly",
             "Large T, n and M (T=2^20, 1000 events, delta 168, m 128): ingest, preprocess and "
             "counting cost more than imports; control for import work.",
             1 << 20, _series_steps("long-hourly", 168, 0.999, 128)),
    Workload("simulate",
             "Both simulate presets: many small permutation tests, the sim generators and "
             "dp_extreme_nll, which pointwise never touches.",
             0, _simulate_steps),
)}


class Runner:
    """Starts one child at a time, times it and waits for it to end."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SOURCE.resolve())] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str], stderr_path: Path) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS in MB of one child process.

        The child is started with a plain fork: a vfork child, which is what
        ``subprocess`` uses, reports this process's own peak RSS as its
        ``ru_maxrss`` whenever that is the larger.
        """
        timeout = self.time_left()
        if timeout <= 0:
            raise TimeoutError("benchmark time limit reached")
        with open(os.devnull, "rb") as null_in, open(os.devnull, "wb") as null_out, \
                open(stderr_path, "wb") as err:
            start = time.perf_counter()
            pid = os.fork()
            if pid == 0:
                try:
                    for fd, target in ((null_in, 0), (null_out, 1), (err, 2)):
                        os.dup2(fd.fileno(), target)
                    os.execve(argv[0], argv, self.env)
                finally:
                    os._exit(127)
            pidfd = os.pidfd_open(pid)
            usage = None
            try:
                if not select.select([pidfd], [], [], timeout)[0]:
                    os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
            finally:
                os.close(pidfd)
                if usage is None:       # interrupted: stop and reap the child
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            wall = time.perf_counter() - start
        return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0

    def step(self, step: Step, work: Path, prefix: list[str]) -> Outcome:
        for path in step.outputs:
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        err = work / "stderr.txt"
        code, wall, rss = self.run([*prefix, *step.argv], err)
        out = Outcome(wall, rss)
        if code != 0:
            tail = _read(err).strip().splitlines()[-1:] or [""]
            out.problems.append(checks.Problem("format", f"{step.argv[0]} exited {code}: {tail[0]}"))
        else:
            try:
                out.problems += step.check()
            except Exception as exc:    # a missing or malformed output fails this invocation only
                out.problems.append(checks.Problem("format", f"{step.argv[0]}: output unreadable: {exc!r}"))
        return out


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def add(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.attempted += 1
            self.failed += bool(o.problems)
            self.correct &= not any(p.kind == "value" for p in o.problems)
            for p in o.problems:
                print(f"check failed ({p.kind}): {p.message}", file=sys.stderr)


def run_job(runner: Runner, steps, work: Path, prefix: list[str]) -> list[Outcome]:
    return [runner.step(s, work, prefix) for s in steps]


def keep_going(runner: Runner, start: float, seconds: float, rounds: list[float]) -> bool:
    """Another round: at least MIN_ROUNDS, then until ``seconds`` have passed.

    Stops early when one more round could overrun the hard limit.
    """
    if rounds and runner.time_left() < 2 * rounds[-1]:
        return False
    return len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds


def import_once(runner: Runner, work: Path, flags: tuple[str, ...] = ()) -> tuple[float, str]:
    """Wall seconds and stderr of a cold ``import peca.cli``."""
    err = work / "import.txt"
    code, wall, _ = runner.run([sys.executable, *flags, "-c", "import peca.cli"], err)
    if code != 0:
        raise RuntimeError("import peca.cli failed: " + _read(err))
    return wall, _read(err)


def end_to_end(runner: Runner, steps, work: Path, seconds: float, tally: Tally):
    # Each round is one cold import (the set-up every invocation pays) and
    # one job, so set-up samples spread over the run like the job samples.
    setup, jobs, rounds = [], [], []
    start = time.monotonic()
    while keep_going(runner, start, seconds, rounds):
        t0 = time.monotonic()
        setup.append(import_once(runner, work)[0])
        jobs.append(run_job(runner, steps, work, [sys.executable, "-m", "peca"]))
        tally.add(jobs[-1])
        rounds.append(time.monotonic() - t0)
    roles = [s.role for s in steps]

    def role_s(role):
        return [sum(o.wall_s for o, r in zip(job, roles) if r == role) for job in jobs]

    samples = {
        "setup_s": setup,
        "pointwise_s": role_s("pointwise"),
        "multi_s": role_s("multi"),
        "job_s": [sum(o.wall_s for o in job) for job in jobs],
        "peak_rss_mb": [max(o.rss_mb for o in job) for job in jobs],
    }
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["ok_ops_frac"] = (tally.attempted - tally.failed) / tally.attempted
    counts = {name: len(v) for name, v in samples.items()}
    counts["ok_ops_frac"] = tally.attempted
    return metrics, counts


def per_layer(runner: Runner, workload: Workload, steps, work: Path, seconds: float, tally: Tally):
    # Each round is one `-X importtime` import, one untraced job and one
    # traced job; their difference is the tracing overhead.
    plain, traced, samples, rounds = [], [], [], []
    tracer = [sys.executable, str(BENCH_DIR / "tracer.py")]
    span_files = [work / f"spans{i}.json" for i in range(len(steps))]
    start = time.monotonic()
    while keep_going(runner, start, seconds, rounds):
        t0 = time.monotonic()
        sample = layers.parse_importtime(import_once(runner, work, ("-X", "importtime"))[1])
        job = run_job(runner, steps, work, [sys.executable, "-m", "peca"])
        tally.add(job)
        plain.append(sum(o.wall_s for o in job))
        for f in span_files:
            f.unlink(missing_ok=True)
        job = [runner.step(s, work, [*tracer, str(f)]) for s, f in zip(steps, span_files)]
        tally.add(job)
        traced.append(sum(o.wall_s for o in job))
        wrapped, totals = layers.aggregate_spans(f for f in span_files if f.exists())
        sample.update(layers.job_layer_metrics(wrapped, totals, workload.rows, R))
        samples.append(sample)
        rounds.append(time.monotonic() - t0)
    metrics = layers.select(samples)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    counts = {m.name: len(rounds) for m in layers.PER_LAYER}
    absent = [m.name for m in layers.PER_LAYER
              if m.name != "trace.overhead_s" and not any(m.name in s for s in samples)]
    return metrics, counts, absent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance() -> dict:
    commit = None
    if Path(".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "peca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "peca" / "cli.py").is_file():
        print(f"no peca source under {SOURCE.resolve()}: run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        steps = workload.steps(work, args.seed)
        runner = Runner(deadline)
        # untimed warm-up: byte-code caches and the page cache, which users have warm
        import_once(runner, work)
        tally = Tally()
        if args.trace:
            metrics, counts, absent = per_layer(runner, workload, steps, work, args.seconds, tally)
            units = {m.name: m.unit for m in layers.PER_LAYER}
        else:
            metrics, counts = end_to_end(runner, steps, work, args.seconds, tally)
            absent = []
            units = {name: unit for name, unit, _, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    moves = {m.name: f"  moves: {m.moves}" for m in layers.PER_LAYER} if args.trace else {}
    for name, value in metrics.items():
        print(f"{workload.name:12s} {name:42s} {value:14.6g} {units[name]:12s} "
              f"n={counts[name]}{moves.get(name, '')}")
    if absent:
        print("read as 0 (module not imported, function gone or not called on this workload): "
              + ", ".join(absent))
    print(json.dumps({"provenance": provenance()}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
