"""The precut benchmark.

    python3 perfbench/run.py --workload {verify,fock,quotients} --seed N --seconds S --trace {0,1}

Run from the root of a precut checkout.  Each job of the workload (see
jobs.py) is one command in a fresh interpreter with PYTHONPATH=src, run one
at a time from this single client (a closed loop) with the CLI's default of
one thread.  Every job's exit code and JSON answer are checked against a
pinned expectation.  The seed only shuffles the order of the jobs: every
input is exhaustive, so there is nothing to sample.  Units that fill a
Fock-table cache run first, so that more runs of their warm job can be
spread over the rest of the pass.

--trace 0 runs whole passes over the job list for about S seconds (at least
one pass) and reports the end-to-end metrics.  --trace 1 runs one plain
pass and one traced pass in the same order, checks that every job printed
the same bytes in both, and reports the per-layer metrics summed over the
traced jobs, plus the tracing overhead (traced minus plain pass seconds).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Progress goes to standard error.
Scratch files live under .perfbench/ in the checkout and are removed at the
end, except .perfbench/trace-<workload>.json, the traced run's per-job
counters and spans.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPS = 11
WARM_SAMPLES = 3  # extra runs of each warm job per pass, for the cache_hit_s median
JOB_TIMEOUT_S = 60
RUN_DEADLINE_S = 170  # no job may run past this many seconds into the run

# a fresh interpreter imports the CLI and builds the workload's instances
SETUP_CODE = """
import sys
import precut.cli
from precut.instances import build_instance, build_preset
for name in sys.argv[1:]:
    kind, _, value = name.partition(":")
    build_preset(value) if kind == "preset" else build_instance(value)
"""


@dataclass
class Result:
    job: jobs.Job
    code: int | None  # None: timed out
    wall_s: float
    rss_mb: float
    stdout: bytes
    error: str | None = None
    trace: dict | None = None


class Runner:
    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        # a fixed hash seed makes traced counters repeat exactly; no job may
        # find a Fock-table cache other than the one the benchmark gives it
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("PRECUT_CACHE_DIR", None)
        self.count = 0

    def spawn(self, cmd):
        """Run cmd to its end; return exit code (None if it timed out or the run's
        deadline had passed), seconds, peak RSS in MB, stdout and stderr.  The
        RSS comes from wait4 on this child alone; the RUSAGE_CHILDREN figure
        would be the maximum over all earlier children."""
        self.count += 1
        out_path = self.work / f"out-{self.count}"
        err_path = self.work / f"err-{self.count}"
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return None, 0.0, 0.0, b"", b""
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.send_signal, (signal.SIGKILL,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if proc.returncode == -signal.SIGKILL else proc.returncode
        return code, wall, usage.ru_maxrss / 1024, out_path.read_bytes(), err_path.read_bytes()

    def setup_seconds(self, names):
        cmd = [sys.executable, "-c", SETUP_CODE, *names]
        code, wall, _, _, err = self.spawn(cmd)
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.decode(errors='replace')}")
        return wall

    def run_job(self, job, cache_dir, trace_path=None):
        kind, *args = job.argv
        if kind == "cli":
            args = [*args, "--json"]
            if job.cache:
                args += ["--cache-dir", str(cache_dir)]
        if trace_path is None and kind == "cli":
            cmd = [sys.executable, "-m", "precut.cli", *args]
        else:
            trace = ["--trace", str(trace_path)] if trace_path else []
            cmd = [sys.executable, str(HERE / "child.py"), *trace, kind, *args]
        code, wall, rss, stdout, stderr = self.spawn(cmd)
        result = Result(job, code, wall, rss, stdout)
        if code is None:
            result.error = "timed out"
        elif b"Traceback" in stderr:
            result.error = "traceback on stderr"
        else:
            try:
                answer = json.loads(stdout)
            except ValueError:
                answer = None
            result.error = jobs.check_answer(job, code, answer)
        if result.error is None and trace_path is not None:
            result.trace = json.loads(trace_path.read_text())
        return result

    def run_pass(self, units, label, traced=False, warm_samples=0):
        """One pass over the job list, whose cache units come first.  Returns
        the list's job results, and the results of warm_samples more runs of
        each warm job against its cache, spread evenly over the rest of the
        pass: they are not part of the list, and they sample cache_hit_s
        across the whole pass rather than in one burst."""
        pass_dir = self.work / label
        pass_dir.mkdir()
        results, extra, warm = [], [], []
        slots = [round((k + 1) * (len(units) - 1) / warm_samples) for k in range(warm_samples)]
        for index, unit in enumerate(units):
            cache_dir = pass_dir / f"cache-{index}"
            stamp = None
            for job in unit:
                trace_path = pass_dir / f"trace-{job.name}.json" if traced else None
                results.append(self.run_checked(job, label, cache_dir, stamp, trace_path))
                if job.cache == "cold":
                    stamp = _cache_stamp(cache_dir)
                elif job.cache == "warm":
                    warm.append((job, cache_dir, stamp))
            for _ in range(slots.count(index)):
                for job, cache_dir, stamp in warm:
                    extra.append(self.run_checked(job, label, cache_dir, stamp))
        return results, extra

    def run_checked(self, job, label, cache_dir, stamp, trace_path=None):
        """run_job plus the cache self-test, logged to stderr; stamp is the
        cache's identity after the cold job."""
        r = self.run_job(job, cache_dir, trace_path)
        if r.error is None and job.cache:
            # the cold job writes exactly one table; the warm job leaves it untouched
            now = _cache_stamp(cache_dir)
            if now is None:
                r.error = f"cache does not hold exactly one table after the {job.cache} job"
            elif job.cache == "warm" and now != stamp:
                r.error = "warm job rewrote the cached table"
        if r.error is None and trace_path and job.cache:
            reads = r.trace["stats"]["fock.table_from_json"][0]
            if reads != (job.cache == "warm"):
                r.error = f"{job.cache} job read the cache {reads} times"
        print(
            f"{label:>8} {job.name:<40} {r.wall_s:8.3f}s {r.rss_mb:6.1f}MB"
            f" {'ok' if r.error is None else 'FAILED: ' + r.error}",
            file=sys.stderr,
        )
        return r


def _cache_stamp(cache_dir):
    """Identity of the one table in cache_dir, or None if it holds another count."""
    files = sorted(cache_dir.iterdir()) if cache_dir.is_dir() else []
    if len(files) != 1:
        return None
    st = files[0].stat()
    return files[0].name, st.st_ino, st.st_mtime_ns, st.st_size


def setup_names(units):
    """The instances a workload's jobs build, as arguments to SETUP_CODE."""
    names = set()
    for unit in units:
        for job in unit:
            kind, *args = job.argv
            if kind == "fm":
                names |= {"instance:perm_f", "instance:perm_m"}
                continue
            opts = dict(zip(args, args[1:]))
            if "--avoid" in opts:
                names.add("preset:" + opts["--avoid"])
            elif "--preset" in opts:
                names.add("preset:" + opts["--preset"])
            else:
                names.add("instance:" + opts["--instance"])
    return sorted(names)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "precut" / "cli.py").is_file():
        print(f"no precut source under {ROOT / 'src'}; run from a precut checkout", file=sys.stderr)
        return 2

    # a terminated benchmark still kills and reaps the job it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    units = list(jobs.WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(units)
    # cache units first, so warm samples can be spread over the rest of a pass
    units.sort(key=lambda unit: not any(job.cache for job in unit))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    start = time.monotonic()
    runner = Runner(work, start + RUN_DEADLINE_S)
    try:
        names = setup_names(units)
        runner.setup_seconds(names)  # untimed: writes the bytecode caches
        setup = [runner.setup_seconds(names) for _ in range(SETUP_REPS)]
        if args.trace:
            return report_traced(runner, units, args.workload)
        return report_plain(runner, units, setup, start + args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report_plain(runner, units, setup, stop):
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(runner.run_pass(units, f"pass-{len(passes)}", warm_samples=WARM_SAMPLES))
        if time.monotonic() + (time.monotonic() - t0) > stop:  # another pass would overrun
            break
    results = [r for listed, extra in passes for r in listed + extra]
    warm = [r.wall_s for r in results if r.job.cache == "warm"]
    failed = sum(r.error is not None for r in results)
    metrics = {
        "wall_s": (statistics.median(_seconds(listed) for listed, _ in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "slowest_job_s": (statistics.median(max(r.wall_s for r in listed) for listed, _ in passes), "s"),
        "cache_hit_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
    }
    emit(failed == 0, len(results), failed, metrics)
    return 0


def report_traced(runner, units, workload):
    plain, _ = runner.run_pass(units, "plain")
    traced, _ = runner.run_pass(units, "traced", traced=True)
    for p, t in zip(plain, traced):
        if t.error is None and p.stdout != t.stdout:
            t.error = "traced output differs from the plain run"
    failed = sum(r.error is not None for r in plain + traced)
    traces = [r.trace for r in traced if r.trace is not None]
    metrics = tracing.layer_metrics(traces) if traces else {}
    metrics["trace.overhead_s"] = (_seconds(traced) - _seconds(plain), "s")
    out = {r.job.name: r.trace for r in traced}
    (WORK / f"trace-{workload}.json").write_text(json.dumps(out, indent=1))
    emit(failed == 0 and len(traces) == len(traced), len(plain) + len(traced), failed, metrics)
    return 0


def _seconds(results):
    """Seconds the listed jobs took, each from its start to its exit."""
    return sum(r.wall_s for r in results)


def emit(correct, attempted, failed, metrics):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())
