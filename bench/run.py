"""The hopfseq benchmark: cold-process workloads with checked verdicts.

    python3 bench/run.py --workload lattice --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

Each job is one CLI verb or one library script, run in a fresh Python
process with its own empty temp directory, one job at a time.  A run
sets up (seeded inputs, byte-compiling the program, and for `hopf` a
dump built with hopfseq) five times, runs the workload's job list once,
then keeps cycling through it while a job still fits in --seconds,
running the reference job (refjob.py) after every job.  Every job's exit
code and stdout are checked against pinned facts, and a repeat's stdout
must be byte-identical to the first.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs the job list once plainly and once under bench/tracer.py and
reports the per-layer metrics, writing spans to .bench_out/.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import Job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
RUN_BUDGET_S = 165.0      # every run ends well inside the 180 s limit


@dataclass
class Spawned:
    wall_s: float
    exit_code: int | None      # None: killed at the timeout
    usage: object              # resource.struct_rusage of the child


def spawn(argv: list[str], cwd: Path, timeout: float) -> Spawned:
    """Run argv to completion in cwd.

    The child is reaped with wait4 for its own rusage; past the timeout it
    is killed through a pidfd, so the signal cannot reach a reused pid.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(cwd))
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(max(timeout, 0.0) * 1000)
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        # interrupted while the child runs: stop it and wait for it
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.waitpid(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(wall, None if timed_out else proc.returncode, usage)


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Result:
    job: Job
    run: Spawned
    stdout: str
    error: str | None = None   # why the job failed, if it did

    @property
    def rss_mb(self) -> float:
        return self.run.usage.ru_maxrss / 1024


def job_argv(job: Job, trace_file: Path | None = None) -> list[str]:
    if trace_file is not None:
        return [sys.executable, str(BENCH / "tracer.py"), str(trace_file),
                repr(time.monotonic()), job.kind, *job.args]
    if job.kind == "cli":
        return [sys.executable, "-m", "hopfseq.cli", *job.args]
    return [sys.executable, str(BENCH / "libjob.py"), *job.args]


def run_job(job: Job, work: Path, deadline: float, seen: dict[str, str],
            trace_file: Path | None = None) -> Result:
    """One cold process in a fresh directory, with its verdict checked."""
    cwd = Path(tempfile.mkdtemp(prefix=job.name + "-", dir=work))
    try:
        for name, data in job.files.items():
            (cwd / name).write_bytes(data)
        timeout = min(job.timeout, deadline - time.monotonic())
        spawned = spawn(job_argv(job, trace_file), cwd, timeout)
        stdout = (cwd / "stdout").read_bytes().decode(errors="replace")
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    res = Result(job, spawned, stdout)
    res.error = verdict(res, seen)
    return res


def verdict(res: Result, seen: dict[str, str]) -> str | None:
    job, code = res.job, res.run.exit_code
    if code is None:
        return "timed out"
    if code != job.exit_code:
        return f"exit code {code}, want {job.exit_code}"
    reason = job.oracle(res.stdout)
    if reason:
        return reason
    first = seen.setdefault(job.name, res.stdout)
    if res.stdout != first:
        return "stdout differs from the job's first run"
    return None


# ---------------------------------------------------------------------------
# set-up


def compile_program(work: Path, deadline: float) -> None:
    """Byte-compile the program from source, as a fresh install would."""
    cwd = Path(tempfile.mkdtemp(prefix="compile-", dir=work))
    try:
        run = spawn([sys.executable, "-m", "compileall", "-q", "-f",
                     str(ROOT / "src" / "hopfseq")], cwd, deadline - time.monotonic())
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    if run.exit_code != 0:
        raise SystemExit("set-up failed: byte-compiling src/hopfseq")


def build_dump(seed: int, work: Path, deadline: float) -> str:
    """The D(S3) dump that the `hopf` workload reads, built with hopfseq itself."""
    cwd = Path(tempfile.mkdtemp(prefix="dump-", dir=work))
    try:
        (cwd / "s3.grp").write_bytes(workloads.check_dump_input(seed))
        run = spawn([sys.executable, str(BENCH / "libjob.py"), "dump", "s3.grp",
                     "ds3.hopf"], cwd, deadline - time.monotonic())
        if run.exit_code != 0:
            raise SystemExit("set-up failed: building the D(S3) dump")
        return (cwd / "ds3.hopf").read_text()
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def setup(workload: str, seed: int, work: Path, deadline: float) -> list[Job]:
    compile_program(work, deadline)
    if workload == "lattice":
        return workloads.lattice_jobs(seed)
    if workload == "hopf":
        dump = build_dump(seed, work, deadline)
        return workloads.build_jobs(seed) + workloads.check_jobs(seed, dump)
    return workloads.smoke_jobs()


# ---------------------------------------------------------------------------
# timed and traced runs


# The reference job (refjob.py) is a fixed stdlib-only workload, run in a
# fresh interpreter after every timed job.  The host's speed drifts in phases
# of minutes, which shift every job's fastest run; the reference job's
# fastest run in the same minute measures the shift.  REF_S is its fastest
# run on the reference host (the 2-CPU VM of README.md), so wall_s reads in
# seconds at that host's speed.
REF_S = 0.0915


def timed_jobs(jobs: list[Job], seconds: float, work: Path,
               deadline: float) -> tuple[list[Result], list[float]]:
    """Run the job list once, then keep cycling through it for `seconds`.

    After the first pass a job starts only if its last run would still end
    inside `seconds`; the run stops when no job fits.  The reference job
    runs after every job; its wall times are returned with the results.
    """
    seen: dict[str, str] = {}
    refs: list[float] = []
    ref_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=work))

    def with_reference(job: Job) -> Result:
        res = run_job(job, work, deadline, seen)
        ref = spawn([sys.executable, str(BENCH / "refjob.py")], ref_dir,
                    deadline - time.monotonic())
        if ref.exit_code != 0:
            raise SystemExit("the reference job failed")
        refs.append(ref.wall_s)
        return res

    start = time.monotonic()
    results = [with_reference(job) for job in jobs]
    last = {r.job.name: r.run.wall_s for r in results}
    end = min(start + seconds, deadline)
    while any(time.monotonic() + last[job.name] <= end for job in jobs):
        for job in jobs:
            if time.monotonic() + last[job.name] <= end:
                res = with_reference(job)
                results.append(res)
                last[job.name] = res.run.wall_s
    return results, refs


def end_to_end(results: list[Result], setup_times: list[float],
               refs: list[float]) -> dict[str, float]:
    """wall_s sums each job's fastest run, scaled by the reference job's.

    The host's speed swings by up to ~2x in bursts of seconds; a job's
    fastest run is the one least slowed by them, and repeats far better
    than a median of a few samples.  The slower or faster phase a whole run
    falls in moves the reference job's fastest run too, so
    wall_s = best_s * REF_S / ref_s, and setup_s scales the median set-up
    by the same factor.
    """
    ok = [r for r in results if r.error is None]
    names = [n for n in dict.fromkeys(r.job.name for r in results)
             if any(r.job.name == n for r in ok)]
    best = sum(min(r.run.wall_s for r in ok if r.job.name == n) for n in names)
    scale = REF_S / min(refs)
    return {
        "wall_s": best * scale,
        "best_s": best,
        "ref_s": min(refs),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "failed_ratio": (len(results) - len(ok)) / len(results),
        "setup_s": statistics.median(setup_times) * scale,
        "setup_median_s": statistics.median(setup_times),
    }


def traced_pass(jobs: list[Job], work: Path, deadline: float,
                trace_dir: Path) -> tuple[list[Result], list[Result], list[dict]]:
    """Each job once plainly, then once traced; stdouts must agree."""
    seen: dict[str, str] = {}
    plain = [run_job(job, work, deadline, seen) for job in jobs]
    traced, reports = [], []
    for i, job in enumerate(jobs):
        path = trace_dir / f"{i:02d}-{job.name}.json"
        traced.append(run_job(job, work, deadline, seen, trace_file=path))
        if path.exists():
            reports.append(json.loads(path.read_text()))
    return plain, traced, reports


def merged_stats(reports: list[dict]) -> dict[str, list]:
    """[calls, self seconds] per key, summed over the traced jobs."""
    stats: dict[str, list] = {}
    for rep in reports:
        for key, (calls, self_s) in rep["stats"].items():
            acc = stats.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
    return stats


def per_layer(names: list[str], plain: list[Result], traced: list[Result],
              reports: list[dict]) -> dict[str, float]:
    stats = merged_stats(reports)
    layer_self: dict[str, float] = {}
    for key, (_calls, self_s) in stats.items():
        layer = key.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s

    def calls(key: str) -> int:
        return stats.get(key, [0, 0.0])[0]

    closures = calls("groups.closure")
    algebras = sum(r["algebras"] for r in reports)
    special = {
        "cli.import_s": statistics.mean(r["import_s"] for r in reports) if reports else 0.0,
        "proc.cpu_s": sum(r.run.usage.ru_utime + r.run.usage.ru_stime for r in plain),
        "trace.overhead_ratio":
            sum(r.run.wall_s for r in traced) / sum(r.run.wall_s for r in plain),
        "groups.classes_per_closure":
            sum(r["lattice_classes"] for r in reports) / closures if closures else 0.0,
        "hopf.verifies_per_algebra":
            calls("hopf.verify_hopf_axioms") / algebras if algebras else 0.0,
    }
    out: dict[str, float] = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = calls(name[:-len(".calls")])
        elif name.endswith(".self_s") and "." in name[:-len(".self_s")]:
            out[name] = stats.get(name[:-len(".self_s")], [0, 0.0])[1]
        elif name.endswith(".self_s"):
            out[name] = layer_self.get(name[:-len(".self_s")], 0.0)
        else:
            raise SystemExit(f"BENCHMARK.json names an unknown per-layer metric {name!r}")
    return out


# ---------------------------------------------------------------------------


def print_result(results: list[Result], metrics: dict[str, float], units: dict[str, str]) -> None:
    failed = sum(1 for r in results if r.error is not None)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def report_jobs(results: list[Result]) -> None:
    for name in dict.fromkeys(r.job.name for r in results):
        mine = [r for r in results if r.job.name == name]
        walls = " ".join(f"{r.run.wall_s:.3f}" for r in mine)
        print(f"  job {name:26s} wall_s [{walls}]  peak_rss_mb "
              f"{max(r.rss_mb for r in mine):.1f}")
        for r in mine:
            if r.error:
                print(f"    FAILED: {r.error}")


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)   # unwind: stop the running job, clean up
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("lattice", "hopf"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few-second run of small jobs that checks the harness")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "hopfseq" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: no hopfseq source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    workload = "smoke" if args.smoke else args.workload
    deadline = time.monotonic() + RUN_BUDGET_S

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{args.seed}-", dir=WORK))
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            jobs = setup(workload, args.seed, work, deadline)
            setup_times.append(time.perf_counter() - t0)
        print(f"workload {workload}  seed {args.seed}  jobs {[j.name for j in jobs]}")

        if args.trace:
            OUT.mkdir(exist_ok=True)
            trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=work))
            plain, traced, reports = traced_pass(jobs, work, deadline, trace_dir)
            results = plain + traced
            metrics = per_layer(list(units), plain, traced, reports)
            dest = OUT / f"trace-{workload}-seed{args.seed}.json"
            dest.write_text(json.dumps({"workload": workload, "seed": args.seed,
                                        "metrics": metrics, "jobs": reports}))
            report_jobs(results)
            top = sorted(((v[1], k) for k, v in merged_stats(reports).items()),
                         reverse=True)[:8]
            print("  largest self times (traced): "
                  + ", ".join(f"{k} {t:.2f} s" for t, k in top))
            print(f"  spans and per-key totals written to {dest.relative_to(ROOT)}")
            print_result(results, metrics, units)
            return 0

        seconds = 0.0 if args.smoke else args.seconds
        results, refs = timed_jobs(jobs, seconds, work, deadline)
        e2e = end_to_end(results, setup_times, refs)
        n_ok = sum(1 for r in results if r.error is None)
        report_jobs(results)
        samples = ",".join(str(sum(r.job.name == j.name for r in results)) for j in jobs)
        print(f"  wall_s       {e2e['wall_s']:.3f} s   = {e2e['best_s']:.3f} s, the sum over "
              f"{len(jobs)} jobs of each job's fastest run (samples per job {samples}), "
              f"x {REF_S} / {e2e['ref_s']:.5f} s, the reference job's fastest of {len(refs)}")
        print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB   max over {len(results)} jobs")
        print(f"  failed_ratio {e2e['failed_ratio']:.3f} fraction   "
              f"{len(results) - n_ok} of {len(results)} jobs failed")
        print(f"  setup_s      {e2e['setup_s']:.3f} s   = {e2e['setup_median_s']:.3f} s, the median "
              f"of {len(setup_times)} set-ups, x {REF_S} / {e2e['ref_s']:.5f} s")
        metrics = {name: e2e[name] for name in units}
        print_result(results, metrics, units)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
