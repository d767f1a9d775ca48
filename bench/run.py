"""End-to-end benchmark for bgnn.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; the program is imported from
``src/``. Each job runs in its own child process, one at a time: a closed
loop with one client. BLAS is pinned to one thread in every process. A
run makes its inputs from ``--seed``, starts jobs until the next one would
end after ``--seconds`` (at least one), checks every job's outputs, and
prints the metrics as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are end to end, medians over the run's
jobs: ``wall_s``, ``setup_s`` (median over the jobs and over extra
set-up-only children), ``epochs_per_s``, ``peak_rss_mb``, ``test_acc`` and
``success_rate``. With ``--trace 1`` untraced and traced jobs alternate,
and the metrics are per layer (see ``spans.py``) plus ``trace.overhead_s``,
the median traced minus the median untraced wall time. An operation is
one child process; it fails if it raises, exits non-zero, times out,
yields a non-finite loss or fails a check. Lines starting with ``#``
before the result record machine facts and a readable report.
``--tiny`` shrinks every workload so that a run takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
BLAS_THREADS = "1"
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    "PYTHONHASHSEED": "0",
}
SETUP_PROBES = 5  # extra set-up-only children per untraced run
RUN_LIMIT_S = 170  # a child still running this long after the run began is killed
MAX_JOBS = 50


@dataclass
class Job:
    """One finished child process."""

    wall_s: float
    setup_s: float | None = None
    rss_mb: float | None = None
    test_acc: float | None = None
    result: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Starts, times and checks the child processes of one run."""

    def __init__(self, root: Path, workload, work: Path):
        self.root = root
        self.workload = workload
        self.work = work
        self.env = dict(os.environ, **PINNED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])
        )
        self.children: list[Job] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, setup_only: bool = False, trace: bool = False) -> Job:
        job_id = len(self.children)
        job_dir = self.work / f"job{job_id}"
        job_dir.mkdir(parents=True)
        result_path = job_dir / "result.json"
        spec = {
            "kind": self.workload.kind,
            "job": self.workload.job_spec(job_dir / "out"),
            "setup_only": setup_only,
            "trace": trace,
            "job_id": job_id,
            "result": str(result_path),
        }
        spec_path = job_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, str(BENCH / "child.py"), str(spec_path)]
        with open(job_dir / "child.log", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - start))
            except subprocess.TimeoutExpired:
                rc = f"killed {RUN_LIMIT_S} s after the run began"
            finally:  # also when this process is being stopped
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            end = time.monotonic()
        job = Job(wall_s=end - start)
        self.children.append(job)
        if rc != 0 or not result_path.is_file():
            tail = (job_dir / "child.log").read_text(errors="replace")[-2000:]
            job.problems.append(f"child exited with {rc}:\n{tail}")
            return job
        job.result = json.loads(result_path.read_text(encoding="utf-8"))
        job.rss_mb = job.result["maxrss_kb"] / 1024.0
        if "setup_done" not in job.result:
            job.problems.append("the job never loaded its dataset")
            return job
        job.setup_s = job.result["setup_done"] - start
        if not setup_only:
            try:
                job.problems, accs = self.workload.check(job_dir / "out", job.result)
            except Exception:  # outputs the checks cannot read fail the operation
                job.problems, accs = [f"checking the outputs raised:\n{traceback.format_exc()}"], []
            if not accs:
                job.problems.append("no final student reported a test accuracy")
            else:
                job.test_acc = sum(accs) / len(accs)
        shutil.rmtree(job_dir / "out", ignore_errors=True)
        return job

    def loop(self, seconds: float, started: float) -> list[Job]:
        """Run jobs until the next one would end after ``seconds``."""
        jobs = [self.run()]
        while len(jobs) < MAX_JOBS:
            expected = median(j.wall_s for j in jobs)
            if time.monotonic() - started + expected > seconds:
                break
            jobs.append(self.run())
        return jobs


def machine_facts(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
    }


def unit_of(name: str) -> str:
    if name.endswith(".calls") or ".tape_entries_per_step." in name:
        return "count"
    if name.endswith(".mflops"):
        return "MFLOP/s"
    if name.endswith("_s"):
        return "s"
    return "ms"


def _med(values, default: float = 0.0) -> float:
    values = [v for v in values if v is not None]
    return float(median(values)) if values else default


def end_to_end(workload, jobs: list[Job], probes: list[Job]) -> dict[str, tuple[float, str]]:
    timed = [j for j in jobs if j.ok] or jobs
    children = [c for c in jobs + probes if c.setup_s is not None]
    failed = sum(not c.ok for c in jobs + probes)
    return {
        "wall_s": (_med(j.wall_s for j in timed), "s"),
        "setup_s": (_med(c.setup_s for c in children), "s"),
        "epochs_per_s": (
            _med(workload.nominal_epochs / (j.wall_s - j.setup_s)
                 for j in timed if j.setup_s is not None),
            "epochs/s",
        ),
        "peak_rss_mb": (_med(j.rss_mb for j in timed), "MiB"),
        "test_acc": (_med(j.test_acc for j in jobs if j.ok), "fraction"),
        "success_rate": (1.0 - failed / len(jobs + probes), "fraction"),
    }


def per_layer(
    workload, untraced: list[Job], traced: list[Job], report
) -> dict[str, tuple[float, str]]:
    import spans as sp

    for job in traced:
        if not job.ok:
            continue
        reached = {s[0] for s in job.result["spans"]}
        missing = [name for name in workload.required if name not in reached]
        if missing:
            job.problems.append(f"traced job never reached {', '.join(missing)}")
        for line in sp.call_breakdown(job.result["spans"]):
            report(f"job {job.result['job_id']}: {line}")
    good = [j.result["spans"] for j in traced if j.ok] or [[]]
    metrics = sp.run_metrics(good)
    untraced_wall = _med(j.wall_s for j in untraced)
    overhead = _med(j.wall_s for j in traced) - untraced_wall
    metrics["trace.overhead_s"] = overhead
    report(f"tracing overhead: {overhead:.3f} s on an untraced wall of {untraced_wall:.3f} s "
           f"(medians of {len(traced)} traced and {len(untraced)} untraced jobs)")
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every input; for tests")
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is stopped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "bgnn" / "__init__.py").is_file():
        print(f"error: {root} holds no src/bgnn; run from a bgnn checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy loads BLAS in this process
    sys.path.insert(0, str(root / "src"))
    import bgnn

    if Path(bgnn.__file__).resolve().parent != (root / "src" / "bgnn").resolve():
        print(f"error: imported bgnn from {bgnn.__file__}, not from src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    lines: list[str] = []
    report = lines.append
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    facts = machine_facts(root)
    facts["loadavg_before"] = os.getloadavg()
    try:
        started = time.monotonic()
        (work / "inputs").mkdir(parents=True)
        workload = WORKLOADS[args.workload](work / "inputs", args.seed, args.tiny)
        runner = Runner(root, workload, work)
        if args.trace:
            # Untraced and traced jobs alternate, so that their difference,
            # the tracing overhead, is measured under the same conditions.
            pairs = [(runner.run(), runner.run(trace=True))]
            while len(pairs) < MAX_JOBS:
                expected = median(u.wall_s + t.wall_s for u, t in pairs)
                if time.monotonic() - started + expected > args.seconds:
                    break
                pairs.append((runner.run(), runner.run(trace=True)))
            metrics = per_layer(workload, [u for u, _ in pairs], [t for _, t in pairs], report)
        else:
            probes = [runner.run(setup_only=True) for _ in range(SETUP_PROBES)]
            jobs = runner.loop(args.seconds, started)
            metrics = end_to_end(workload, jobs, probes)
            for j in jobs:
                report(f"job: wall {j.wall_s:.3f} s, setup {j.setup_s or 0:.3f} s, "
                       f"rss {j.rss_mb or 0:.1f} MiB, test_acc {j.test_acc}")
            report(f"medians over {len(jobs)} jobs; setup_s over "
                   f"{sum(c.setup_s is not None for c in jobs + probes)} children")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    facts["loadavg_after"] = os.getloadavg()
    children = runner.children
    failed = [c for c in children if not c.ok]
    for c in failed:
        print(f"operation failed: {'; '.join(c.problems)}", file=sys.stderr)
    print("# facts " + json.dumps(facts))
    for line in lines:
        print("# " + line)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
