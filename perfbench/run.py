#!/usr/bin/env python3
"""Closed-loop benchmark of the `siqm` CLI, run in-process.

    python3 perfbench/run.py --workload spectral-algebra --seed 1 --seconds 40 --trace 0

One process, one client: jobs from the seeded job list (workloads.py) run
one at a time through `siqm.cli.run_command`, writing their files to a
scratch directory under perfbench/runs/. A run holds the smallest whole
number of rounds whose nominal time at the parent commit reaches --seconds,
so the work of a run depends only on the workload, the seed and --seconds,
never on how fast the host or the code is. Every job's outputs are checked
(checks.py) and digested. A few tiny jobs of the workload's commands run
untimed first, so lazy imports and first-call costs stay out of the figures.

--trace 0 prints the end-to-end metrics setup_s, jobs_per_s and peak_rss_mb,
and on summary lines job_p50_s with its sample count and fail_frac with its
breakdown by kind.
--trace 1 runs each job twice, untraced and traced (tracing.py), over half
the rounds, checks that both runs wrote identical files, and prints the
per-layer metrics per round together with trace.overhead_frac; it starts
with a self-check of the tracer on a tiny job list. The last line of
standard output is one JSON object.
`--workload census` runs the fixed list of known-defect reproductions once.

Run records (argv lists, per-job results, host and library versions) go to
perfbench/runs/<workload>-seed<seed>-trace<t>.json. The CSV and report
digests of each seed are kept in perfbench/runs/<workload>-seed<seed>.digests.json
and compared on every later run of that seed against the same sources.
"""

import os
import sys

# Jobs are single-threaded by design; keep BLAS/OpenMP pools at one thread
# (never above nproc) before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    _val = os.environ.get(_var, "")
    if not _val.isdigit() or not 1 <= int(_val) <= NPROC:
        os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUNS = BENCH / "runs"
SRC = ROOT / "src"

WORKLOADS = ("spectral-algebra", "dynamics", "census")
# Seconds one round takes at the parent commit (2-vCPU shared VM, BLAS
# threads 1). A run holds ceil(--seconds / ROUND_S) rounds.
ROUND_S = {"spectral-algebra": 22.5, "dynamics": 3.2}
# Fresh processes timed for setup_s. The runner has imported siqm before it
# starts them, so the file cache and byte-code are warm and none is dropped.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_siqm():
    """Import siqm.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "siqm" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no siqm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import siqm.cli
    if Path(siqm.cli.__file__).resolve().parent != (SRC / "siqm").resolve():
        raise SystemExit(f"perfbench: siqm imported from {siqm.cli.__file__}, not {SRC}")
    return siqm.cli


def _rounds(args) -> int:
    """Rounds in a run; a traced run executes every job twice, so it holds half."""
    rounds = max(1, math.ceil(args.seconds / ROUND_S[args.workload]))
    return max(1, rounds // 2) if args.trace else rounds


def _jobs(args):
    import workloads
    if args.workload == "census":
        return workloads.census_jobs()
    return workloads.job_list(args.workload, args.seed, _rounds(args))


def _setup_probe(args) -> int:
    _import_siqm()
    _jobs(args)
    print("ready", flush=True)
    return 0


def _measure_setup(args) -> list:
    """Wall time from starting a fresh runner process until its job list is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            t = perf_counter() - t0
            proc.stdout.close()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed (exit {proc.returncode})")
        times.append(t)
    return times


class Result:
    """One execution of one job."""

    def __init__(self, job):
        self.job = job
        self.code = None
        self.exception = None
        self.stderr = ""
        self.wall_s = 0.0
        self.output = None
        self.layers = None      # per-layer counts and self times of a traced run

    @property
    def failure(self):
        """Failure kind, or None for a job that exited 0 and passed its checks."""
        if self.exception:
            return f"{self.job.kind}:{self.exception.split(':')[0]}"
        if self.output is not None and self.output.problems:
            return f"{self.job.kind}:check"
        if self.code != 0:
            return f"{self.job.kind}:exit{self.code}"
        return None

    def record(self) -> dict:
        rec = self.job.record()
        rec.update(code=self.code, exception=self.exception, wall_s=self.wall_s,
                   failure=self.failure)
        if self.code not in (0, None):
            rec["stderr"] = self.stderr.strip().splitlines()[-1:] or []
        if self.output is not None:
            rec.update(digest=self.output.digest, bytes_written=self.output.bytes_written,
                       problems=self.output.problems)
        if self.layers is not None:
            rec["layers"] = dict(sorted(self.layers.items()))
        return rec


def run_job(cli, job, directory: Path) -> Result:
    import checks
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    res = Result(job)
    argv = job.argv_in(str(directory))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            res.code = cli.run_command(argv)
        except Exception as exc:  # every exception that escapes the CLI is a failed job
            res.exception = f"{type(exc).__name__}: {exc}"
        finally:
            res.wall_s = perf_counter() - t0
    res.stderr = err.getvalue()
    if res.exception is None:
        res.output = checks.check(job, directory, res.code)
    shutil.rmtree(directory)
    return res


def _warm_up(cli, workload: str, workdir: Path) -> None:
    """Run the tiny self-check jobs of the workload's commands, untimed and unchecked."""
    import workloads
    for job in workloads.warmup_jobs(workload):
        run_job(cli, job, workdir / "warmup")


# ----------------------------------------------------------------------------
# tracer self-check

def _expected_counts(job) -> Counter:
    """Exact call counts implied by a job's arguments and the chain indices.

    A lattice relation builds one LatticeContext whose ladder actions need
    W at chain indices 1 .. window-1 (window 12 in the CLI).
    """
    window_w = 11
    p = job.params
    c = Counter()
    if job.kind == "evolve":
        steps = int(round(p["t_max"] / p["dt"]))
        c["dynamics.expm.calls"] += steps + 1
        c["dynamics.rk4_steps"] += steps
    elif job.kind == "verify:lattice-algebra":
        n_rel = 15 if p["family"] == "selfsimilar" else 6
        c["lattice.relations"] += n_rel
        c["lattice.contexts"] += n_rel
        c["families.eval_W.calls"] += n_rel * window_w
    elif job.kind == "verify:q-oscillator":
        c["lattice.relations"] += 1
        c["lattice.contexts"] += 1
        c["families.eval_W.calls"] += window_w
    elif job.kind in ("verify:shape-invariance", "verify:dilation"):
        c["families.eval_W.calls"] += 2
    elif job.kind == "spectrum":
        c["spectra.eigsh.calls"] += 1
        c["families.eval_W.calls"] += 1
    elif job.kind == "eigenstates":
        L = p["levels"]
        c["families.eval_W.calls"] += (L + 1) * (L + 2) // 2
        c["spectra.eigenstate.raise_steps"] += L * (L + 1) // 2
    return c


COUNTED = ("dynamics.expm.calls", "dynamics.rk4_steps", "lattice.relations",
           "lattice.contexts", "families.eval_W.calls", "spectra.eigsh.calls",
           "spectra.eigenstate.raise_steps")


def _selfcheck(cli, workdir: Path) -> dict:
    import tracing
    import workloads
    tracer = tracing.Tracer()
    problems, expected, got = [], Counter(), Counter()
    with tracing.instrument(tracer):
        missed = tracing.untraced_bindings(tracer)
        if missed:
            problems.append(f"untraced bindings: {missed}")
        for job in workloads.selfcheck_jobs():
            res = run_job(cli, job, workdir / "selfcheck")
            # exit 2 is allowed here: the tiny grids may miss a numerical gate
            if res.exception or res.output.problems:
                problems.append(f"job {job.index} {job.kind}: {res.failure}")
            summary = tracer.take_job()
            expected += _expected_counts(job)
            got += _layer_counts(summary)
            if summary["root_names"] != [tracing.ROOT]:
                problems.append(f"job {job.index}: spans outside the CLI: {summary['root_names']}")
            parts = sum(summary["self_s"].values())
            if abs(parts - summary["root_s"]) > 1e-9 * max(1.0, summary["root_s"]):
                problems.append(f"job {job.index}: self times add to {parts}, "
                                f"root span is {summary['root_s']}")
            if not 0 <= res.wall_s - summary["root_s"] <= 0.02 * res.wall_s + 1e-3:
                problems.append(f"job {job.index}: root span {summary['root_s']} "
                                f"vs job wall {res.wall_s}")
    for key in COUNTED:
        if got[key] != expected[key]:
            problems.append(f"{key} = {got[key]}, expected {expected[key]}")
    return {"pass": not problems, "problems": problems,
            "counts": {k: got[k] for k in COUNTED}}


# ----------------------------------------------------------------------------
# per-layer metrics

def _layer_counts(summary) -> Counter:
    """Counts and self times of one traced job, under the metric names.

    "<span>.self_s" and "<span>.calls" come from the span aggregates, and
    "<layer>.self_s" sums every span of the layer.
    """
    import tracing
    c = Counter(summary["counts"])
    c["series.engines"] += summary["calls"].get("series.engine", 0)
    c["lattice.contexts"] += summary["calls"].get("lattice.context", 0)
    c["lattice.relations"] += summary["calls"].get("lattice.commutator_residual", 0)
    for name, n in summary["calls"].items():
        c[f"{name}.calls"] += n
    for name, s in summary["self_s"].items():
        c[f"{name}.self_s"] += s
        layer = name.split(".")[0]
        if layer in tracing.LAYERS:
            c[f"{layer}.self_s"] += s
    return c


def _per_layer(spec: list, totals: Counter, rounds: int, untraced_s: float,
               traced_s: float) -> dict:
    metrics = {}
    for m in spec:
        name = m["name"]
        if name == "families.eval_W.unique_frac":
            calls = totals["families.eval_W.calls"]
            value = totals["families.eval_W.distinct"] / calls if calls else 0.0
        elif name == "trace.overhead_frac":
            value = traced_s / untraced_s - 1.0
        else:
            value = totals[name] / rounds
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


# ----------------------------------------------------------------------------
# run record and digests

def _source_hash() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "siqm").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _check_digests(workload: str, seed: int, results: list) -> list:
    """Compare this run's digests with earlier runs of the seed on the same sources."""
    path = RUNS / f"{workload}-seed{seed}.digests.json"
    source = _source_hash()
    store = {"source_sha256": source, "digests": {}}
    if path.is_file():
        old = json.loads(path.read_text())
        if old.get("source_sha256") == source:
            store = old
    mismatched = []
    for res in results:
        if res.output is None or res.output.digest is None:
            continue
        key = " ".join(res.job.argv)
        seen = store["digests"].setdefault(key, res.output.digest)
        if seen != res.output.digest:
            mismatched.append(res.job.index)
    path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return mismatched


def _environment() -> dict:
    import numpy
    import scipy
    return {"host": platform.node(), "platform": platform.platform(),
            "nproc": NPROC, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "siqm_source_sha256": _source_hash()}


# ----------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(BENCH))
    if args.setup_probe:
        return _setup_probe(args)
    cli = _import_siqm()
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cli, workdir: Path) -> int:
    import tracing
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = bool(args.trace)
    setup = [] if traced else _measure_setup(args)
    jobs = _jobs(args)
    selfcheck = _selfcheck(cli, workdir) if traced else None
    if not traced:
        _warm_up(cli, args.workload, workdir)

    tracer = tracing.Tracer()

    def run_traced(job):
        with tracing.instrument(tracer):
            res = run_job(cli, job, workdir / "job")
        res.layers = _layer_counts(tracer.take_job())
        if res.output is not None:
            res.layers["cli.bytes_written"] += res.output.bytes_written
        return res

    results, traced_results = [], []
    for job in jobs:
        # alternate which execution goes first, so warm-state effects cancel
        if traced and job.index % 2:
            traced_results.append(run_traced(job))
        results.append(run_job(cli, job, workdir / "job"))
        if traced and not job.index % 2:
            traced_results.append(run_traced(job))
    rounds = len({job.round for job in jobs})

    attempted = len(results)
    failures = Counter(f for f in (r.failure for r in results) if f)
    failed = sum(failures.values())
    fail_frac = failed / attempted
    walls = [r.wall_s for r in results]
    job_p50_s = statistics.median(walls)
    wrong = [r for r in results + traced_results if r.output is not None and r.output.problems]
    mismatched = _check_digests(args.workload, args.seed, results + traced_results)
    correct = not wrong and not mismatched and (not traced or selfcheck["pass"])

    if traced:
        totals = sum((r.layers for r in traced_results), Counter())
        metrics = _per_layer(spec["per_layer"], totals, rounds, sum(walls),
                             sum(r.wall_s for r in traced_results))
    else:
        values = {"setup_s": statistics.median(setup),
                  "jobs_per_s": (attempted - failed) / sum(walls),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(), "rounds": rounds,
              "attempted": attempted, "failed": failed,
              "job_p50_s": job_p50_s, "fail_frac": fail_frac,
              "fail_breakdown": dict(sorted(failures.items())),
              "wrong_outputs": [r.record() for r in wrong],
              "digest_mismatches": mismatched, "setup_probes_s": setup,
              "selfcheck": selfcheck, "metrics": metrics,
              "jobs": [r.record() for r in results],
              "traced_jobs": [r.record() for r in traced_results]}
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} jobs")
    print(f"job_p50_s {job_p50_s:.6g} s (median of {len(walls)} job wall times)")
    print(f"fail_frac {fail_frac:.4f} 1 ({failed} of {attempted}"
          + "".join(f"; {k} x{n}" for k, n in sorted(failures.items())) + ")")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if wrong or mismatched:
        print(f"wrong outputs in jobs {[r.job.index for r in wrong]}; "
              f"digest mismatches in jobs {mismatched}")
    if traced and not selfcheck["pass"]:
        print(f"tracer self-check failed: {selfcheck['problems']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
