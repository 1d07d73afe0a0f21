"""Benchmark of the ``groupfair`` CLI on seeded workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload picking --seed 1 --seconds 40 --trace 0

Workloads are ``picking``, ``oracle`` and ``audit`` (see ``workloads.py``).
The load is a closed loop with one client: each job is a fresh
``python -m groupfair.cli`` process with ``PYTHONPATH=<checkout>/src``, and
the next starts only after it exits.  A run repeats passes over the job
list until ``--seconds`` is used up (at least three).  Times are scaled to a
reference host speed measured around each job (see ``speed.py``); see
:func:`end_to_end` for how passes are summarised.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` also runs
every job in-process through ``cli.main``, untraced and then with spans
around each module's public functions, and reports the per-layer metrics.
Spans, per-pass figures and the run's context are written under
``bench/_work/``.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import metrics
import spans as sp
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

CLI = ("-m", "groupfair.cli")
PROBE = (*CLI, "--help")
PROBES_PER_PASS = 3
#: Passes per run at least, untraced and traced.
MIN_PASSES = {0: 3, 1: 2}
#: No new pass starts after this many seconds, so a much slower program
#: still finishes within the harness's time limit.
HARD_STOP_S = 120.0


class SetupError(Exception):
    """The checkout cannot be benchmarked (exit code 2)."""


def import_working_tree():
    """Import ``groupfair`` from the checkout's ``src/`` and prove it."""
    if not (SRC / "groupfair" / "__init__.py").is_file():
        raise SetupError(f"no groupfair sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import groupfair

    if not Path(groupfair.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported groupfair from {groupfair.__file__}, not {SRC}")


def child_env() -> dict:
    # Jobs run single-threaded.  Otherwise numpy's OpenBLAS starts a worker
    # thread at import that spins for a while: with a second CPU free the
    # spin shows only in CPU time, with it busy it also adds to wall time,
    # so start-up-bound wall times would swing with the host's other load.
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(args: tuple, env: dict, tag: str = "child") -> Child:
    """Run ``python <args>`` to completion; time it and read its rusage."""
    out_path, err_path = WORK / f"{tag}.stdout", WORK / f"{tag}.stderr"
    fds = [os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
           for p in (out_path, err_path)]
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *args], env,
            file_actions=[(os.POSIX_SPAWN_DUP2, fds[0], 1),
                          (os.POSIX_SPAWN_DUP2, fds[1], 2)],
        )
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: leave no child behind
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    finally:
        for fd in fds:
            os.close(fd)
    return Child(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def check_subprocess_tree(env: dict):
    """The CLI children must import the same working tree."""
    child = spawn(("-c", "import groupfair; print(groupfair.__file__)"), env)
    path = Path(child.stdout.decode().strip())
    if child.code != 0 or not path.resolve().is_relative_to(SRC):
        raise SetupError(f"CLI children do not import groupfair from {SRC}: "
                         f"{(child.stdout or child.stderr).decode()[-300:]}")


# ---------------------------------------------------------------------------
# output checks


class Verifier:
    """Checks every job's output: the full check on its first output, the
    pinned digest where one applies, and byte-identical repeats."""

    def __init__(self, check, workload: str, seed: int, pinned: dict):
        self.check = check
        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.first: dict = {}
        self.cache: dict = {}
        self.problems: list = []

    def __call__(self, job, code: int, stdout: bytes, stderr: bytes) -> bool:
        problem = None
        digest = hashlib.sha256(stdout).hexdigest()
        if code != 0:
            problem = f"exit code {code}: {stderr.decode(errors='replace')[-300:]}"
        elif (self.seed == self.pinned["seed"] or job.fixed) and (
            self.pinned["workloads"][self.workload].get(job.id) != digest
        ):
            problem = "stdout differs from the pinned digest"
        elif job.id in self.first:
            first_digest, problem = self.first[job.id]
            if first_digest != digest:
                problem = "stdout differs from the job's first output"
        else:
            try:
                self.check(job, stdout, self.cache)
            except Exception as exc:  # any malformed output is a failed job
                problem = f"{type(exc).__name__}: {exc}"
            self.first[job.id] = digest, problem
        if problem and f"{job.id}: {problem}" not in self.problems:
            self.problems.append(f"{job.id}: {problem}")
        return problem is None


# ---------------------------------------------------------------------------
# untraced run


def timed_pass(jobs, env: dict, verify: Verifier, tag: str) -> dict:
    """One pass: the start-up probes, then every job.  The host's slowdown
    (:mod:`speed`) is measured before the first and after each child."""
    argvs = [PROBE] * PROBES_PER_PASS + [(*CLI, *job.argv) for job in jobs]
    tags = [f"{tag}/probe"] * PROBES_PER_PASS + [f"{tag}/{job.id}" for job in jobs]
    slow, children = [speed.measure()], []
    for argv, child_tag in zip(argvs, tags):
        children.append(spawn(argv, env, child_tag))
        slow.append(speed.measure())
    samples = [{"wall_s": c.wall_s, "cpu_s": c.cpu_s, "rss_mb": c.rss_mb,
                "slow": speed.between(before, after)}
               for c, before, after in zip(children, slow, slow[1:])]
    probes, children = children[:PROBES_PER_PASS], children[PROBES_PER_PASS:]
    for probe in probes:
        if probe.code != 0:
            verify.problems.append(f"start-up probe exited {probe.code}")
    failed = sum(
        not verify(job, c.code, c.stdout, c.stderr) for job, c in zip(jobs, children)
    )
    return {
        "probes": samples[:PROBES_PER_PASS],
        "jobs": {job.id: sample for job, sample in zip(jobs, samples[PROBES_PER_PASS:])},
        "failed": failed,
    }


def end_to_end(rows: list, scaled: bool = True) -> dict:
    """The end-to-end metrics of a run.

    Other tenants of a shared host slow every process, for stretches
    longer than a run, so each time is first divided by the host's
    slowdown measured around it (wall by wall, CPU by CPU; see
    :mod:`speed`).  Wall and CPU time are then the sum over jobs of each
    job's median over the passes, start-up the median of all probes, and
    memory the largest job's median.  ``scaled=False`` gives the same
    summary of the raw times.
    """
    def time_of(sample, key, axis):
        return sample[key] / sample["slow"][axis] if scaled else sample[key]

    def per_job(key, axis=None):
        return [statistics.median(row["jobs"][job][key] if axis is None
                                  else time_of(row["jobs"][job], key, axis)
                                  for row in rows)
                for job in rows[0]["jobs"]]

    return {
        "wall_s": sum(per_job("wall_s", 0)),
        "cpu_s": sum(per_job("cpu_s", 1)),
        "setup_s": statistics.median(time_of(p, "wall_s", 0)
                                     for row in rows for p in row["probes"]),
        "peak_rss_mb": max(per_job("rss_mb")),
    }


def repeat(one_pass, seconds: float, min_passes: int) -> list:
    """Run passes until the next one would overrun ``seconds``."""
    rows = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rows.append(one_pass(len(rows)))
        now = time.perf_counter()
        elapsed, last = now - start, now - began
        if elapsed >= HARD_STOP_S:
            return rows
        if len(rows) >= min_passes and elapsed + last > seconds:
            return rows


# ---------------------------------------------------------------------------
# traced run


def clear_caches():
    """Empty the package's memo caches, so an in-process job starts as
    cold as a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "groupfair" or name.startswith("groupfair."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def in_process(main, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    clear_caches()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(list(argv))
        wall = time.perf_counter() - start
    return code, out.getvalue().encode(), wall


def import_times(env: dict) -> dict:
    """Fresh-interpreter import costs, each the median of three children."""
    timer = ("-c", "import time; t = time.perf_counter(); import groupfair.cli; "
                   "print(time.perf_counter() - t)")
    cli_s = statistics.median(float(spawn(timer, env).stdout) for _ in range(3))
    rows = []
    for _ in range(3):
        child = spawn(("-X", "importtime", "-c", "import groupfair.cli"), env)
        cumulative = {}
        for line in child.stderr.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        if "groupfair.budgets" not in cumulative:
            raise SetupError("-X importtime shows no groupfair.budgets import")
        # numpy absent from the import means it costs start-up nothing
        rows.append({"budgets.import_s": cumulative["groupfair.budgets"],
                     "cli.numpy_import_s": cumulative.get("numpy", 0.0)})
    out = {"cli.import_s": cli_s}
    for key in rows[0]:
        out[key] = statistics.median(row[key] for row in rows)
    return out


def traced_run(jobs, env: dict, verify: Verifier, seconds: float, tag: str) -> list:
    from groupfair import budgets, cli

    recorder = sp.Recorder()
    builds = []
    for _ in range(3):
        start = time.perf_counter()
        budgets.BudgetTable(64)
        end = time.perf_counter()
        recorder.record("budgets.BudgetTable", start, end)
        builds.append(end - start)
    fixed = {"budgets.table_build_s": statistics.median(builds), **import_times(env)}

    def one_pass(index: int) -> dict:
        children = [spawn((*CLI, *job.argv), env, f"{tag}/{job.id}") for job in jobs]
        failed = sum(
            not verify(job, c.code, c.stdout, c.stderr) for job, c in zip(jobs, children)
        )
        plain = [in_process(cli.main, job.argv) for job in jobs]
        first_span = len(recorder.spans)
        recorder.install()
        try:
            traced = []
            for job in jobs:
                recorder.job = f"pass{index}:{job.id}"
                traced.append(in_process(cli.main, job.argv))
                recorder.count()
        finally:
            recorder.uninstall()
            recorder.job = "setup"
        for job, child, a, b in zip(jobs, children, plain, traced):
            if (a[0], a[1]) != (child.code, child.stdout) or (b[0], b[1]) != (a[0], a[1]):
                verify.problems.append(f"{job.id}: in-process output differs")
            missing = sp.missing_spans(recorder.spans[first_span:],
                                       f"pass{index}:{job.id}", job.spans)
            if missing:
                raise SetupError(f"job {job.id} recorded no span for {missing}")
        sp.assign_self_times(recorder.spans)
        batch = recorder.spans[first_span:]
        sp.check_accounting(batch)
        row = sp.layer_metrics(batch)
        row["cli.stdout_bytes"] = sum(len(c.stdout) for c in children)
        row["failed"] = failed
        row["jobs"] = {job.id: {"child_s": c.wall_s, "main_s": a[2], "traced_main_s": b[2]}
                       for job, c, a, b in zip(jobs, children, plain, traced)}
        return {**fixed, **row}

    rows = repeat(one_pass, seconds, MIN_PASSES[1])
    # Differences of two noisy times: take each job's fastest pass of each.
    fastest = {key: sum(min(row["jobs"][job][key] for row in rows) for job in rows[0]["jobs"])
               for key in ("child_s", "main_s", "traced_main_s")}
    for row in rows:
        row["cli.startup_s"] = fastest["child_s"] - fastest["main_s"]
        row["trace.overhead_s"] = fastest["traced_main_s"] - fastest["main_s"]
    dump = {
        "accounting": sp.check_accounting(recorder.spans),
        "spans": [asdict(s) for s in recorder.spans],
    }
    (WORK / f"spans-{tag}.json").write_text(json.dumps(dump))
    return rows


# ---------------------------------------------------------------------------
# result


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload: str, seed: int, trace: int, samples: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": git_commit(),
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("picking", "oracle", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        os.environ.update(child_env())  # in-process jobs run as the children do
        import_working_tree()
        os.chdir(ROOT)
        import workloads

        tag = f"{args.workload}-s{args.seed}"
        jobs = workloads.build(args.workload, args.seed, (WORK / tag).relative_to(ROOT))
        env = child_env()
        check_subprocess_tree(env)
        spawn(PROBE, env, "probe")  # writes the bytecode caches before timing
        verify = Verifier(workloads.check_output, args.workload, args.seed,
                          json.loads(DIGESTS.read_text()))
        if args.trace:
            rows = traced_run(jobs, env, verify, args.seconds, tag)
            table = [(n, u) for n, u, _, _ in metrics.PER_LAYER]
        else:
            rows = repeat(lambda _: timed_pass(jobs, env, verify, tag), args.seconds,
                          MIN_PASSES[0])
            table = [(n, u) for n, u, _ in metrics.END_TO_END]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = len(jobs) * len(rows)
    failed = sum(row["failed"] for row in rows)
    samples = {name: len(rows) for name, _ in table}
    if args.trace:
        values = {name: statistics.median(row[name] for row in rows) for name, _ in table}
    else:
        values = end_to_end(rows)
        samples["setup_s"] *= PROBES_PER_PASS
    ctx = context(args.workload, args.seed, args.trace, samples)
    for problem in verify.problems:
        print(f"FAILED {problem}")
    print("context " + json.dumps(ctx, sort_keys=True))
    for name, unit in table:
        print(f"{name} = {values[name]!r} {unit} ({samples[name]} samples)")
    if not args.trace:
        raw = end_to_end(rows, scaled=False)
        print("unscaled " + " ".join(f"{name}={raw[name]!r}" for name, _ in table))
    fail_name, fail_unit = metrics.FAIL_RATIO
    print(f"{fail_name} = {failed / attempted!r} {fail_unit} ({failed} of {attempted} jobs)")
    result = {
        "correct": not verify.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    (WORK / f"result-{tag}-t{args.trace}.json").write_text(
        json.dumps({**result, "context": ctx, "passes": rows}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
