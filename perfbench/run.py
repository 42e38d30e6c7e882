#!/usr/bin/env python3
"""photonsim benchmark: replays a seeded workload through the public CLI
entry point and prints end-to-end metrics, or per-layer metrics with
``--trace 1``.

    python3 perfbench/run.py --workload drive_sweep --seed 1 --seconds 35 --trace 0

Run from any directory of a checkout that holds ``src/photonsim``.  With
``--trace 0`` it sets the worker up several times (``setup_s`` is the
median), runs the closed loop in the last worker (one client, in-process,
single-threaded BLAS) and, in pauses spread over the loop, times fresh
``python -m photonsim.cli`` processes; ``peak_rss_mb`` is the loop worker's
own peak RSS from ``wait4``.  With ``--trace 1`` one worker runs half the time
untraced and half traced, and the per-layer metrics come from the traced
half.  Every op's output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 3  # set-ups per run; setup_s is their median
CLI_ROUNDS = 3  # fresh CLI processes per op kind
# op_tail_ms percentile per workload: at the seed commit each leaves at least
# twice TAIL_BEYOND samples beyond it in a run, and it stays fixed when the
# program gets faster, so runs of different commits stay comparable.
TAIL_PERCENTILE = {"scenarios": 99.0, "drive_sweep": 75.0, "basis_listing": 90.0}
TAIL_BEYOND = 10
TIME_LIMIT_S = 170.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: the loop is a single-threaded client, and one thread
    # is at or below the CPU count of any machine it runs on.
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Worker:
    def __init__(self, args, workdir: str, deadline: float, pauses: int = 0):
        self.deadline = deadline
        self.peak_rss_mb = 0.0
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", workdir, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--pauses", str(pauses)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.ready = self.read("ready")[1]
        self.setup_s = time.perf_counter() - t0

    def read(self, *tags: str) -> tuple[str, dict]:
        while True:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
                raise BenchError(f"worker gave no {tags} line in time")
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(f"worker exited with code {self.proc.wait()} before {tags}")
            for tag in tags:
                if line.startswith(f"PERFBENCH {tag} "):
                    return tag, json.loads(line[len(f"PERFBENCH {tag} "):])

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self, command: str, on_pause=None) -> dict | None:
        """Send ``run`` (calling ``on_pause`` at each pause) or ``exit``, then
        reap the worker and keep its peak RSS (``wait4``: this child only)."""
        self.send(command)
        result = None
        while command == "run" and result is None:
            tag, payload = self.read("pause", "result")
            if tag == "pause":
                on_pause()
                self.send("go")
            else:
                result = payload
        self.proc.stdin.close()
        self.proc.stdout.close()
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                raise BenchError("worker did not exit in time")
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return result

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def tail(latencies: list[float], percentile: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the workload's percentile,
    nearest rank; if that leaves fewer than TAIL_BEYOND samples beyond it,
    the highest percentile that leaves TAIL_BEYOND."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = min(max(0, math.ceil(percentile / 100.0 * n) - 1), max(0, n - TAIL_BEYOND - 1))
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


class CliTimer:
    """Times fresh ``python -m photonsim.cli`` processes, CLI_ROUNDS per op
    kind, one per ``run_next()`` call, and checks their outputs."""

    def __init__(self, workload, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.pending = [(kind, r) for r in range(CLI_ROUNDS) for kind in workload.kinds]
        self.walls: list[float] = []
        self.failures: list[str] = []

    def run_next(self) -> None:
        kind, r = self.pending.pop(0)
        op = self.workload.op(kind, r)
        cmd = [sys.executable, "-m", "photonsim.cli", *op.argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        self.walls.append(time.perf_counter() - t0)
        problem = op.check(proc.returncode)
        if problem:
            self.failures.append(f"cli {kind}#{r}: {problem} {proc.stderr.strip()[:200]}")


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "blas_threads": int(child_env()[THREAD_VARS[0]]),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def run(args) -> tuple[dict, int, list[str], dict]:
    """Returns (metrics, attempted, failures, record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    workers: list[Worker] = []
    try:
        if args.trace:
            workers.append(Worker(args, os.path.join(workdir, "w0"), deadline))
            res = workers[-1].finish("run")
            metrics = {name: tuple(value) for name, value in res["layers"].items()}
            metrics["import.photonsim_s"] = (res["import_s"], "s")
            metrics["trace.ops"] = (res["traced_ops"], "count")
            metrics["trace.ops_per_s_traced"] = (res["traced_ops_per_s"], "1/s")
            metrics["trace.ops_per_s_untraced"] = (res["untraced_ops_per_s"], "1/s")
            record = {"absent": res["absent"], "inputs": res["properties"]}
            return metrics, res["attempted"], res["failures"], record

        cli_dir = os.path.join(workdir, "cli")
        os.makedirs(cli_dir)
        cli = CliTimer(workloads.make_workload(args.workload, args.seed, cli_dir), deadline)
        n_cli = len(cli.pending)
        attempted, failures, setups = n_cli, [], []
        for r in range(SETUP_RUNS):
            workers.append(Worker(args, os.path.join(workdir, f"w{r}"), deadline, n_cli))
            setups.append(workers[-1].setup_s)
            if r < SETUP_RUNS - 1:
                workers[-1].finish("exit")
                attempted += workers[-1].ready["attempted"]
                failures += workers[-1].ready["failures"]
        # The CLI processes run in the loop's pauses, spread over its whole
        # time, so they see the same machine conditions as the loop.
        res = workers[-1].finish("run", on_pause=cli.run_next)
        peak_rss_mb = workers[-1].peak_rss_mb
        while cli.pending:
            cli.run_next()
        walls = cli.walls
        attempted += res["attempted"]
        failures += res["failures"] + cli.failures

        lat = res["latencies"]
        tail_s, tail_pct, beyond = tail(lat, TAIL_PERCENTILE[args.workload])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "cli_wall_ms": (statistics.median(walls) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "ops_per_s": f"{len(lat)} ops in {sum(lat):.2f} s of op time",
            "op_tail_ms": f"p{tail_pct:.4g} of {len(lat)} ops, {beyond} beyond",
            "cli_wall_ms": f"median of {len(walls)} processes",
        }
        kinds = res["kinds"]
        per_kind = {k: round(statistics.median(lat[i::len(kinds)]) * 1e3, 4) for i, k in enumerate(kinds)}
        record = {"notes": notes, "inputs": res["properties"], "op_p50_ms_per_kind": per_kind,
                  "import_s": res["import_s"], "setups_s": setups, "cli_walls_s": walls}
        return metrics, attempted, failures, record
    finally:
        for w in workers:
            w.kill()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "photonsim", "__init__.py")):
        print(f"perfbench: no photonsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    try:
        metrics, attempted, failures, record = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    notes = record.get("notes", {})
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{note}")
    print(f"  {'failed_frac':<34} {len(failures) / attempted:>14.6g} ratio"
          f"  ({len(failures)} of {attempted} ops)")
    for msg in failures[:10]:
        print(f"  FAILED {msg}")
    record["environment"] = environment()
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
