"""Benchmark worker: one process that imports photonsim, writes its seeded
inputs, warms up with one op of each kind and then, on request, runs the
closed loop in-process through ``photonsim.cli.main(argv)``.

It talks to ``run.py`` over its standard streams: it prints
``PERFBENCH ready {...}`` once set up, reads one line (``run`` or ``exit``)
and, after a run, prints ``PERFBENCH result {...}``.  With ``--pauses N`` it
stops N times, evenly spread over the loop's op time, prints
``PERFBENCH pause {}`` and waits for a line, while ``run.py`` times one fresh
CLI process; the pauses are not op time.  Everything else the program prints
goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _emit(stream, tag: str, payload: dict) -> None:
    stream.write(f"PERFBENCH {tag} {json.dumps(payload)}\n")
    stream.flush()


class Loop:
    """Runs ops one after another; each op's latency excludes input writing
    and the output check, which run before and after the timer."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.failures: list[str] = []
        self.attempted = 0
        self.out_bytes: dict[str, list[int]] = {}
        self.laser_on = 0
        self.laser_repeats = 0

    def one(self, kind: str, index: int) -> float:
        op = self.workload.op(kind, index)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed op, not a benchmark crash
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        problem = op.check(rc) if isinstance(rc, int) else rc
        self.attempted += 1
        if problem:
            self.failures.append(f"{kind}#{index}: {problem} {err.getvalue().strip()[:200]}")
        if os.path.exists(op.out):
            self.out_bytes.setdefault(kind, []).append(os.path.getsize(op.out))
        self.laser_on += op.laser_on
        self.laser_repeats += op.laser_repeats
        return dt

    def timed(self, seconds: float, first_index: int, pauses: int = 0,
              pause=None) -> tuple[list[float], int]:
        """Whole rounds over the kinds until ``seconds`` of op time is spent,
        so every kind gets the same number of ops.  ``pause()`` is called
        ``pauses`` times, between rounds, at evenly spaced op times."""
        latencies: list[float] = []
        index = first_index
        spent = 0.0
        done = 0
        while spent < seconds:
            for kind in self.workload.kinds:
                latencies.append(self.one(kind, index))
                spent += latencies[-1]
            index += 1
            while done < pauses and spent >= seconds * (done + 1) / (pauses + 1):
                pause()
                done += 1
        return latencies, index


def scenario_properties() -> dict:
    """Basis size, laser_on steps and repeated coupling sets of each
    built-in scenario, read from the scenario definitions."""
    from photonsim import halted_light_scenario, lambda_scenario, one_photon_dissociation_scenario

    props = {}
    for name, build in (("lambda", lambda_scenario), ("halted_light", halted_light_scenario),
                        ("one_photon", one_photon_dissociation_scenario)):
        scn = build()
        sets = [s.params["couplings"] for s in scn.steps if s.kind == "laser_on"]
        props[name] = {"basis_size": len(scn.basis), "laser_on": len(sets),
                       "laser_repeats": sum(c in sets[:k] for k, c in enumerate(sets))}
    return props


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--pauses", type=int, default=0)
    args = ap.parse_args()

    proto = sys.stdout
    sys.stdout = sys.stderr

    t0 = time.perf_counter()
    import photonsim.cli as cli
    import_s = time.perf_counter() - t0
    src = os.path.join(ROOT, "src", "photonsim")
    if os.path.dirname(os.path.abspath(cli.__file__)) != src:
        print(f"perfbench: photonsim imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from tracer import Tracer

    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed, args.workdir)
    loop = Loop(cli, workload)
    for kind in workload.kinds:
        loop.one(kind, 0)
    _emit(proto, "ready", {"import_s": import_s, "attempted": loop.attempted,
                           "failures": loop.failures})

    if sys.stdin.readline().strip() != "run":
        return 0
    result: dict = {"import_s": import_s}
    if args.trace:
        half = args.seconds / 2.0
        untraced, index = loop.timed(half, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = loop.timed(half, index)
        finally:
            tracer.uninstall()
        result["untraced_ops_per_s"] = len(untraced) / sum(untraced)
        result["traced_ops_per_s"] = len(traced) / sum(traced)
        result["traced_ops"] = len(traced)
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        latencies = untraced
    else:
        def pause():
            _emit(proto, "pause", {})
            sys.stdin.readline()

        latencies, _ = loop.timed(args.seconds, 1, args.pauses, pause)
    properties = dict(workload.properties)
    if args.workload == "scenarios":
        properties["scenarios"] = scenario_properties()
    properties["ops_per_kind"] = len(latencies) // len(workload.kinds)
    properties["mean_output_bytes"] = {k: round(sum(v) / len(v)) for k, v in loop.out_bytes.items()}
    if loop.laser_on:
        properties["laser_on_per_op"] = loop.laser_on / loop.attempted
        properties["laser_repeat_share"] = loop.laser_repeats / loop.laser_on
    result.update(latencies=latencies, kinds=list(workload.kinds), attempted=loop.attempted,
                  failures=loop.failures, properties=properties)
    _emit(proto, "result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
