"""Self-test of the benchmark: quick runs, output checks, seeded inputs and
the tracer.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Loop  # noqa: E402

import photonsim.cli as cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

QUICK_SECONDS = "0.5"

# SHA-256 of the program's outputs for seed 1, recorded when the benchmark
# was written; they pin the reference models that the checks compare with.
LISTING_DIGESTS = {
    "basis_768": "4b3e584836688cd294866b3a536bbff95466d4027e8baca67ac7f0162ed410ac",
    "basis_1280": "84f036e9d31ec4d34b39b79109351934ad999426a28be95c211d41678ce376af",
    "basis_4320": "cce73b99f8fcb77247600a40505417205642f13f74c9c51e89d340086b2f681c",
    "run_4320": "4caf57e56d82816e89198e96179f9b751a19ace183cb0111b019ca21e3f27aa8",
}


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", QUICK_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def run_op(op):
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(op.argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert f" {name} " in table and f" {unit}" in table
    failed_line = next(line for line in lines if line.split()[:1] == ["failed_frac"])
    assert float(failed_line.split()[1]) == 0.0


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench("scenarios", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.absent"]["value"] == 0
    assert result["metrics"]["cli.main.calls"]["value"] == result["metrics"]["trace.ops"]["value"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("scenarios", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def corrupt(text):
    """Negate the last large amplitude of a trace CSV or the last secular
    eigenvalue, or swap a guise in a basis listing."""
    if text.startswith("{"):
        k = text.rindex("product")
        return text[:k] + "entangled" + text[k + len("product"):]
    lines = text.split("\n")
    if lines[0].startswith("eigenvalues:"):
        values = lines[0].split()
        values[-1] = str(-float(values[-1]))
        return "\n".join([" ".join(values)] + lines[1:])
    for k in range(len(lines) - 1, 0, -1):
        fields = lines[k].split(",")
        if fields[0] == "amp" and abs(float(fields[4])) > 1e-3:
            fields[4] = str(-float(fields[4]))
            lines[k] = ",".join(fields)
            return "\n".join(lines)
    raise AssertionError("no amplitude to corrupt")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_pass_their_checks_and_corruption_counts_as_failure(workload, tmp_path):
    wl = workloads.make_workload(workload, 1, str(tmp_path))
    for kind in wl.kinds:
        op = wl.op(kind, 0)
        assert run_op(op) == 0
        assert op.check(0) is None, kind
        assert op.check(1) is not None  # wrong exit code

    class CorruptingCli:
        """Runs the real CLI, then flips the sign of one number in the output."""

        @staticmethod
        def main(argv):
            rc = cli.main(argv)
            path = argv[argv.index("--out") + 1]
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(corrupt(text))
            return rc

    loop = Loop(CorruptingCli, wl)
    for kind in wl.kinds:
        loop.one(kind, 1)
    assert loop.attempted == len(wl.kinds)
    assert len(loop.failures) == len(wl.kinds), loop.failures


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    def inputs(seed, sub):
        wl = workloads.make_workload(workload, seed, str(tmp_path / sub))
        ops = [wl.op(kind, i) for i in range(3) for kind in wl.kinds]
        files = {}
        for op in ops:  # ops may rewrite the same file; read each as written
            for arg in op.argv:
                if arg.endswith(".json"):
                    with open(arg, "rb") as fh:
                        files[(op.kind, os.path.basename(arg), len(files))] = fh.read()
        return files

    files = {}
    for sub in ("a", "b"):
        os.makedirs(tmp_path / sub)
    files["a"], files["b"] = inputs(7, "a"), inputs(7, "b")
    assert files["a"] == files["b"]
    os.makedirs(tmp_path / "c")
    if workload != "scenarios":  # the built-in scenario references carry no seed
        assert inputs(8, "c") != files["a"]


def test_listing_references_match_digests_recorded_at_seed(tmp_path):
    wl = workloads.make_workload("basis_listing", 1, str(tmp_path))
    for kind, digest in LISTING_DIGESTS.items():
        op = wl.op(kind, 0)
        assert run_op(op) == 0
        with open(op.out, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, kind


def test_block_reference_equals_dense_eigh():
    rng = np.random.default_rng(0)
    cfg = workloads.basis_config(rng, n_levels=3, n_modes=2, n_max=1)
    model = workloads.basis_model(cfg)
    steps = workloads.drive_steps(rng, len(model), ["x"])
    amps = np.zeros(len(model), dtype=np.complex128)
    amps[steps[0]["params"]["element"]] = 1.0
    for step in steps:
        if step["kind"] != "laser_on":
            continue
        p = step["params"]
        h = np.diag(model.levels).astype(np.complex128)
        for i, j, re, im in p["couplings"]:
            h[i, j], h[j, i] = complex(re, im), complex(re, -im)
        w, v = np.linalg.eigh(h)
        dense = v @ (np.exp(-1j * w * p["duration"]) * (v.conj().T @ amps))
        block = workloads.propagate_reference(model.levels, amps, p["couplings"], p["duration"])
        assert np.max(np.abs(dense - block)) < 1e-12
        amps = dense


def test_tracer_wraps_every_binding_and_restores_them():
    import photonsim._kernels as kernels
    import photonsim.dynamics as dynamics

    original = kernels.jacobi_eigh
    t = tracer.Tracer()
    t.install()
    try:
        assert dynamics.jacobi_eigh is kernels.jacobi_eigh is not original
        assert all(getattr(f, "__wrapped__", None) for f in cli._SCENARIOS.values())
    finally:
        t.uninstall()
    assert dynamics.jacobi_eigh is kernels.jacobi_eigh is original
    assert not any(hasattr(f, "__wrapped__") for f in cli._SCENARIOS.values())


def test_missing_traced_function_is_reported_absent(tmp_path):
    targets = tracer.TARGETS + (
        ("kernels.gone", "photonsim._kernels", "no_such_function", None, None),
        ("gone.f", "photonsim.no_such_module", "f", "n3", None),
    )
    t = tracer.Tracer(targets)
    t.install()
    try:
        wl = workloads.make_workload("scenarios", 1, str(tmp_path))
        assert run_op(wl.op("lambda", 0)) == 0
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["trace.absent"][0] == 2
    assert m["kernels.gone.calls"][0] == 0 and m["gone.f.n3"][0] == 0
    assert m["cli.main.calls"][0] == 1 and m["kernels.jacobi_eigh.calls"][0] > 0
    assert sorted(t.absent) == ["photonsim._kernels.no_such_function", "photonsim.no_such_module.f"]
