"""Seeded inputs, operations and output checks for the three workloads.

This module never imports photonsim: the benchmark hands the program only
the JSON files written here, and every check compares the program's output
with a reference computed here or stored under ``reference/``, none of which
uses the program's eigensolver.

Workloads (why each was chosen is in README.md):

- ``scenarios``: round-robin over the built-in ``lambda``, ``halted_light``
  and ``one_photon`` scenarios (default parameters, built-in template check)
  and ``secular`` on a seeded 4x4 model.
- ``drive_sweep``: explicit ``run`` scripts over enumerated two-partite bases
  of 192, 432 and 768 elements; each script prepares one element, applies
  three seeded coupling sets twice each, waits and erases.
- ``basis_listing``: ``basis`` listings of 768, 1,280 and 4,320 elements and
  one ``run`` over the 4,320-element basis with only prepare, induce, wait
  and erase steps.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("scenarios", "drive_sweep", "basis_listing")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Amplitudes are printed with 12 significant digits.  A different but correct
# eigensolver moves them by about 1e-12 (measured with np.linalg.eigh), so a
# change beyond these tolerances is a wrong result, not rounding.
SCENARIO_TOL = 1e-9
DRIVE_TOL = 1e-9
SECULAR_TOL = 1e-9

_GUISES = ("product", "entangled")
_MODE_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
_AXES = ([1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1])


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *stream])


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


# --------------------------------------------------------------------------
# Reference model of an enumerated basis (canonical order, levels, listing)


def basis_config(rng: np.random.Generator, n_levels: int, n_modes: int, n_max: int) -> dict:
    """Registry config whose basis has (L + L^2) * (2 (n_max+1))^modes
    elements: one single-block and one two-block partition of two
    constituents.  Level sub-indices, mode ids and energies are seeded."""
    ks = rng.integers(0, 4, size=n_levels)
    levels = [{"j": j, "k": int(ks[j]),
               "energy": 0.0 if j == 0 else round(float(j + rng.uniform(-0.3, 0.3)), 6)}
              for j in range(n_levels)]
    names = rng.permutation(len(_MODE_NAMES))[:n_modes]
    modes = [{"id": f"w{_MODE_NAMES[k]}{int(rng.integers(10, 100))}",
              "omega": round(float(rng.uniform(0.3, 1.2)), 6),
              "dir": _AXES[int(rng.integers(len(_AXES)))]}
             for k in names]
    return {
        "levels": levels,
        "modes": modes,
        "partitions": [{"id": "P1", "blocks": [[1, 2]]}, {"id": "P2", "blocks": [[1], [2]]}],
        "n_max": n_max,
    }


@dataclass(frozen=True)
class BasisModel:
    """Canonically ordered elements of an enumerated basis, computed without
    photonsim: ``rows`` are the JSON listing rows and ``levels`` the
    diagonal of the drive Hamiltonian, both in basis-index order."""

    rows: list
    levels: np.ndarray
    metadata: dict

    def __len__(self):
        return len(self.rows)

    def listing(self) -> str:
        return json.dumps({"metadata": self.metadata, "elements": self.rows},
                          sort_keys=True, separators=(",", ":")) + "\n"


def basis_model(cfg: dict) -> BasisModel:
    levels = sorted(((lv["j"], lv["k"]), float(lv["energy"])) for lv in cfg["levels"])
    modes = sorted((m["id"], float(m["omega"])) for m in cfg["modes"])
    n_max = cfg["n_max"]
    elements = []
    for part in cfg["partitions"]:
        for assignment in itertools.product(levels, repeat=len(part["blocks"])):
            keys = tuple(key for key, _ in assignment)
            en = sum(energy for _, energy in assignment)
            for occs in itertools.product(range(n_max + 1), repeat=len(modes)):
                photon = sum(n * omega for n, (_, omega) in zip(occs, modes))
                for guises in itertools.product(range(2), repeat=len(modes)):
                    sort_key = (part["id"], keys,
                                tuple(sorted((m, -n, g) for (m, _), n, g in zip(modes, occs, guises))))
                    elements.append((sort_key, occs, guises, en + photon))
    elements.sort(key=lambda e: e[0])
    rows = []
    for i, ((pid, keys, _), occs, guises, _) in enumerate(elements):
        rows.append([i, pid, [list(k) for k in keys],
                     sorted([m, n] for (m, _), n in zip(modes, occs)),
                     sorted([m, _GUISES[g]] for (m, _), g in zip(modes, guises)),
                     0])
    metadata = {"modes": [m for m, _ in modes], "n_max": n_max,
                "partitions": sorted(p["id"] for p in cfg["partitions"])}
    return BasisModel(rows, np.array([e[3] for e in elements]), metadata)


# --------------------------------------------------------------------------
# Trace CSV parsing and references


def _g(x: float) -> str:
    return f"{x:.12g}"


def csv_rows(text: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("trace CSV does not end with a newline")
    return [line.split(",") for line in lines[1:-1]]


def final_amplitudes(text: str, n: int) -> np.ndarray:
    """Amplitudes of the last trace entry."""
    rows = [r for r in csv_rows(text) if r[0] == "amp"]
    last = rows[-n:]
    if len(last) != n or [int(r[3]) for r in last] != list(range(n)):
        raise ValueError("trace CSV does not end with a full amplitude block")
    return np.array([complex(float(r[4]), float(r[5])) for r in last])


def compare_csv(got: str, expected: str, tol: float) -> str | None:
    """Same rows and text fields; numeric fields within ``tol``."""
    a, b = csv_rows(got), csv_rows(expected)
    if len(a) != len(b):
        return f"{len(a)} rows, expected {len(b)}"
    for k, (ra, rb) in enumerate(zip(a, b)):
        if len(ra) != len(rb):
            return f"row {k + 1}: {len(ra)} fields, expected {len(rb)}"
        for fa, fb in zip(ra, rb):
            if fa == fb:
                continue
            try:
                if abs(float(fa) - float(fb)) <= tol:
                    continue
            except ValueError:
                pass
            return f"row {k + 1}: {fa!r} != {fb!r}"
    return None


def propagate_reference(levels: np.ndarray, amps: np.ndarray,
                        couplings: list, dt: float) -> np.ndarray:
    """exp(-i H dt) amps with np.linalg.eigh, for H = diag(levels) plus the
    drive couplings.  H is block diagonal over the connected components of
    the drive pairs, so each coupled block is solved on its own and every
    other element only picks up its diagonal phase; that is exactly the
    dense exponential, at a cost that keeps checks cheap."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _, _ in couplings:
        parent[find(i)] = find(j)
    out = amps * np.exp(-1j * levels * dt)
    blocks: dict[int, list[int]] = {}
    for x in list(parent):
        blocks.setdefault(find(x), []).append(x)
    for members in blocks.values():
        idx = sorted(members)
        pos = {g: k for k, g in enumerate(idx)}
        h = np.diag(levels[idx]).astype(np.complex128)
        for i, j, re, im in couplings:
            if i in pos:
                v = complex(re, im)
                h[pos[i], pos[j]] = v
                h[pos[j], pos[i]] = v.conjugate()
        w, v = np.linalg.eigh(h)
        out[idx] = v @ (np.exp(-1j * w * dt) * (v.conj().T @ amps[idx]))
    return out


# --------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One CLI invocation: ``argv`` for ``photonsim.cli.main`` and a check
    that returns None for a correct result or a one-line reason."""

    kind: str
    argv: list[str]
    out: str
    check: Callable[[int], str | None]
    laser_on: int = 0
    laser_repeats: int = 0


@dataclass
class Workload:
    kinds: tuple[str, ...]
    op: Callable[[str, int], Op]
    properties: dict = field(default_factory=dict)


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _exit_check(rc: int, out: str, body: Callable[[str], str | None]) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    text = _read(out)
    if text is None:
        return "no output file"
    try:
        return body(text)
    except (ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"


def _new_op(kind: str, argv: list[str], out: str, body: Callable[[str], str | None],
            laser_on: int = 0, laser_repeats: int = 0) -> Op:
    """An op whose check wants exit code 0 and an output that ``body``
    accepts.  The previous op's output is removed first, so a check never
    reads a stale file."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    return Op(kind, argv, out, lambda rc: _exit_check(rc, out, body), laser_on, laser_repeats)


SCENARIOS = ("lambda", "halted_light", "one_photon")


def secular_params(rng: np.random.Generator) -> dict:
    levels = [0.0] + [round(float(x), 6) for x in rng.uniform(6.0, 11.0, size=3)]
    couplings = [[i, j, round(float(rng.uniform(0.05, 0.4)), 6),
                  round(float(rng.uniform(-0.1, 0.1)), 6)]
                 for i, j in ((0, 1), (1, 2), (1, 3))]
    return {"levels": levels, "couplings": couplings,
            "anchor": round(levels[1] + float(rng.uniform(-0.2, 0.2)), 6),
            "threshold": 5.0}


def check_secular(text: str, params: dict) -> str | None:
    h = np.diag(np.array(params["levels"], dtype=np.complex128))
    for i, j, re, im in params["couplings"]:
        h[i, j] = complex(re, im)
        h[j, i] = complex(re, -im)
    ref = np.linalg.eigvalsh(h)
    lines = text.splitlines()
    if not lines[0].startswith("eigenvalues: "):
        return "no eigenvalue line"
    got = np.array([float(x) for x in lines[0].split()[1:]])
    if got.shape != ref.shape or np.max(np.abs(got - ref)) > SECULAR_TOL * max(1.0, np.max(np.abs(ref))):
        return f"eigenvalues {got.tolist()} != {ref.tolist()}"
    root = float(lines[1].split()[2])
    want = ref[int(np.argmin(np.abs(ref - params["anchor"])))]
    if abs(root - want) > SECULAR_TOL * max(1.0, abs(want)):
        return f"root {root} != {want}"
    return None


def _scenarios(seed: int, workdir: str) -> Workload:
    out = os.path.join(workdir, "out.txt")
    refs = {}
    scripts = {}
    for name in SCENARIOS:
        scripts[name] = os.path.join(workdir, f"{name}.json")
        _write_json(scripts[name], {"scenario": name})
        with open(os.path.join(REFERENCE_DIR, f"{name}.csv")) as fh:
            refs[name] = fh.read()

    def make_op(kind: str, index: int) -> Op:
        if kind == "secular":
            params = secular_params(_rng(seed, 1, index))
            path = os.path.join(workdir, "secular.json")
            _write_json(path, params)
            return _new_op(kind, ["secular", path, "--out", out], out,
                           lambda t: check_secular(t, params))
        ref = refs[kind]
        return _new_op(kind, ["run", scripts[kind], "--out", out], out,
                       lambda t: compare_csv(t, ref, SCENARIO_TOL))

    return Workload(SCENARIOS + ("secular",), make_op)


DRIVE_N_MAX = (1, 2, 3)  # 192, 432 and 768 elements


def drive_steps(rng: np.random.Generator, n: int, mode_ids: list[str]) -> list[dict]:
    """prepare, then three coupling sets of 1-3 drive pairs each applied
    twice in a seeded order with seeded durations, then wait and erase.
    Each set's first pair touches an element already reached, so amplitude
    spreads along the pulse train."""
    start = int(rng.integers(n))
    reached = [start]
    sets = []
    for _ in range(3):
        pairs: dict[frozenset, list] = {}
        for k in range(int(rng.integers(1, 4))):
            i = reached[int(rng.integers(len(reached)))] if k == 0 else int(rng.integers(n))
            j = int(rng.integers(n - 1))
            j += j >= i
            if frozenset((i, j)) in pairs:
                continue
            mag, phase = rng.uniform(0.1, 0.5), rng.uniform(0.0, 2.0 * math.pi)
            pairs[frozenset((i, j))] = [i, j, round(float(mag * math.cos(phase)), 6),
                                        round(float(mag * math.sin(phase)), 6)]
            reached.append(j)
        sets.append(list(pairs.values()))
    steps = [{"kind": "prepare", "params": {"element": start}}]
    for s in rng.permutation([0, 0, 1, 1, 2, 2]):
        steps.append({"kind": "laser_on", "params": {
            "mode": mode_ids[int(rng.integers(len(mode_ids)))],
            "couplings": sets[int(s)],
            "duration": round(float(rng.uniform(0.5, 3.0)), 6)}})
    steps.append({"kind": "wait", "params": {"duration": round(float(rng.uniform(0.5, 2.0)), 6)}})
    steps.append({"kind": "erase", "params": {"indices": sorted({int(x) for x in rng.integers(n, size=2)})}})
    return steps


def drive_reference(model: BasisModel, steps: list[dict]) -> np.ndarray:
    amps = np.zeros(len(model), dtype=np.complex128)
    for step in steps:
        p = step["params"]
        if step["kind"] == "prepare":
            amps = np.zeros(len(model), dtype=np.complex128)
            amps[p["element"]] = 1.0
        elif step["kind"] == "laser_on":
            amps = propagate_reference(model.levels, amps, p["couplings"], p["duration"])
        elif step["kind"] == "erase":
            amps[p["indices"]] = 0.0
    return amps


def laser_repeats(steps: list[dict]) -> tuple[int, int]:
    """(laser_on steps, those whose coupling set appeared earlier in the op)."""
    seen, total, repeats = [], 0, 0
    for step in steps:
        if step["kind"] == "laser_on":
            total += 1
            couplings = step["params"]["couplings"]
            repeats += couplings in seen
            seen.append(couplings)
    return total, repeats


def _drive_sweep(seed: int, workdir: str) -> Workload:
    out = os.path.join(workdir, "out.csv")
    configs, models = {}, {}
    for k, n_max in enumerate(DRIVE_N_MAX):
        cfg = basis_config(_rng(seed, 2, k), n_levels=3, n_modes=2, n_max=n_max)
        model = basis_model(cfg)
        kind = f"drive_{len(model)}"
        configs[kind], models[kind] = cfg, model
    kinds = tuple(configs)

    def make_op(kind: str, index: int) -> Op:
        model, cfg = models[kind], configs[kind]
        steps = drive_steps(_rng(seed, 3, kinds.index(kind), index), len(model),
                            [m["id"] for m in cfg["modes"]])
        path = os.path.join(workdir, f"{kind}.json")
        _write_json(path, {"basis_config": cfg, "steps": steps})

        def body(text: str) -> str | None:
            got = final_amplitudes(text, len(model))
            err = float(np.max(np.abs(got - drive_reference(model, steps))))
            return None if err <= DRIVE_TOL else f"final amplitudes off by {err:.3g}"

        total, repeats = laser_repeats(steps)
        return _new_op(kind, ["run", path, "--out", out], out, body, total, repeats)

    return Workload(kinds, make_op, {"basis_sizes": [len(models[k]) for k in kinds]})


# (levels, modes, n_max) -> 768, 1,280 and 4,320 elements
LISTING_SHAPES = ((3, 2, 3), (4, 2, 3), (4, 3, 2))
LISTING_RUN_STEPS = 16


def listing_steps(rng: np.random.Generator, n: int, mode_id: str) -> list[dict]:
    """prepare (absorbing one photon), then rounds of two induced swaps and a
    wait, then one erase: no eigensolve, one full snapshot per step."""
    at = int(rng.integers(n))
    steps = [{"kind": "prepare", "params": {"element": at, "absorb": [mode_id]}}]
    while len(steps) < LISTING_RUN_STEPS - 1:
        to, other = (int(x) for x in rng.integers(n, size=2))
        if to == at:
            to = (to + 1) % n
        pairs = [[at, to], [other, (other + 7) % n]]
        steps.append({"kind": "induce", "params": {"pairs": pairs}})
        for i, j in pairs:
            at = j if at == i else i if at == j else at
        steps.append({"kind": "wait", "params": {"duration": round(float(rng.uniform(0.1, 1.0)), 6)}})
    steps = steps[:LISTING_RUN_STEPS - 1]
    steps.append({"kind": "erase", "params": {"indices": sorted({int(x) for x in rng.integers(n, size=3)})}})
    return steps


def listing_trace_csv(n: int, steps: list[dict], modes: dict) -> str:
    """The trace CSV of a run without drive: amplitudes are exactly 0 or 1."""
    header = "row,step_no,time_tag,basis_index,re,im,mode,Rx,Ry,Rz,px,py,pz"
    amps = [0.0] * n
    t = 0.0
    ledger = np.zeros(3)
    lines = [header]

    def snapshot(step_no):
        tag = _g(t)
        lines.extend(f"amp,{step_no},{tag},{i},{_g(a)},0,,,,,,," for i, a in enumerate(amps))
        lines.append(f"momentum,{step_no},{tag},,,,,,,,{_g(ledger[0])},{_g(ledger[1])},{_g(ledger[2])}")

    snapshot(0)
    for step_no, step in enumerate(steps, 1):
        p = step["params"]
        if step["kind"] == "prepare":
            amps = [0.0] * n
            amps[p["element"]] = 1.0
            for mid in p["absorb"]:
                omega, direction = modes[mid]
                norm = math.sqrt(sum(float(v) * float(v) for v in direction))
                ledger += np.array(tuple(omega * (float(v) / norm) for v in direction))
        elif step["kind"] == "induce":
            for i, j in p["pairs"]:
                amps[i], amps[j] = amps[j], amps[i]
        elif step["kind"] == "wait":
            t = t + p["duration"]
        elif step["kind"] == "erase":
            for i in p["indices"]:
                amps[i] = 0.0
        snapshot(step_no)
    return "\n".join(lines) + "\n"


def _basis_listing(seed: int, workdir: str) -> Workload:
    out = os.path.join(workdir, "out.txt")
    paths, configs, sizes = {}, {}, []
    for k, (levels, modes, n_max) in enumerate(LISTING_SHAPES):
        cfg = basis_config(_rng(seed, 4, k), levels, modes, n_max)
        sizes.append((levels + levels * levels) * (2 * (n_max + 1)) ** modes)
        kind = f"basis_{sizes[-1]}"
        paths[kind] = os.path.join(workdir, f"{kind}.json")
        configs[kind] = cfg
        _write_json(paths[kind], cfg)
    big, big_n = configs[kind], sizes[-1]
    steps = listing_steps(_rng(seed, 5), big_n, big["modes"][0]["id"])
    run_kind = f"run_{big_n}"
    paths[run_kind] = os.path.join(workdir, f"{run_kind}.json")
    _write_json(paths[run_kind], {"basis_config": big, "steps": steps})
    expected: dict[str, str] = {}

    def reference(kind: str) -> str:
        # Computed on first use, outside the op timer, and kept for the run.
        if kind not in expected:
            if kind == run_kind:
                modes = {m["id"]: (float(m["omega"]), m["dir"]) for m in big["modes"]}
                expected[kind] = listing_trace_csv(big_n, steps, modes)
            else:
                expected[kind] = basis_model(configs[kind]).listing()
        return expected[kind]

    def make_op(kind: str, index: int) -> Op:
        def body(text: str) -> str | None:
            return None if text == reference(kind) else "output differs from the reference bytes"

        argv = ["run" if kind == run_kind else "basis", paths[kind], "--out", out]
        return _new_op(kind, argv, out, body)

    kinds = tuple(configs) + (run_kind,)
    return Workload(kinds, make_op, {"basis_sizes": sizes, "run_steps": len(steps)})


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    """Write the workload's fixed inputs for ``seed`` into ``workdir``."""
    builders = {"scenarios": _scenarios, "drive_sweep": _drive_sweep,
                "basis_listing": _basis_listing}
    return builders[name](seed, workdir)
