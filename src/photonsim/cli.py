"""Command-line frontend.

Subcommands: basis, run, secular, spin, atto, slits.
Exit codes: 0 success/match, 1 template mismatch, 2 input error, 3 runtime
step failure.  Numbers are printed by ``labels.fmt``.  Subcommands
raise; ``main`` alone turns an error into its exit code and one stderr line.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import scenarios
from .basis import Basis, enumerate_basis
from .dynamics import double_slit_pattern, hamiltonian_matrix, solve_secular, visibility
from .labels import (CouplingModel, PartitionScheme, Registry, RegistryError, _object,
                     coupling_value, finite, fmt, integer, json_rows, load_json, reading,
                     tolerance)
from .protocol import ProtocolStep, ProtocolStepError, check_templates, run
from .qstate import DEFAULT_SUPPORT_TOL, QState, window_state
from .spin import permute_labels, s_squared_matrix, singlet, spin_expectation, triplet

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_STEP = 3


def _config_dir() -> str:
    return os.environ.get("PHOTONSIM_CONFIG_DIR", ".")


def _resolve(path: str) -> str:
    if os.path.isabs(path) or os.path.exists(path):
        return path
    candidate = os.path.join(_config_dir(), path)
    return candidate if os.path.exists(candidate) else path


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_BASIS_KEYS = ("levels", "modes", "couplings", "partitions", "basis_modes", "n_max")
_SCENARIO_REF_KEYS = ("scenario", "params", "mode", "seed")
_EXPLICIT_KEYS = ("basis_config", "models", "initial", "steps", "mode", "seed")


def _basis_from_config(cfg) -> Basis:
    cfg = _object(cfg, "basis config", _BASIS_KEYS)
    registry = Registry.from_dict(cfg)
    partitions = []
    for what, row in json_rows(cfg, "partitions", ("id", "blocks")):
        with reading(what):
            partitions.append(PartitionScheme(id=row["id"], blocks=row["blocks"]))
    if not partitions:
        raise RegistryError("config needs a non-empty 'partitions' array")
    mode_ids = cfg.get("basis_modes", sorted(registry.modes))
    if not isinstance(mode_ids, list):
        raise RegistryError("basis_modes must be a list of mode ids")
    with reading("basis_modes"):
        modes = [registry.mode(mid) for mid in mode_ids]
    return enumerate_basis(registry, partitions, modes, cfg.get("n_max", 1))


def cmd_basis(args) -> int:
    basis = _basis_from_config(load_json(_resolve(args.config)))
    _write_out(basis.to_json() + "\n", args.out)
    print(f"{len(basis)} elements", file=sys.stderr)
    return EXIT_OK


_SCENARIOS = {
    "lambda": scenarios.lambda_scenario,
    "halted_light": scenarios.halted_light_scenario,
    "one_photon": scenarios.one_photon_dissociation_scenario,
}


def _read_templates(rows) -> list[frozenset[int]]:
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise RegistryError("templates must be a list of lists of basis indices")
    return [frozenset(integer(i, "template index") for i in row) for row in rows]


def cmd_run(args) -> int:
    tol = tolerance(args.tol, "--tol")
    script = load_json(_resolve(args.script))
    scenario = isinstance(script, dict) and "scenario" in script
    script = _object(script, "script", _SCENARIO_REF_KEYS if scenario else _EXPLICIT_KEYS)
    mode = args.mode or script.get("mode", "deterministic")
    seed = args.seed if args.seed is not None else script.get("seed")
    if scenario:
        name = script["scenario"]
        if not isinstance(name, str) or name not in _SCENARIOS:
            raise RegistryError(f"unknown scenario {name!r}")
        with reading("params"):
            scn = _SCENARIOS[name](**script.get("params", {}))
        initial, steps, templates = scn.initial, scn.steps, scn.templates
        models = None
    else:
        basis = _basis_from_config(script.get("basis_config"))
        rows = []
        for what, row in json_rows(_object(script.get("models", {}), "models", ("couplings",)),
                                   "couplings", ("i", "j", "value")):
            with reading(what):
                i, j = integer(row["i"], "i", len(basis)), integer(row["j"], "j", len(basis))
                rows.append((i, j, coupling_value(row["value"], f"drive coupling ({i},{j})")))
        models = CouplingModel.from_rows(rows)
        init = _object(script.get("initial", {}), "initial", ("element",))
        if "element" in init:
            with reading("initial.element"):
                initial = window_state(basis, basis.element_at(init["element"]))
        else:
            initial = QState(basis, np.zeros(len(basis), dtype=np.complex128))
        steps = []
        for what, row in json_rows(script, "steps", ("kind", "params")):
            with reading(what):
                steps.append(ProtocolStep.from_dict(row))
        templates = None
    if args.expect:
        templates = _read_templates(load_json(_resolve(args.expect)))

    trace = run(initial, steps, models=models, seed=seed, mode=mode)
    _write_out(trace.to_csv(), args.out)

    if templates is not None:
        problems = check_templates(trace, templates, tol=tol)
        if problems:
            for msg in problems:
                print(f"mismatch: {msg}", file=sys.stderr)
            return EXIT_MISMATCH
        print("templates: PASS", file=sys.stderr)
    return EXIT_OK


DEFAULT_SECULAR = {
    "levels": [0.0, 10.0, 9.5, 7.0],
    "couplings": [[0, 1, 0.2], [1, 2, 0.2], [1, 3, 0.2]],
    "anchor": 10.0,
    "threshold": 5.0,
}


def cmd_secular(args) -> int:
    params = dict(DEFAULT_SECULAR)
    if args.params:
        params.update(_object(load_json(_resolve(args.params)), "params", DEFAULT_SECULAR))
    if not (isinstance(params["levels"], list) and params["levels"]):
        raise RegistryError("levels must be a non-empty array")
    levels = [finite(x, f"levels[{i}]") for i, x in enumerate(params["levels"])]
    n = len(levels)
    H = hamiltonian_matrix(np.array(levels), CouplingModel.from_rows(params["couplings"]))
    anchor = (levels[integer(args.anchor_index, "--anchor-index", n)]
              if args.anchor_index is not None else finite(params["anchor"], "anchor"))
    threshold = finite(params["threshold"], "threshold")
    sol = solve_secular(H, anchor)
    mags = np.abs(sol.root_vector)

    lines = ["eigenvalues: " + " ".join(fmt(x) for x in sol.eigenvalues)]
    lines.append("root: eigenvalue " + fmt(sol.root_value) + f" (anchor {fmt(anchor)})")
    lines.append("|C|: " + " ".join(fmt(x) for x in mags))
    order = list(np.argsort(-mags))
    lines.append("argsort |C| (descending): " + " ".join(str(i) for i in order))
    if n >= 4:
        if mags[3] > 0:
            ratio = mags[2] / mags[3]
            lines.append("ratio |C2|/|C3|: " + fmt(ratio))
        else:
            ratio = None
            lines.append("ratio |C2|/|C3|: N/A")
        if ratio is None:
            lines.append("verdict: N/A (zero couplings)")
        else:
            ok = order[:3] == [1, 2, 3] and ratio >= threshold
            lines.append(f"verdict: {'PASS' if ok else 'FAIL'} (threshold {fmt(threshold)})")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_spin(args) -> int:
    s2 = s_squared_matrix()
    funcs = [("singlet", singlet()), ("triplet ms=+1", triplet(1)),
             ("triplet ms=0", triplet(0)), ("triplet ms=-1", triplet(-1))]
    lines = []
    for name, f in funcs:
        flipped = permute_labels(f, "both")
        sign = "-" if np.allclose(flipped.total, -f.total) else "+"
        lines.append(f"{name}: {f.pretty()}  <S^2>={fmt(spin_expectation(f, s2))}  "
                     f"permutation parity {sign}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_atto(args) -> int:
    # The excited levels are built from --center and --spacing, so those are
    # read first: a non-finite one is named, not the level it would make.
    center, spacing = finite(args.center, "center"), finite(args.spacing, "spacing")
    reg = Registry.from_dict({
        "levels": [{"j": 0, "k": 0, "energy": 0.0}] + [
            {"j": 1, "k": k, "energy": center + (k - 2) * spacing}
            for k in range(5)
        ],
    })
    state = scenarios.attosecond_init(center, args.width, spacing, args.harmonics, reg)
    lines = ["basis_index,re,im"]
    for i, a in enumerate(state.amps):
        lines.append(f"{i},{fmt(a.real)},{fmt(a.imag)}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_slits(args) -> int:
    x, intensity = double_slit_pattern(args.c1, args.c2, args.d, args.L, args.kappa, args.samples,
                                       norm_tol=tolerance(args.tol, "--tol"))
    lines = ["x,intensity"]
    for xi, ii in zip(x, intensity):
        lines.append(f"{fmt(xi)},{fmt(ii)}")
    _write_out("\n".join(lines) + "\n", args.out)
    print("visibility: " + fmt(visibility(args.c1, args.c2)), file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="photonsim",
                                     description="photonic base-state simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("basis", help="enumerate a basis from a registry config")
    p.add_argument("config", help="JSON registry + partitions config")
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("run", help="run a protocol script")
    p.add_argument("script", help="JSON protocol script or built-in scenario reference")
    p.add_argument("--expect", help="JSON support-template file to compare against")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["deterministic", "stochastic"])
    p.add_argument("--tol", type=float, default=DEFAULT_SUPPORT_TOL,
                   help="support tolerance of the template check: |amplitude| above it is nonzero")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("secular", help="solve the four-state secular model")
    p.add_argument("params", nargs="?", help="JSON parameter file (defaults built in)")
    p.add_argument("--anchor-index", type=int,
                   help="anchor at the given level index instead of the params anchor")
    common(p)
    p.set_defaults(func=cmd_secular)

    p = sub.add_parser("spin", help="print the singlet/triplet constructions")
    common(p)
    p.set_defaults(func=cmd_spin)

    p = sub.add_parser("atto", help="attosecond comb initial state")
    p.add_argument("--center", type=float, default=100.0)
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--harmonics", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_atto)

    p = sub.add_parser("slits", help="double-slit intensity pattern")
    p.add_argument("--c1", type=float, default=2 ** -0.5)
    p.add_argument("--c2", type=float, default=2 ** -0.5)
    p.add_argument("--d", type=float, default=10.0)
    p.add_argument("--L", type=float, default=100.0)
    p.add_argument("--kappa", type=float, default=20.0)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="normalization tolerance: | |c1|^2 + |c2|^2 - 1 | must not exceed it")
    common(p)
    p.set_defaults(func=cmd_slits)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  The one place an error becomes an exit code: a
    failed protocol step exits 3; malformed input (any ``ValueError``) and an
    unreadable input or unwritable output (``OSError``) exit 2.  Anything else
    is a bug and keeps its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STEP if isinstance(exc, ProtocolStepError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
