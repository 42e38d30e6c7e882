"""Command-line frontend.

Subcommands: basis, run, secular, spin, atto, slits.
Exit codes: 0 success/match, 1 template mismatch, 2 input error, 3 runtime
step failure.  Numeric output carries 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys

import numpy as np

from . import scenarios
from .basis import Basis, enumerate_basis
from .dynamics import double_slit_pattern, solve_secular, visibility
from .labels import CouplingModel, PartitionScheme, Registry, RegistryError
from .protocol import ProtocolError, ProtocolStep, ProtocolStepError, check_templates, run
from .qstate import QState, window_state
from .spin import permute_labels, s_squared_matrix, singlet, spin_expectation, triplet

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_STEP = 3

_G = "{:.12g}".format


def _config_dir() -> str:
    return os.environ.get("PHOTONSIM_CONFIG_DIR", ".")


def _resolve(path: str) -> str:
    if os.path.isabs(path) or os.path.exists(path):
        return path
    candidate = os.path.join(_config_dir(), path)
    return candidate if os.path.exists(candidate) else path


def _load_json(path: str):
    path = _resolve(path)
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise RegistryError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise RegistryError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise RegistryError(f"{what} must be an object")
    return value


def _basis_from_config(cfg: dict) -> tuple[Registry, Basis]:
    registry = Registry.from_dict(_object(cfg, "config"))
    partitions = []
    for idx, row in enumerate(cfg.get("partitions", [])):
        try:
            partitions.append(PartitionScheme(id=str(row["id"]),
                                              blocks=tuple(tuple(b) for b in row["blocks"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"partitions[{idx}]: {exc}") from None
    if not partitions:
        raise RegistryError("config needs a non-empty 'partitions' array")
    mode_ids = cfg.get("basis_modes", sorted(registry.modes))
    modes = [registry.mode(mid) for mid in mode_ids]
    n_max = int(cfg.get("n_max", 1))
    return registry, enumerate_basis(registry, partitions, modes, n_max)


def cmd_basis(args) -> int:
    try:
        cfg = _load_json(args.config)
        _, basis = _basis_from_config(cfg)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _write_out(basis.to_json() + "\n", args.out)
    print(f"{len(basis)} elements", file=sys.stderr)
    return EXIT_OK


_SCENARIOS = {
    "lambda": scenarios.lambda_scenario,
    "halted_light": scenarios.halted_light_scenario,
    "one_photon": scenarios.one_photon_dissociation_scenario,
}


def _templates_from_json(rows) -> list[frozenset[int]]:
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(type(i) is int for i in row) for row in rows)):
        raise RegistryError("templates must be a list of lists of basis indices")
    return [frozenset(row) for row in rows]


def cmd_run(args) -> int:
    try:
        script = _object(_load_json(args.script), "script")
        mode = args.mode or script.get("mode", "deterministic")
        seed = args.seed if args.seed is not None else script.get("seed")
        if "scenario" in script:
            name = script["scenario"]
            if name not in _SCENARIOS:
                raise RegistryError(f"unknown scenario {name!r}")
            scn = _SCENARIOS[name](**script.get("params", {}))
            initial, steps = scn.initial, list(scn.steps)
            templates = scn.templates
            models = None
        else:
            _, basis = _basis_from_config(script["basis_config"])
            models = CouplingModel()
            for row in _object(script.get("models", {}), "models").get("couplings", []):
                v = row["value"]
                re, im = v if isinstance(v, list) else (v, 0.0)
                models.set_drive(operator.index(row["i"]), operator.index(row["j"]), complex(re, im))
            init = _object(script.get("initial", {}), "initial")
            if "element" in init:
                initial = window_state(basis, basis.element_at(operator.index(init["element"])))
            else:
                initial = QState(basis, np.zeros(len(basis), dtype=np.complex128))
            steps = []
            for idx, row in enumerate(script.get("steps", [])):
                try:
                    steps.append(ProtocolStep.from_dict(row))
                except ProtocolError as exc:
                    raise ProtocolError(f"steps[{idx}]: {exc}") from None
            templates = None
        if args.expect:
            templates = _templates_from_json(_load_json(args.expect))
    except (RegistryError, KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        trace = run(initial, steps, models=models, seed=seed, mode=mode)
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STEP if isinstance(exc, ProtocolStepError) else EXIT_INPUT
    _write_out(trace.to_csv(), args.out)

    if templates is not None:
        problems = check_templates(trace, templates, tol=args.tol)
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
        try:
            params.update(_load_json(args.params))
        except RegistryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    try:
        levels = [float(x) for x in params["levels"]]
        n = len(levels)
        H = np.diag(np.array(levels, dtype=np.complex128))
        for row in params["couplings"]:
            i, j = int(row[0]), int(row[1])
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"coupling ({i},{j}) outside {n} levels")
            v = complex(row[2], row[3] if len(row) > 3 else 0.0)
            H[i, j] = v
            H[j, i] = v.conjugate()
        if args.anchor_index:
            k = args.anchor_index[0]
            if not 0 <= k < n:
                raise ValueError(f"anchor index {k} outside {n} levels")
            anchor = levels[k]
        else:
            anchor = float(params["anchor"])
        sol = solve_secular(H, anchor)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    mags = np.abs(sol.root_vector)

    lines = ["eigenvalues: " + " ".join(_G(x) for x in sol.eigenvalues)]
    lines.append("root: eigenvalue " + _G(sol.root_value) + f" (anchor {_G(anchor)})")
    lines.append("|C|: " + " ".join(_G(x) for x in mags))
    order = list(np.argsort(-mags))
    lines.append("argsort |C| (descending): " + " ".join(str(i) for i in order))
    if n >= 4:
        if mags[3] > 0:
            ratio = mags[2] / mags[3]
            lines.append("ratio |C2|/|C3|: " + _G(ratio))
        else:
            ratio = None
            lines.append("ratio |C2|/|C3|: N/A")
        threshold = float(params.get("threshold", 5.0))
        if ratio is None:
            lines.append("verdict: N/A (zero couplings)")
        else:
            ok = order[:3] == [1, 2, 3] and ratio >= threshold
            lines.append(f"verdict: {'PASS' if ok else 'FAIL'} (threshold {_G(threshold)})")
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
        lines.append(f"{name}: {f.pretty()}  <S^2>={_G(spin_expectation(f, s2))}  "
                     f"permutation parity {sign}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_atto(args) -> int:
    reg = Registry.from_dict({
        "levels": [{"j": 0, "k": 0, "energy": 0.0}] + [
            {"j": 1, "k": k, "energy": args.center + (k - 2) * args.spacing}
            for k in range(5)
        ],
    })
    try:
        state = scenarios.attosecond_init(args.center, args.width, args.spacing,
                                          args.harmonics, reg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    lines = ["basis_index,re,im"]
    for i, a in enumerate(state.amps):
        lines.append(f"{i},{_G(a.real)},{_G(a.imag)}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_slits(args) -> int:
    c1, c2 = complex(args.c1), complex(args.c2)
    try:
        x, intensity = double_slit_pattern(c1, c2, args.d, args.L, args.kappa,
                                           args.samples, norm_tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    lines = ["x,intensity"]
    for xi, ii in zip(x, intensity):
        lines.append(f"{_G(xi)},{_G(ii)}")
    _write_out("\n".join(lines) + "\n", args.out)
    print("visibility: " + _G(visibility(c1, c2)), file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="photonsim",
                                     description="photonic base-state simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="support / normalization tolerance")

    p = sub.add_parser("basis", help="enumerate a basis from a registry config")
    p.add_argument("config", help="JSON registry + partitions config")
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("run", help="run a protocol script")
    p.add_argument("script", help="JSON protocol script or built-in scenario reference")
    p.add_argument("--expect", help="JSON support-template file to compare against")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["deterministic", "stochastic"])
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("secular", help="solve the four-state secular model")
    p.add_argument("params", nargs="?", help="JSON parameter file (defaults built in)")
    p.add_argument("--anchor-index", type=int, nargs=1,
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
    common(p)
    p.set_defaults(func=cmd_slits)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
