"""Protocol engine: ordered experimental steps applied to an amplitude vector,
with emission records, a running photon-momentum ledger and trace snapshots.

The ``ProtocolStep`` class-method constructors are the one schema of a step:
they name its parameters, give their defaults and validate them.  Scripts
reach them through ``ProtocolStep.from_dict``.

Lifetimes have no law in the underlying scheme, so Wait supports two modes:
deterministic (advance the clock by the scripted duration) and stochastic
(sample an exponential lifetime from the seeded generator).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dynamics import propagate
from .labels import CouplingModel, finite, flag
from .qstate import (
    DEFAULT_SUPPORT_TOL,
    EmissionRecord,
    QState,
    decohere,
    erase,
    support,
    window_state,
)

__all__ = [
    "ProtocolError",
    "ProtocolStepError",
    "ProtocolStep",
    "TraceEntry",
    "Trace",
    "run",
    "check_templates",
]


class ProtocolError(ValueError):
    pass


class ProtocolStepError(ProtocolError):
    """A step failed; carries the 1-based step index and the reason."""

    def __init__(self, step_no: int, kind: str, reason: str):
        self.step_no = step_no
        self.kind = kind
        self.reason = reason
        super().__init__(f"step {step_no} ({kind}): {reason}")


_KINDS = ("prepare", "laser_on", "wait", "induce", "erase", "decohere")

# Script ``params`` keys that differ from the constructor argument names.
_SCRIPT_KEYS = {"element": "element_index", "mode": "mode_id", "absorb": "absorb_modes",
                "emit": "emit_index", "target": "target_index"}


def _mode_ids(absorb_modes: Sequence[str]) -> list[str]:
    if not (isinstance(absorb_modes, (list, tuple)) and all(isinstance(m, str) for m in absorb_modes)):
        raise ProtocolError("absorb must be a list of mode ids")
    return list(absorb_modes)


@dataclass(frozen=True)
class ProtocolStep:
    """One experimental action.  Build it with the class-method constructor of
    its kind, which defines and validates its ``params``, or with ``from_dict``."""

    kind: str
    params: dict = field(default_factory=dict)
    annotation: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ProtocolError(f"unknown step kind {self.kind!r}")

    @classmethod
    def from_dict(cls, row: dict) -> "ProtocolStep":
        """Build a step from its script form ``{"kind": ..., "params": {...}}``.
        The constructors are the schema: ``params`` are passed to the one of
        that kind, renamed by ``_SCRIPT_KEYS``.  A malformed row raises
        ``ProtocolError``."""
        if not isinstance(row, dict):
            raise ProtocolError("a step must be an object")
        kind = row.get("kind")
        if kind not in _KINDS:
            raise ProtocolError(f"unknown kind {kind!r}")
        params = row.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError(f"{kind}: params must be an object")
        if aliased := sorted(set(params) & set(_SCRIPT_KEYS.values())):
            raise ProtocolError(f"{kind}: unknown params key {aliased[0]!r}")
        try:
            return getattr(cls, kind)(**{_SCRIPT_KEYS.get(k, k): v for k, v in params.items()})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"{kind}: {exc}") from None

    @classmethod
    def prepare(cls, element_index: int, absorb_modes: Sequence[str] = (), annotation: str = ""):
        return cls("prepare", {"element": operator.index(element_index), "absorb": _mode_ids(absorb_modes)},
                   annotation)

    @classmethod
    def laser_on(cls, mode_id: str, couplings: Sequence[tuple[int, int, complex]],
                 duration: float, absorb_modes: Sequence[str] = (), annotation: str = ""):
        """Coupling rows as read by ``CouplingModel.from_rows``."""
        if not isinstance(mode_id, str):
            raise ProtocolError("mode must be a mode id")
        if finite(duration, "duration") < 0:
            raise ProtocolError("duration must be non-negative")
        return cls("laser_on", {
            "mode": mode_id,
            "couplings": CouplingModel.from_rows(couplings),
            "duration": float(duration),
            "absorb": _mode_ids(absorb_modes),
        }, annotation)

    @classmethod
    def wait(cls, duration: float | None = None, rate: float | None = None, annotation: str = ""):
        if duration is None and rate is None:
            raise ProtocolError("wait needs a duration or a lifetime rate")
        if duration is not None and finite(duration, "duration") < 0:
            raise ProtocolError("duration must be non-negative")
        if rate is not None and finite(rate, "rate") <= 0:
            raise ProtocolError("lifetime rate must be positive")
        return cls("wait", {"duration": duration, "rate": rate}, annotation)

    @classmethod
    def induce(cls, pairs: Sequence[tuple[int, int]], annotation: str = ""):
        return cls("induce", {"pairs": [(operator.index(i), operator.index(j)) for i, j in pairs]},
                   annotation)

    @classmethod
    def erase(cls, indices: Iterable[int], renormalize: bool = False, annotation: str = ""):
        return cls("erase", {"indices": sorted(operator.index(i) for i in indices),
                             "renormalize": flag(renormalize, "renormalize")}, annotation)

    @classmethod
    def decohere(cls, emit_index: int, target_index: int,
                 R: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 renormalize: bool = False, annotation: str = ""):
        R = tuple(finite(r, "R") for r in R)
        if len(R) != 3:
            raise ProtocolError("R must be 3 finite numbers")
        return cls("decohere", {"emit": operator.index(emit_index),
                                "target": operator.index(target_index),
                                "R": R, "renormalize": flag(renormalize, "renormalize")}, annotation)


@dataclass(frozen=True)
class TraceEntry:
    step_no: int
    kind: str
    state: QState
    emissions: tuple[EmissionRecord, ...]
    momentum: tuple[float, float, float]
    annotation: str = ""


class Trace:
    """Immutable record of a protocol run: one entry per step plus the initial
    snapshot; entry k holds the cumulative emissions and momentum ledger."""

    def __init__(self, entries: Sequence[TraceEntry]):
        self.entries: tuple[TraceEntry, ...] = tuple(entries)

    def __len__(self):
        return len(self.entries)

    @property
    def final(self) -> TraceEntry:
        return self.entries[-1]

    @property
    def emissions(self) -> tuple[EmissionRecord, ...]:
        return self.final.emissions

    @property
    def momentum(self) -> tuple[float, float, float]:
        return self.final.momentum

    def supports(self, tol: float = DEFAULT_SUPPORT_TOL) -> list[frozenset[int]]:
        return [support(e.state, tol) for e in self.entries]

    def to_csv(self) -> str:
        """Deterministic trace listing: amplitude rows, emission rows and a
        momentum row per entry.  Numbers carry 12 significant digits; adding
        0.0 turns a negative zero into 0."""
        g = lambda x: f"{x + 0.0:.12g}"
        lines = ["row,step_no,time_tag,basis_index,re,im,mode,Rx,Ry,Rz,px,py,pz"]
        seen_emissions = 0
        for e in self.entries:
            t = g(e.state.time_tag)
            for i, a in enumerate(e.state.amps.tolist()):
                lines.append(f"amp,{e.step_no},{t},{i},{g(a.real)},{g(a.imag)},,,,,,,")
            for rec in e.emissions[seen_emissions:]:
                lines.append(
                    f"emit,{e.step_no},{t},{rec.source_index},{g(rec.amplitude.real)},"
                    f"{g(rec.amplitude.imag)},{rec.mode.id},"
                    f"{g(rec.location_R[0])},{g(rec.location_R[1])},{g(rec.location_R[2])},,,"
                )
            seen_emissions = len(e.emissions)
            px, py, pz = e.momentum
            lines.append(f"momentum,{e.step_no},{t},,,,,,,,{g(px)},{g(py)},{g(pz)}")
        return "\n".join(lines) + "\n"


def _swap(state: QState, i: int, j: int) -> QState:
    amps = state.amps.copy()
    amps[[i, j]] = amps[[j, i]]
    return QState(state.basis, amps, state.time_tag)


def run(
    initial: QState,
    steps: Sequence[ProtocolStep],
    models: CouplingModel | None = None,
    seed: int | None = None,
    mode: str = "deterministic",
) -> Trace:
    """Apply the steps in order and snapshot after each one.

    Stochastic mode (exponential Wait lifetimes) requires a seed so runs are
    reproducible; deterministic mode ignores the generator entirely.
    """
    if mode not in ("deterministic", "stochastic"):
        raise ProtocolError(f"unknown mode {mode!r}")
    if mode == "stochastic" and seed is None:
        raise ProtocolError("stochastic mode requires a seed")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad seed {seed!r}: {exc}") from None

    basis = initial.basis
    n = len(basis)
    state = initial
    emissions: list[EmissionRecord] = []
    ledger = np.zeros(3)
    entries = [TraceEntry(0, "initial", state, (), tuple(ledger))]

    modes = {}  # each mode id is looked up in the basis once per run

    def _mode(mode_id: str):
        if mode_id not in modes:
            modes[mode_id] = next((fock.mode for el in basis for fock, _ in el.photon_part
                                   if fock.mode.id == mode_id), None)
        if modes[mode_id] is None:
            raise ProtocolError(f"mode {mode_id!r} not present in basis")
        return modes[mode_id]

    for step_no, step in enumerate(steps, 1):
        p = step.params
        try:
            if step.kind == "prepare":
                state = window_state(basis, basis.element_at(p["element"]), state.time_tag)
            elif step.kind == "laser_on":
                _mode(p["mode"])
                # A step without couplings of its own takes the drive terms of the run's models.
                cm = p["couplings"] if p["couplings"].drive_pairs or models is None else models
                state = propagate(state, cm, p["duration"])
            elif step.kind == "wait":
                if mode == "stochastic" and p["rate"] is not None:
                    dt = float(rng.exponential(1.0 / p["rate"]))
                elif p["duration"] is not None:
                    dt = p["duration"]
                else:
                    raise ProtocolError("lifetime-sampled wait needs stochastic mode")
                state = state.with_time(state.time_tag + dt)
            elif step.kind == "induce":
                for i, j in p["pairs"]:
                    if not (0 <= i < n and 0 <= j < n):
                        raise ProtocolError(f"induce pair ({i},{j}) out of range")
                    state = _swap(state, i, j)
            elif step.kind == "erase":
                state = erase(state, p["indices"], renormalize=p["renormalize"])
            elif step.kind == "decohere":
                state, rec = decohere(state, p["emit"], p["target"], p["R"],
                                      renormalize=p["renormalize"])
                emissions.append(rec)
                ledger -= np.array(rec.mode.momentum)
            for mid in p.get("absorb", ()):
                ledger += np.array(_mode(mid).momentum)
        except (ProtocolError, ValueError, IndexError, KeyError) as exc:
            raise ProtocolStepError(step_no, step.kind, str(exc)) from exc
        entries.append(TraceEntry(step_no, step.kind, state, tuple(emissions),
                                  tuple(ledger), step.annotation))
    return Trace(entries)


def check_templates(trace: Trace, templates: Sequence[frozenset[int] | set[int]],
                    tol: float = DEFAULT_SUPPORT_TOL) -> list[str]:
    """Compare the trace's support pattern after each step against expected
    nonzero-index templates; returns a list of mismatch descriptions."""
    problems = []
    if len(templates) != len(trace):
        problems.append(f"template count {len(templates)} != trace length {len(trace)}")
    for entry, expected in zip(trace.entries, templates):
        got = support(entry.state, tol)
        if got != frozenset(expected):
            problems.append(
                f"step {entry.step_no} ({entry.kind}): support {sorted(got)} != "
                f"expected {sorted(expected)}"
            )
    return problems
