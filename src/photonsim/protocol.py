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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dynamics import propagate
from .labels import CouplingModel, finite, flag, fmt, integer
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


def _absorbed(absorb: Sequence[str]) -> list[str]:
    if not (isinstance(absorb, (list, tuple)) and all(isinstance(m, str) for m in absorb)):
        raise ProtocolError("absorb must be a list of mode ids")
    return list(absorb)


@dataclass(frozen=True)
class ProtocolStep:
    """One experimental action.  Build it with the class-method constructor of
    its kind, which defines and validates its ``params``, or with ``from_dict``."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ProtocolError(f"unknown step kind {self.kind!r}")

    @classmethod
    def from_dict(cls, row: dict) -> "ProtocolStep":
        """Build a step from its script form ``{"kind": ..., "params": {...}}``,
        which holds no other key.  The constructors are the schema: ``params``
        are the keyword arguments of the one of that kind, and an optional
        ``annotation`` string, which is checked and dropped.  A malformed row
        raises ``ProtocolError``."""
        if not isinstance(row, dict):
            raise ProtocolError("a step must be an object")
        if unknown := [key for key in row if key not in ("kind", "params")]:
            raise ProtocolError(f"unknown key {unknown[0]!r}")
        kind = row.get("kind")
        if kind not in _KINDS:
            raise ProtocolError(f"unknown kind {kind!r}")
        params = row.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError(f"{kind}: params must be an object")
        params = dict(params)
        if not isinstance(params.pop("annotation", ""), str):
            raise ProtocolError(f"{kind}: annotation must be a string")
        try:
            return getattr(cls, kind)(**params)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"{kind}: {exc}") from None

    @classmethod
    def prepare(cls, element: int, absorb: Sequence[str] = ()):
        return cls("prepare", {"element": integer(element, "element"), "absorb": _absorbed(absorb)})

    @classmethod
    def laser_on(cls, mode: str, couplings: Sequence[tuple[int, int, complex]],
                 duration: float, absorb: Sequence[str] = ()):
        """Coupling rows as read by ``CouplingModel.from_rows``."""
        if not isinstance(mode, str):
            raise ProtocolError("mode must be a mode id")
        if finite(duration, "duration") < 0:
            raise ProtocolError("duration must be non-negative")
        return cls("laser_on", {
            "mode": mode,
            "couplings": CouplingModel.from_rows(couplings),
            "duration": float(duration),
            "absorb": _absorbed(absorb),
        })

    @classmethod
    def wait(cls, duration: float | None = None, rate: float | None = None):
        if duration is None and rate is None:
            raise ProtocolError("wait needs a duration or a lifetime rate")
        if duration is not None and finite(duration, "duration") < 0:
            raise ProtocolError("duration must be non-negative")
        if rate is not None and finite(rate, "rate") <= 0:
            raise ProtocolError("lifetime rate must be positive")
        return cls("wait", {"duration": duration, "rate": rate})

    @classmethod
    def induce(cls, pairs: Sequence[tuple[int, int]]):
        return cls("induce", {"pairs": [(integer(i, "pairs entry"), integer(j, "pairs entry"))
                                        for i, j in pairs]})

    @classmethod
    def erase(cls, indices: Iterable[int], renormalize: bool = False):
        return cls("erase", {"indices": sorted(integer(i, "indices entry") for i in indices),
                             "renormalize": flag(renormalize, "renormalize")})

    @classmethod
    def decohere(cls, emit: int, target: int, R: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 renormalize: bool = False):
        R = tuple(finite(r, "R") for r in R)
        if len(R) != 3:
            raise ProtocolError("R must be 3 finite numbers")
        return cls("decohere", {"emit": integer(emit, "emit"), "target": integer(target, "target"),
                                "R": R, "renormalize": flag(renormalize, "renormalize")})


@dataclass(frozen=True)
class TraceEntry:
    """The snapshot after step ``step_no`` (0 is the initial state): the state,
    the emission of that step alone (``None`` if it emitted nothing) and the
    cumulative momentum ledger."""

    step_no: int
    kind: str
    state: QState
    emission: EmissionRecord | None
    momentum: tuple[float, float, float]


class Trace:
    """Immutable record of a protocol run: one entry per step plus the initial
    snapshot; each entry holds its own step's emission and the cumulative
    momentum ledger."""

    def __init__(self, entries: Sequence[TraceEntry]):
        self.entries: tuple[TraceEntry, ...] = tuple(entries)

    def __len__(self):
        return len(self.entries)

    @property
    def final(self) -> TraceEntry:
        return self.entries[-1]

    @property
    def emissions(self) -> tuple[EmissionRecord, ...]:
        """Every emission of the run, in step order."""
        return tuple(e.emission for e in self.entries if e.emission)

    @property
    def momentum(self) -> tuple[float, float, float]:
        return self.final.momentum

    def to_csv(self) -> str:
        """Deterministic trace listing: amplitude rows, emission rows and a
        momentum row per entry, numbers written by ``fmt``."""
        lines = ["row,step_no,time_tag,basis_index,re,im,mode,Rx,Ry,Rz,px,py,pz"]
        for e in self.entries:
            t = fmt(e.state.time_tag)
            for i, a in enumerate(e.state.amps.tolist()):
                lines.append(f"amp,{e.step_no},{t},{i},{fmt(a.real)},{fmt(a.imag)},,,,,,,")
            if rec := e.emission:
                lines.append(
                    f"emit,{e.step_no},{t},{rec.source_index},{fmt(rec.amplitude.real)},"
                    f"{fmt(rec.amplitude.imag)},{rec.mode.id},"
                    f"{fmt(rec.location_R[0])},{fmt(rec.location_R[1])},{fmt(rec.location_R[2])},,,"
                )
            px, py, pz = e.momentum
            lines.append(f"momentum,{e.step_no},{t},,,,,,,,{fmt(px)},{fmt(py)},{fmt(pz)}")
        return "\n".join(lines) + "\n"


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
    ledger = np.zeros(3)
    entries = [TraceEntry(0, "initial", state, None, tuple(ledger))]

    def _mode(mid: str):
        mode = next((f.mode for el in basis for f, _ in el.photon_part if f.mode.id == mid), None)
        if mode is None:
            raise ProtocolError(f"mode {mid!r} not present in basis")
        return mode

    for step_no, step in enumerate(steps, 1):
        p = step.params
        rec = None
        try:
            if step.kind == "prepare":
                state = window_state(basis, basis.element_at(p["element"]), state.time_tag)
            elif step.kind == "laser_on":
                _mode(p["mode"])
                # A step without couplings of its own takes the drive terms of the run's models.
                cm = p["couplings"] if p["couplings"].terms or models is None else models
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
                amps = state.amps.copy()
                for i, j in p["pairs"]:
                    if not (0 <= i < n and 0 <= j < n):
                        raise ProtocolError(f"induce pair ({i},{j}) out of range")
                    amps[[i, j]] = amps[[j, i]]
                state = QState(basis, amps, state.time_tag)
            elif step.kind == "erase":
                state = erase(state, p["indices"], renormalize=p["renormalize"])
            elif step.kind == "decohere":
                state, rec = decohere(state, p["emit"], p["target"], p["R"],
                                      renormalize=p["renormalize"])
                ledger -= np.array(rec.mode.momentum)
            for mid in p.get("absorb", ()):
                ledger += np.array(_mode(mid).momentum)
        except (ValueError, IndexError, KeyError) as exc:
            raise ProtocolStepError(step_no, step.kind, str(exc)) from exc
        entries.append(TraceEntry(step_no, step.kind, state, rec, tuple(ledger)))
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
