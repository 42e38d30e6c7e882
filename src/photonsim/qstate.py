"""Amplitude vectors over a fixed photonic basis: window preparation, erase,
coherence support and decoherence with emission bookkeeping.

Decoherence is modeled as a pair (residual state, emission record) rather than
an enlarged Hilbert space: the emitted branch leaves the working basis, and
amplitude-squared bookkeeping is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .basis import Basis, BasisElement, element_level
from .labels import DEFAULT_RESONANCE_TOL, ModeLabel

__all__ = [
    "DEFAULT_SUPPORT_TOL",
    "QState",
    "EmissionRecord",
    "window_state",
    "erase",
    "support",
    "decohere",
]

DEFAULT_SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class QState:
    """Complex amplitude vector over a basis, with a protocol-clock tag."""

    basis: Basis
    amps: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (len(self.basis),):
            raise ValueError(f"amplitude vector length {amps.shape} != basis size {len(self.basis)}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "QState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return QState(self.basis, self.amps / n, self.time_tag)

    def with_time(self, time_tag: float) -> "QState":
        return QState(self.basis, self.amps, time_tag)


@dataclass(frozen=True)
class EmissionRecord:
    """A photon branch detached from the working basis: mode, propagation
    direction, detection anchor R, the carried amplitude and the emitting /
    landing basis indices."""

    mode: ModeLabel
    direction: tuple[float, float, float]
    location_R: tuple[float, float, float]
    amplitude: complex
    source_index: int
    target_index: int


def window_state(b: Basis, e: BasisElement, time_tag: float = 0.0) -> QState:
    """Unit amplitude on a single element; the opening-channel preparation."""
    amps = np.zeros(len(b), dtype=np.complex128)
    amps[b.index(e)] = 1.0
    return QState(b, amps, time_tag)


def erase(s: QState, indices: Iterable[int], renormalize: bool = False) -> QState:
    """Zero the amplitudes at the given indices; the basis is untouched
    (a response is erased, never a base state)."""
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 0 or idx[-1] >= len(s.basis)):
        raise IndexError(f"erase index out of range for basis of size {len(s.basis)}")
    amps = s.amps.copy()
    amps[idx] = 0.0
    out = QState(s.basis, amps, s.time_tag)
    return out.normalized() if renormalize else out


def support(s: QState, tol: float = DEFAULT_SUPPORT_TOL) -> frozenset[int]:
    """Indices carrying amplitude above tol; the zero-vs-C pattern."""
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    return frozenset(int(i) for i in np.nonzero(np.abs(s.amps) > tol)[0])


def _emitted_mode(emit: BasisElement, target: BasisElement) -> ModeLabel:
    """The unique mode whose occupation drops by one from emit to target.

    Vacuum labels may appear or disappear freely between the two elements
    (they carry no energy); all other occupations must match.
    """
    occ_e = emit.occupations()
    occ_t = target.occupations()
    decremented = None
    for mid in set(occ_e) | set(occ_t):
        ne, nt = occ_e.get(mid, 0), occ_t.get(mid, 0)
        if ne == nt:
            continue
        if ne == nt + 1 and decremented is None:
            decremented = mid
        else:
            raise ValueError(
                f"target must differ from the emitter by exactly one photon; "
                f"mode {mid!r} goes {ne} -> {nt}"
            )
    if decremented is None:
        raise ValueError("no photon available: emitter and target have equal occupations")
    return next(fock.mode for fock, _ in emit.photon_part if fock.mode.id == decremented)


def decohere(
    s: QState,
    emit_index: int,
    target_index: int,
    R: tuple[float, float, float] = (0.0, 0.0, 0.0),
    tol: float = DEFAULT_SUPPORT_TOL,
    energy_tol: float = DEFAULT_RESONANCE_TOL,
    renormalize: bool = False,
) -> tuple[QState, EmissionRecord]:
    """Detach the amplitude at emit_index as an emitted-photon branch.

    The emitting element must hold one more photon than the target in exactly
    one mode; that quantum goes into the EmissionRecord together with the full
    amplitude, so |record.amplitude|^2 + residual-norm^2 equals the original
    norm^2 exactly.  With renormalize=True the detached amplitude is instead
    landed on the target element and the residual renormalized, giving the
    post-emission material state.
    """
    emit_el = s.basis.element_at(emit_index)
    target_el = s.basis.element_at(target_index)
    amp = complex(s.amps[emit_index])
    if abs(amp) <= tol:
        raise ValueError(f"emit index {emit_index} is not in the coherence support")
    mode = _emitted_mode(emit_el, target_el)
    gap = element_level(emit_el) - element_level(target_el)
    if abs(gap - mode.omega) > energy_tol:
        raise ValueError(
            f"emission energy mismatch: level gap {gap} != omega {mode.omega} of mode {mode.id!r}"
        )
    amps = s.amps.copy()
    amps[emit_index] = 0.0
    record = EmissionRecord(
        mode=mode,
        direction=mode.direction,
        location_R=tuple(float(r) for r in R),
        amplitude=amp,
        source_index=emit_index,
        target_index=target_index,
    )
    residual = QState(s.basis, amps, s.time_tag)
    if renormalize:
        amps = residual.amps.copy()
        amps[target_index] += amp
        residual = QState(s.basis, amps, s.time_tag).normalized()
    return residual, record
