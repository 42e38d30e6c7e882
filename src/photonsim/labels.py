"""Label algebra: radiation modes, photon occupations, electronuclear levels,
partition schemes, drive couplings and the level registry.

Everything here is a frozen value type with no dynamics.  hbar = 1 throughout,
so mode frequencies are energies and a mode's momentum vector is its frequency
times the unit propagation direction (c = 1).
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = [
    "ModeLabel",
    "FockLabel",
    "ENLabel",
    "PartitionScheme",
    "CouplingModel",
    "Registry",
    "RegistryError",
    "coupling_value",
    "finite",
    "flag",
    "fmt",
    "integer",
    "json_rows",
    "load_json",
    "reading",
    "tolerance",
]


class RegistryError(ValueError):
    """Raised for a malformed input value; the message names the offending field."""


def _unit(vec: tuple[float, ...]) -> tuple[float, float, float]:
    if len(vec) != 3 or not all(map(math.isfinite, vec)):
        raise ValueError("direction vector must be 3 finite numbers")
    norm = math.sqrt(sum(v * v for v in vec))
    if norm == 0.0:
        raise ValueError("direction vector must be nonzero")
    return (vec[0] / norm, vec[1] / norm, vec[2] / norm)


@dataclass(frozen=True)
class ModeLabel:
    """A radiation mode: symbolic id, angular frequency and propagation direction.

    ``momentum`` is omega * unit(direction) so that momentum bookkeeping across
    a protocol is a plain vector sum.
    """

    id: str
    omega: float
    direction: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValueError(f"id must be a string, got {self.id!r}")
        if not (self.omega > 0.0) or not math.isfinite(self.omega):
            raise ValueError(f"mode {self.id!r}: omega must be finite and > 0, got {self.omega}")
        object.__setattr__(self, "direction", _unit(tuple(float(v) for v in self.direction)))

    @property
    def momentum(self) -> tuple[float, float, float]:
        return tuple(self.omega * d for d in self.direction)


@dataclass(frozen=True)
class FockLabel:
    """Photon occupation of one mode; n = 0 is the colored vacuum of that mode."""

    mode: ModeLabel
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "occupation"))

    @property
    def energy(self) -> float:
        # Zero-point offsets are excluded everywhere: only level differences
        # are physical, so (1/2) omega per mode would cancel anyway.
        return self.n * self.mode.omega


@dataclass(frozen=True)
class ENLabel:
    """Electronuclear level: electronic j, subsidiary quantum number k_sub, energy.

    k_sub is opaque; it only distinguishes levels sharing the same j.
    """

    j: int
    k_sub: int
    energy: float

    def __post_init__(self):
        object.__setattr__(self, "j", integer(self.j, "j"))
        object.__setattr__(self, "k_sub", integer(self.k_sub, "k"))
        if not math.isfinite(self.energy):
            raise ValueError("energy must be finite")

    @property
    def key(self) -> tuple[int, int]:
        return (self.j, self.k_sub)


@dataclass(frozen=True)
class PartitionScheme:
    """Ordered partition of constituents 1..m into disjoint blocks.

    Blocks are tuples of 1-based constituent indices.  All schemes sharing one
    basis must cover the same m constituents.
    """

    id: str
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValueError(f"id must be a string, got {self.id!r}")
        blocks = tuple(tuple(integer(i, "blocks entry") for i in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        flat = sorted(i for b in blocks for i in b)
        if len(set(flat)) != len(flat):
            raise ValueError(f"partition {self.id!r}: blocks are not disjoint")
        if not flat or not all(blocks) or flat != list(range(1, len(flat) + 1)):
            raise ValueError(f"partition {self.id!r}: blocks must be non-empty and cover 1..m")

    @property
    def m(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class CouplingModel:
    """Externally driven couplings between basis elements: one term
    ``(i, j, value)`` per pair, with ``i < j``, for the Hermitian pair of
    entries H[i, j] = value and H[j, i] = conj(value).  Absent pairs mean zero
    (dark transitions).  ``from_rows`` is the one constructor."""

    terms: tuple[tuple[int, int, complex], ...]

    @classmethod
    def from_rows(cls, rows: Sequence) -> "CouplingModel":
        """Drive couplings from rows ``[i, j, re]`` or ``[i, j, re, im]`` (a
        library caller may give ``(i, j, complex)``).  A pair given again, in
        either orientation, takes the value of its last row."""
        if not isinstance(rows, (list, tuple)):
            raise RegistryError("couplings must be an array of rows")
        drive = {}
        for k, row in enumerate(rows):
            with reading(f"couplings[{k}]"):
                if not (isinstance(row, (list, tuple)) and len(row) in (3, 4)
                        and not isinstance(row[2], (list, tuple))):
                    raise ValueError(f"a row must be [i, j, re] or [i, j, re, im], got {row!r}")
                i, j, *v = row
                i, j = integer(i, "i"), integer(j, "j")
                if i == j:
                    raise ValueError(f"drive coupling ({i},{j}) must be off-diagonal")
                value = coupling_value(v if len(v) == 2 else v[0], f"drive coupling ({i},{j})")
                drive[min(i, j), max(i, j)] = value if i < j else value.conjugate()
        return cls(tuple((i, j, v) for (i, j), v in sorted(drive.items())))


@dataclass
class Registry:
    """Named collections of EN levels and modes.

    Read from a config with arrays ``levels`` ({j, k, energy}), ``modes``
    ({id, omega, dir}) and ``couplings`` ({from, to, value}).  A coupling row
    is checked (known levels, a readable value, both directions agreeing) but
    kept nowhere: no computation reads a transition integral.
    """

    levels: dict[tuple[int, int], ENLabel] = field(default_factory=dict)
    modes: dict[str, ModeLabel] = field(default_factory=dict)

    def level(self, j: int, k_sub: int = 0) -> ENLabel:
        try:
            return self.levels[(j, k_sub)]
        except KeyError:
            raise RegistryError(f"unknown EN level (j={j}, k={k_sub})") from None

    def mode(self, mode_id: str) -> ModeLabel:
        try:
            return self.modes[mode_id]
        except KeyError:
            raise RegistryError(f"unknown mode id {mode_id!r}") from None

    @classmethod
    def from_dict(cls, data: Mapping) -> "Registry":
        if not isinstance(data, Mapping):
            raise RegistryError("config must be an object")
        reg = cls()
        for what, row in json_rows(data, "levels", ("j", "k", "energy")):
            with reading(what):
                label = ENLabel(j=row["j"], k_sub=row.get("k", 0),
                                energy=finite(row["energy"], "energy"))
                if label.key in reg.levels:
                    raise RegistryError(f"duplicate EN level (j={label.j}, k={label.k_sub})")
                reg.levels[label.key] = label
        for what, row in json_rows(data, "modes", ("id", "omega", "dir")):
            with reading(what):
                direction = tuple(finite(v, "dir") for v in row.get("dir", (1.0, 0.0, 0.0)))
                mode = ModeLabel(id=row["id"], omega=finite(row["omega"], "omega"),
                                 direction=direction)
                if mode.id in reg.modes:
                    raise RegistryError(f"duplicate mode id {mode.id!r}")
                reg.modes[mode.id] = mode
        transitions = {}
        for what, row in json_rows(data, "couplings", ("from", "to", "value")):
            with reading(what):
                a = reg.level(integer(row["from"][0], "from"), integer(row["from"][1], "from")).key
                b = reg.level(integer(row["to"][0], "to"), integer(row["to"][1], "to")).key
                value = coupling_value(row["value"])
                if abs(transitions.get((b, a), value.conjugate()) - value.conjugate()) > 1e-12:
                    raise ValueError(f"non-Hermitian transition integral for {a} <-> {b}")
                transitions[a, b], transitions[b, a] = value, value.conjugate()
        return reg


def load_json(path: str):
    """Parse the JSON file at ``path``.  A syntax error becomes a
    ``RegistryError`` citing its line and column; an unreadable file raises
    ``OSError``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise RegistryError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def finite(value, what: str) -> float:
    """``value`` as a finite float.  Only a real number is accepted: a bool or
    a string is refused, never parsed."""
    with contextlib.suppress(OverflowError):
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    raise RegistryError(f"{what} must be a finite number, got {value!r}")


def integer(value, what: str, below: int | None = None) -> int:
    """``value`` as an int >= 0, and below ``below`` when one is given, so an
    index never wraps.  A bool, ``1.0`` or ``"1"`` is refused, never converted."""
    try:  # a plain int, the common case, is taken as it is; numpy's integer types convert
        i = value if type(value) is int else -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        i = -1
    if i >= 0 and (below is None or i < below):
        return i
    bound = ">= 0" if below is None else f"from 0 to {below - 1}"
    raise RegistryError(f"{what} must be an integer {bound}, got {value!r}")


def fmt(x: float) -> str:
    """``x`` as every output prints a number: 12 significant digits, and
    adding 0.0 turns a negative zero into 0."""
    return f"{x + 0.0:.12g}"


def tolerance(value, what: str) -> float:
    """``value`` as a finite float >= 0; anything else is refused."""
    if finite(value, what) < 0:
        raise RegistryError(f"{what} must be >= 0, got {value!r}")
    return float(value)


def coupling_value(value, what: str = "coupling value") -> complex:
    """A coupling value: a finite number, ``[re, im]`` of finite numbers, or a
    Python ``complex`` with finite parts.  A string is refused, never parsed."""
    if isinstance(value, complex):
        value = (value.real, value.imag)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(finite(value[0], what), finite(value[1], what))
    return complex(finite(value, what))


def flag(value, what: str) -> bool:
    """``value`` if it is a real bool; anything else is refused."""
    if not isinstance(value, bool):
        raise RegistryError(f"{what} must be true or false")
    return value


@contextlib.contextmanager
def reading(what: str):
    """Turn a malformed raw-JSON value met inside the block (a missing key, a
    wrong type, a fractional index, a value out of range) into a
    ``RegistryError`` naming ``what``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise RegistryError(f"{what}: {exc}") from None


def _object(value, what: str, keys) -> dict:
    """``value`` as a JSON object holding no key outside ``keys``."""
    if not isinstance(value, dict):
        raise RegistryError(f"{what} must be an object")
    if unknown := sorted(set(value) - set(keys)):
        raise RegistryError(f"{what}: unknown key {unknown[0]!r}")
    return value


def json_rows(data: Mapping, key: str, keys) -> list[tuple[str, dict]]:
    """The rows of the array of objects ``data[key]`` (empty when absent), each
    holding no key outside ``keys`` and named ``key[i]`` for ``reading``."""
    rows = data.get(key, [])
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise RegistryError(f"{key!r} must be an array of objects")
    return [(f"{key}[{i}]", _object(row, f"{key}[{i}]", keys)) for i, row in enumerate(rows)]
