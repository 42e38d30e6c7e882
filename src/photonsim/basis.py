"""Photonic basis construction: multipartite enumeration, canonical ordering
and deterministic serialization.

A basis element pairs a partitioned electronuclear part with per-mode photon
occupations, each mode carried either as a direct product factor or entangled
with the matter part.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .labels import ENLabel, FockLabel, ModeLabel, PartitionScheme, Registry, integer

__all__ = [
    "PRODUCT",
    "ENTANGLED",
    "Guise",
    "BasisElement",
    "Basis",
    "SINGLE_PARTITE",
    "element_level",
    "enumerate_basis",
    "MAX_BASIS_SIZE",
]

PRODUCT = "product"
ENTANGLED = "entangled"
Guise = Literal["product", "entangled"]

_GUISE_RANK = {PRODUCT: 0, ENTANGLED: 1}

# The most elements ``enumerate_basis`` or ``attosecond_init`` builds, and the
# most samples ``double_slit_pattern`` computes; a larger request is refused
# before anything is allocated.  A ``basis`` process peaks at about 1.2 kB per
# element (134 MB at 90,000 and 440 MB at 360,000 elements, CPython 3.11), so a
# basis at the cap takes about 1.2 GB.
MAX_BASIS_SIZE = 10**6

# Trivial one-constituent partition used by single-system examples.
SINGLE_PARTITE = PartitionScheme(id="1-partite", blocks=((1,),))


@dataclass(frozen=True)
class BasisElement:
    """One photonic base state.

    ``en_labels`` assigns one EN label per partition block, in block order.
    ``photon_part`` lists (occupation, guise) pairs over distinct modes.
    """

    partition: PartitionScheme
    en_labels: tuple[ENLabel, ...]
    photon_part: tuple[tuple[FockLabel, Guise], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "en_labels", tuple(self.en_labels))
        object.__setattr__(self, "photon_part", tuple(self.photon_part))
        if len(self.en_labels) != self.partition.n_blocks:
            raise ValueError(
                f"expected {self.partition.n_blocks} EN labels for partition "
                f"{self.partition.id!r}, got {len(self.en_labels)}"
            )
        ids = [f.mode.id for f, _ in self.photon_part]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate mode in photon_part")
        for _, guise in self.photon_part:
            if guise not in _GUISE_RANK:
                raise ValueError(f"unknown guise {guise!r}")

    def occupations(self) -> dict[str, int]:
        return {f.mode.id: f.n for f, _ in self.photon_part}

    def sort_key(self) -> tuple:
        photon = tuple(
            sorted((f.mode.id, -f.n, _GUISE_RANK[g]) for f, g in self.photon_part)
        )
        return (
            self.partition.id,
            tuple(l.key for l in self.en_labels),
            photon,
        )


def _one_constituent_count(partitions: Iterable[PartitionScheme]):
    if len(ms := {p.m for p in partitions}) > 1:
        raise ValueError(f"partitions disagree on constituent count: {sorted(ms)}")


def element_level(e: BasisElement) -> float:
    """Photonic energy level: sum of block EN energies plus n*omega per mode."""
    return sum(l.energy for l in e.en_labels) + sum(f.energy for f, _ in e.photon_part)


class Basis:
    """An ordered, duplicate-free set of basis elements with a canonical total
    order, so indices are stable across runs and construction orders.
    Elements are deduplicated by ``sort_key``; two different elements with one
    key would have no such order, so they are refused."""

    def __init__(self, elements: Iterable[BasisElement], metadata: dict | None = None):
        by_key: dict[tuple, BasisElement] = {}
        for e in elements:
            first = by_key.setdefault(key := e.sort_key(), e)
            if first is not e and first != e:
                raise ValueError(f"two basis elements share the canonical key {key}")
        if not by_key:
            raise ValueError("basis must contain at least one element")
        _one_constituent_count(e.partition for e in by_key.values())
        self._hold(tuple(by_key[k] for k in sorted(by_key)), metadata)

    @classmethod
    def _canonical(cls, elements: tuple[BasisElement, ...], metadata: dict) -> "Basis":
        """A basis of ``elements``, already distinct and in canonical order."""
        return cls.__new__(cls)._hold(elements, metadata)

    def _hold(self, elements: tuple[BasisElement, ...], metadata: dict | None) -> "Basis":
        self._elements, self.metadata, self._levels = elements, dict(metadata or {}), None
        return self

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, Basis) and self._elements == other._elements

    def element_at(self, i: int) -> BasisElement:
        """The element at index i; a negative index is an error, never a wrap."""
        return self._elements[integer(i, "basis index", len(self._elements))]

    def index(self, e: BasisElement) -> int:
        """The index of ``e``, found by bisecting the canonical order."""
        i = bisect.bisect_left(self._elements, e.sort_key(), key=BasisElement.sort_key)
        if i < len(self._elements) and self._elements[i] == e:
            return i
        raise KeyError("element not in basis")

    def levels(self) -> np.ndarray:
        """Photonic level of each element in index order.  Computed on first
        use and kept, so the array is shared and read-only."""
        if self._levels is None:
            levels = np.array([element_level(e) for e in self._elements], dtype=np.float64)
            levels.flags.writeable = False
            self._levels = levels
        return self._levels

    def to_jsonable(self) -> list:
        rows = []
        for i, e in enumerate(self._elements):
            rows.append([
                i,
                e.partition.id,
                [list(l.key) for l in e.en_labels],
                sorted([[f.mode.id, f.n] for f, _ in e.photon_part]),
                sorted([[f.mode.id, g] for f, g in e.photon_part]),
                0,  # a constant sixth column, kept so that listings keep their bytes
            ])
        return rows

    def to_json(self) -> str:
        return json.dumps(
            {"metadata": dict(sorted(self.metadata.items())), "elements": self.to_jsonable()},
            sort_keys=True,
            separators=(",", ":"),
        )


def enumerate_basis(
    registry: Registry,
    partitions: Sequence[PartitionScheme],
    modes: Sequence[ModeLabel],
    n_max: int,
) -> Basis:
    """Enumerate every combination of (partition, per-block EN label,
    per-mode occupation 0..n_max, per-mode guise) exactly once.

    The conceptually infinite photon ladders are truncated at n_max, which is
    recorded in the basis metadata.  A basis of more than ``MAX_BASIS_SIZE``
    elements is refused before any is built.
    """
    n_max = integer(n_max, "n_max")
    if not partitions:
        raise ValueError("need at least one partition scheme")
    if len({p.id for p in partitions}) != len(partitions):
        raise ValueError("partition ids must be distinct")
    if len({m.id for m in modes}) != len(modes):
        raise ValueError("basis modes must be distinct")
    for m in modes:
        if m.id not in registry.modes:
            raise ValueError(f"mode {m.id!r} not in registry")
    levels: dict[tuple[int, int], ENLabel] = {}
    for label in registry.levels.values():
        if levels.setdefault(label.key, label) != label:
            raise ValueError(f"two EN levels share the key {label.key}")
    if not levels:
        raise ValueError("registry has no EN levels")
    en_labels = [levels[k] for k in sorted(levels)]
    size = sum(len(en_labels) ** p.n_blocks for p in partitions) * (2 * (n_max + 1)) ** len(modes)
    if size > MAX_BASIS_SIZE:
        raise ValueError(f"basis would have more than {MAX_BASIS_SIZE} elements")
    _one_constituent_count(partitions)
    # ``sort_key`` order is mixed-radix: partition id, EN keys, then modes by id,
    # each from n_max down with product first.  Photons keep the caller's mode order.
    by_id = sorted(modes, key=lambda m: m.id)
    digits = [[(FockLabel(m, n), g) for n in range(n_max, -1, -1) for g in (PRODUCT, ENTANGLED)]
              for m in by_id]
    place = [by_id.index(m) for m in modes]
    photons = [tuple(map(combo.__getitem__, place)) for combo in itertools.product(*digits)]
    elements = tuple(
        BasisElement(part, assignment, photon)
        for part in sorted(partitions, key=lambda p: p.id)
        for assignment in itertools.product(en_labels, repeat=part.n_blocks)
        for photon in photons
    )
    meta = {"n_max": n_max, "modes": sorted(m.id for m in modes),
            "partitions": sorted(p.id for p in partitions)}
    return Basis._canonical(elements, meta)
