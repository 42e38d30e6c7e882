"""Photonic basis construction: fourfold manifolds, multipartite enumeration,
canonical ordering and deterministic serialization.

A basis element pairs a partitioned electronuclear part with per-mode photon
occupations, each mode carried either as a direct product factor or entangled
with the matter part.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .labels import ENLabel, FockLabel, ModeLabel, PartitionScheme, Registry

__all__ = [
    "PRODUCT",
    "ENTANGLED",
    "Guise",
    "BasisElement",
    "Basis",
    "SINGLE_PARTITE",
    "element_level",
    "fourfold_manifold",
    "enumerate_basis",
    "MAX_BASIS_SIZE",
]

PRODUCT = "product"
ENTANGLED = "entangled"
Guise = Literal["product", "entangled"]

_GUISE_RANK = {PRODUCT: 0, ENTANGLED: 1}

# The most elements ``enumerate_basis`` or ``attosecond_init`` builds, and the
# most samples ``double_slit_pattern`` computes; a larger request is refused
# before anything is allocated.  Building a basis peaks at about 1 kB per
# element (measured at 21,168 elements), so a basis at the cap takes about 1 GB.
MAX_BASIS_SIZE = 10**6

# Trivial one-constituent partition used by single-system examples.
SINGLE_PARTITE = PartitionScheme(id="1-partite", blocks=((1,),))


@dataclass(frozen=True)
class BasisElement:
    """One photonic base state.

    ``en_labels`` assigns one EN label per partition block, in block order.
    ``photon_part`` lists (occupation, guise) pairs over distinct modes.
    ``phase_dir`` is a +1/-1 incoming/outgoing tag (0 when unused); it is
    metadata for momentum bookkeeping, never dynamics.
    """

    partition: PartitionScheme
    en_labels: tuple[ENLabel, ...]
    photon_part: tuple[tuple[FockLabel, Guise], ...] = ()
    phase_dir: int = 0

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
        if self.phase_dir not in (-1, 0, 1):
            raise ValueError("phase_dir must be -1, 0 or +1")

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
            self.phase_dir,
        )


def element_level(e: BasisElement) -> float:
    """Photonic energy level: sum of block EN energies plus n*omega per mode."""
    return sum(l.energy for l in e.en_labels) + sum(f.energy for f, _ in e.photon_part)


def fourfold_manifold(root: ENLabel, excited: ENLabel, m: ModeLabel) -> list[BasisElement]:
    """The four base elements generated by one EN pair and one mode:
    root with the quantum available (product), root entangled, excited with
    the colored vacuum (product), excited entangled.  Resonance is not
    required; off-resonant manifolds are legal.
    """
    if root == excited:
        raise ValueError("root and excited labels must differ")
    one = FockLabel(m, 1)
    vac = FockLabel(m, 0)
    return [
        BasisElement(SINGLE_PARTITE, (root,), ((one, PRODUCT),)),
        BasisElement(SINGLE_PARTITE, (root,), ((one, ENTANGLED),)),
        BasisElement(SINGLE_PARTITE, (excited,), ((vac, PRODUCT),)),
        BasisElement(SINGLE_PARTITE, (excited,), ((vac, ENTANGLED),)),
    ]


class Basis:
    """An ordered, duplicate-free set of basis elements with a canonical total
    order, so indices are stable across runs and construction orders."""

    def __init__(self, elements: Iterable[BasisElement], metadata: dict | None = None):
        elems = sorted(set(elements), key=BasisElement.sort_key)
        if not elems:
            raise ValueError("basis must contain at least one element")
        ms = {e.partition.m for e in elems}
        if len(ms) > 1:
            raise ValueError(f"partitions disagree on constituent count: {sorted(ms)}")
        self._elements: tuple[BasisElement, ...] = tuple(elems)
        self._index: dict[BasisElement, int] = {e: i for i, e in enumerate(self._elements)}
        self.metadata: dict = dict(metadata or {})
        self._levels: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __contains__(self, e: BasisElement) -> bool:
        return e in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Basis) and self._elements == other._elements

    @property
    def elements(self) -> tuple[BasisElement, ...]:
        return self._elements

    def element_at(self, i: int) -> BasisElement:
        """The element at index i; a negative index is an error, never a wrap."""
        if not 0 <= i < len(self._elements):
            raise IndexError(f"index {i} outside basis of size {len(self._elements)}")
        return self._elements[i]

    def index(self, e: BasisElement) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise KeyError("element not in basis") from None

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
                e.phase_dir,
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
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if not partitions:
        raise ValueError("need at least one partition scheme")
    if len({p.id for p in partitions}) != len(partitions):
        raise ValueError("partition ids must be distinct")
    if len({m.id for m in modes}) != len(modes):
        raise ValueError("basis modes must be distinct")
    for m in modes:
        if m.id not in registry.modes:
            raise ValueError(f"mode {m.id!r} not in registry")
    en_labels = [registry.levels[k] for k in sorted(registry.levels)]
    if not en_labels:
        raise ValueError("registry has no EN levels")
    size = sum(len(en_labels) ** p.n_blocks for p in partitions) * (2 * (n_max + 1)) ** len(modes)
    if size > MAX_BASIS_SIZE:
        raise ValueError(f"basis would have more than {MAX_BASIS_SIZE} elements")

    elements = []
    for part in partitions:
        for assignment in itertools.product(en_labels, repeat=part.n_blocks):
            for occs in itertools.product(range(n_max + 1), repeat=len(modes)):
                for guises in itertools.product((PRODUCT, ENTANGLED), repeat=len(modes)):
                    photon = tuple(
                        (FockLabel(mode, n), g)
                        for mode, n, g in zip(modes, occs, guises)
                    )
                    elements.append(BasisElement(part, assignment, photon))
    meta = {
        "n_max": n_max,
        "modes": sorted(m.id for m in modes),
        "partitions": sorted(p.id for p in partitions),
    }
    return Basis(elements, metadata=meta)
