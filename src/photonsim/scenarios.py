"""Built-in experiment scripts: the two-photon lambda reading sequence, the
halted-light storage/revival sequence, the one-photon dissociation channels
and the attosecond comb initial state.

Each builder returns a Scenario bundling the basis, the initial state, the
step list and the per-step support templates the run is expected to match.
Numeric amplitudes inside a support pattern are engine-dependent; only the
zero/nonzero layout is templated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import ENTANGLED, MAX_BASIS_SIZE, PRODUCT, SINGLE_PARTITE, Basis, BasisElement
from .labels import ENLabel, FockLabel, ModeLabel, PartitionScheme, Registry, finite, flag
from .protocol import ProtocolStep
from .qstate import QState

__all__ = [
    "Scenario",
    "lambda_scenario",
    "halted_light_scenario",
    "one_photon_dissociation_scenario",
    "attosecond_init",
]


@dataclass(frozen=True)
class Scenario:
    name: str
    basis: Basis
    initial: QState
    steps: tuple[ProtocolStep, ...]
    templates: tuple[frozenset[int], ...]
    named_elements: dict = field(default_factory=dict)

    def index(self, name: str) -> int:
        return self.basis.index(self.named_elements[name])


def _zero_state(basis: Basis) -> QState:
    return QState(basis, np.zeros(len(basis), dtype=np.complex128))


def lambda_scenario(omega_10: float = 1.0, omega_20: float = 0.6,
                    coupling: float = 0.2) -> Scenario:
    """Two-photon reading of a three-level lambda system.

    Opening channel -> stored coherence -> second (perpendicular) beam ->
    induced transition to the emission root -> spontaneous emission detached
    as an emission record.  The lower j0-j2 transition is dark.
    """
    if not finite(omega_10, "omega_10") > finite(omega_20, "omega_20") > 0:
        raise ValueError("need omega_10 > omega_20 > 0")
    if finite(coupling, "coupling") <= 0:
        raise ValueError("coupling must be > 0")
    omega_12 = omega_10 - omega_20
    k_f = (1.0, 0.0, 0.0)
    k_perp = (0.0, 1.0, 0.0)
    w10 = ModeLabel("w10", omega_10, k_f)
    w12 = ModeLabel("w12", omega_12, k_perp)
    w20 = ModeLabel("w20", omega_20, k_f)

    j0 = ENLabel(0, 0, 0.0)
    j1 = ENLabel(1, 0, omega_10)
    j2 = ENLabel(2, 0, omega_20)

    def el(en, *photon):
        return BasisElement(SINGLE_PARTITE, (en,), tuple(photon))

    named = {
        "root_in": el(j0, (FockLabel(w10, 1), PRODUCT)),
        "root_ent": el(j0, (FockLabel(w10, 1), ENTANGLED)),
        "upper_prod": el(j1, (FockLabel(w10, 0), PRODUCT)),
        "upper_vac12": el(j1, (FockLabel(w10, 0), ENTANGLED), (FockLabel(w12, 0), PRODUCT)),
        "upper_with12": el(j1, (FockLabel(w10, 0), ENTANGLED), (FockLabel(w12, 1), PRODUCT)),
        "dark_vac": el(j2, (FockLabel(w20, 0), ENTANGLED), (FockLabel(w12, 0), PRODUCT)),
        "dark_with12": el(j2, (FockLabel(w20, 0), ENTANGLED), (FockLabel(w12, 1), PRODUCT)),
        "dark_ent12": el(j2, (FockLabel(w20, 0), ENTANGLED), (FockLabel(w12, 1), ENTANGLED)),
        "emit_root": el(j2, (FockLabel(w20, 0), PRODUCT), (FockLabel(w12, 1), PRODUCT)),
        "emit_target": el(j2, (FockLabel(w20, 0), PRODUCT), (FockLabel(w12, 0), PRODUCT)),
    }
    basis = Basis(named.values(), metadata={"scenario": "lambda"})
    ix = {k: basis.index(v) for k, v in named.items()}

    V = coupling
    # Resonant 1-to-2 fanout: full transfer out of the opening channel at
    # t = pi / (2 sqrt(2) V).
    t_open = math.pi / (2.0 * math.sqrt(2.0) * V)
    t_second = 0.8 / V  # generic partial mixing along the chain

    steps = (
        ProtocolStep.prepare(ix["root_in"], absorb_modes=["w10"],
                             annotation="opening channel, pulse along k_forward"),
        ProtocolStep.laser_on("w10", [(ix["root_in"], ix["root_ent"], V),
                                      (ix["root_in"], ix["upper_prod"], V)], t_open,
                              annotation="incoming channel switched off"),
        ProtocolStep.laser_on("w12", [(ix["upper_prod"], ix["upper_with12"], V),
                                      (ix["upper_with12"], ix["dark_ent12"], V)], t_second,
                              absorb_modes=["w12"],
                              annotation="second beam, perpendicular direction"),
        ProtocolStep.induce([(ix["dark_ent12"], ix["emit_root"]),
                             (ix["upper_with12"], ix["dark_vac"])],
                            annotation="induced transition toward decoherence"),
        ProtocolStep.erase([ix["root_ent"], ix["upper_prod"]], renormalize=True),
        ProtocolStep.erase([ix["dark_vac"]], renormalize=True,
                           annotation="root-state for spontaneous emission"),
        ProtocolStep.decohere(ix["emit_root"], ix["emit_target"],
                              annotation="photon detached toward the detector"),
    )
    templates = (
        frozenset(),
        frozenset({ix["root_in"]}),
        frozenset({ix["root_ent"], ix["upper_prod"]}),
        frozenset({ix["root_ent"], ix["upper_prod"], ix["upper_with12"], ix["dark_ent12"]}),
        frozenset({ix["root_ent"], ix["upper_prod"], ix["dark_vac"], ix["emit_root"]}),
        frozenset({ix["dark_vac"], ix["emit_root"]}),
        frozenset({ix["emit_root"]}),
        frozenset(),
    )
    return Scenario("lambda", basis, _zero_state(basis), steps, templates, named)


def halted_light_scenario(omega_pump: float = 1.0, omega_side: float = 0.4,
                          coupling: float = 0.2,
                          skip_revival: bool = False) -> Scenario:
    """Halted-light storage and revival.

    A forward pulse is stored as matter coherence, transferred to the dark
    level by a perpendicular beam (which passes carrying one photon in
    excess), held, then revived by the counter-propagating beam; the final
    flash leaves in the forward direction and the momentum ledger returns to
    zero.  The difference-frequency virtual mode is kept in the basis as pure
    bookkeeping; it never acquires amplitude.
    """
    if not finite(omega_pump, "omega_pump") > finite(omega_side, "omega_side") > 0:
        raise ValueError("need omega_pump > omega_side > 0")
    if finite(coupling, "coupling") <= 0:
        raise ValueError("coupling must be > 0")
    flag(skip_revival, "skip_revival")
    k_f = (1.0, 0.0, 0.0)
    pump = ModeLabel("w20f", omega_pump, k_f)
    plus = ModeLabel("w12p", omega_side, (0.0, 1.0, 0.0))
    minus = ModeLabel("w12m", omega_side, (0.0, -1.0, 0.0))
    virt = ModeLabel("virt", omega_pump - omega_side, k_f)

    j0 = ENLabel(0, 0, 0.0)
    j1 = ENLabel(1, 0, omega_pump)
    j2 = ENLabel(2, 0, omega_pump - omega_side)

    def el(en, *photon):
        return BasisElement(SINGLE_PARTITE, (en,), tuple(photon))

    named = {
        "vacuum": el(j0, (FockLabel(pump, 0), PRODUCT)),
        "pulse_in": el(j0, (FockLabel(pump, 1), PRODUCT)),
        "pulse_ent": el(j0, (FockLabel(pump, 1), ENTANGLED)),
        "upper_prod": el(j1, (FockLabel(pump, 0), PRODUCT)),
        "upper_ent": el(j1, (FockLabel(pump, 0), ENTANGLED)),
        "upper_side_prod": el(j1, (FockLabel(plus, 1), PRODUCT)),
        "upper_side_ent": el(j1, (FockLabel(plus, 1), ENTANGLED)),
        "virt_prod": el(j0, (FockLabel(virt, 1), PRODUCT)),
        "virt_ent": el(j0, (FockLabel(virt, 1), ENTANGLED)),
        "stored": el(j2, (FockLabel(pump, 0), ENTANGLED), (FockLabel(plus, 1), PRODUCT)),
        "dark_vac": el(j2, (FockLabel(pump, 0), PRODUCT), (FockLabel(plus, 0), PRODUCT)),
        "dark_ent": el(j2, (FockLabel(pump, 0), ENTANGLED), (FockLabel(plus, 1), ENTANGLED)),
        "memory_loss": el(j2, (FockLabel(plus, 0), PRODUCT)),
    }
    basis = Basis(named.values(), metadata={"scenario": "halted_light"})
    ix = {k: basis.index(v) for k, v in named.items()}

    V = coupling
    steps = [
        ProtocolStep.prepare(ix["pulse_in"], absorb_modes=["w20f"],
                             annotation="forward pulse enters"),
        ProtocolStep.laser_on("w20f", [(ix["pulse_in"], ix["pulse_ent"], V)], 0.6 / V,
                              annotation="photon-state entanglement opens"),
        ProtocolStep.laser_on("w20f", [(ix["pulse_in"], ix["upper_ent"], V)],
                              math.pi / (2.0 * V),
                              annotation="internal coherent state; pulse stopped"),
        ProtocolStep.induce([(ix["pulse_ent"], ix["upper_side_ent"]),
                             (ix["upper_ent"], ix["stored"])],
                            annotation="dark transition via k+; beam carries one photon in excess"),
        ProtocolStep.laser_on("w12p", [(ix["stored"], ix["dark_vac"], V)], 0.5 / V),
        ProtocolStep.erase([ix["upper_side_ent"], ix["dark_vac"]], renormalize=True,
                           annotation="stored coherent state; finite lifetime"),
    ]
    templates = [
        frozenset(),
        frozenset({ix["pulse_in"]}),
        frozenset({ix["pulse_in"], ix["pulse_ent"]}),
        frozenset({ix["pulse_ent"], ix["upper_ent"]}),
        frozenset({ix["upper_side_ent"], ix["stored"]}),
        frozenset({ix["upper_side_ent"], ix["stored"], ix["dark_vac"]}),
        frozenset({ix["stored"]}),
    ]
    if not skip_revival:
        steps += [
            ProtocolStep.wait(duration=1.0, annotation="storage delay"),
            ProtocolStep.induce([(ix["stored"], ix["upper_ent"])],
                                annotation="k- beam consumes the stored quantum"),
            ProtocolStep.induce([(ix["upper_ent"], ix["pulse_ent"])],
                                annotation="frequency up-conversion via the virtual mode"),
            ProtocolStep.induce([(ix["pulse_ent"], ix["pulse_in"])],
                                annotation="re-coherence: pulse revival"),
            ProtocolStep.decohere(ix["pulse_in"], ix["vacuum"],
                                  annotation="flash in the forward direction"),
        ]
        templates += [
            frozenset({ix["stored"]}),
            frozenset({ix["upper_ent"]}),
            frozenset({ix["pulse_ent"]}),
            frozenset({ix["pulse_in"]}),
            frozenset(),
        ]
    return Scenario("halted_light", basis, _zero_state(basis), tuple(steps),
                    tuple(templates), named)


def one_photon_dissociation_scenario(outcome: int = 1, omega: float = 1.0,
                                     omega_00: float = 0.8,
                                     coupling: float = 0.2,
                                     drive: bool = True) -> Scenario:
    """Competitive chemistry in a one-photon field over chromophore-tagged
    multipartite channels A0 (1-partite), B1 and B2 (bipartite).

    Outcomes: 1 re-emission to the ground root; 2 low-frequency emission from
    the relaxed chromophore; 3 filtered monochromatic 0-0 emission; 4 open
    coupling into the B1 dissociative channel.  With drive=False the state
    stays frozen after the window preparation (no evolution without a drive).
    """
    if type(outcome) is not int or outcome not in (1, 2, 3, 4):
        raise ValueError("outcome must be an integer in 1..4")
    if finite(coupling, "coupling") <= 0:
        raise ValueError("coupling must be > 0")
    flag(drive, "drive")
    m = 5
    a0 = PartitionScheme("A0", (tuple(range(1, m + 1)),))
    b1 = PartitionScheme("B1", (tuple(range(1, m)), (m,)))
    b2 = PartitionScheme("B2", ((1,), tuple(range(2, m + 1))))

    w = ModeLabel("w", finite(omega, "omega"), (1.0, 0.0, 0.0))
    w00 = ModeLabel("w00", finite(omega_00, "omega_00"), (0.0, 0.0, 1.0))

    ground = ENLabel(0, 0, 0.0)
    chrom = ENLabel(1, 0, omega)
    relaxed = ENLabel(0, 1, omega - omega_00)
    frag_big = ENLabel(0, 2, 0.55)
    frag_small = ENLabel(0, 3, 0.40)

    named = {
        "root_vac": BasisElement(a0, (ground,), ((FockLabel(w, 0), PRODUCT),)),
        "window": BasisElement(a0, (ground,), ((FockLabel(w, 1), PRODUCT),)),
        "retained": BasisElement(a0, (ground,), ((FockLabel(w, 1), ENTANGLED),)),
        "chrom_exc": BasisElement(a0, (chrom,), ((FockLabel(w, 0), ENTANGLED),)),
        "b1_channel": BasisElement(b1, (frag_big, frag_small), ((FockLabel(w, 0), PRODUCT),)),
        "b2_channel": BasisElement(b2, (frag_small, frag_big), ((FockLabel(w, 0), PRODUCT),)),
        "relaxed_hot": BasisElement(a0, (relaxed,), ((FockLabel(w00, 1), PRODUCT),)),
        "relaxed_cold": BasisElement(a0, (relaxed,), ((FockLabel(w00, 0), PRODUCT),)),
    }
    basis = Basis(named.values(), metadata={"scenario": "one_photon", "outcome": outcome})
    ix = {k: basis.index(v) for k, v in named.items()}

    V = coupling
    steps = [ProtocolStep.prepare(ix["window"], absorb_modes=["w"],
                                  annotation="window q-state: the photon energy exhausts here")]
    templates = [frozenset(), frozenset({ix["window"]})]
    if not drive:
        steps.append(ProtocolStep.wait(duration=5.0,
                                       annotation="no external drive: state invariant"))
        templates.append(frozenset({ix["window"]}))
        return Scenario("one_photon", basis, _zero_state(basis), tuple(steps),
                        tuple(templates), named)

    steps += [
        ProtocolStep.laser_on("w", [(ix["window"], ix["retained"], V)], 0.6 / V,
                              annotation="entanglement retains the EM energy"),
        ProtocolStep.erase([ix["window"]], renormalize=True,
                           annotation="coherence dissipates: vacuum information suppressed"),
        ProtocolStep.laser_on("w", [(ix["retained"], ix["b1_channel"], V),
                                    (ix["retained"], ix["b2_channel"], V)], 0.5 / V,
                              annotation="chromophore coherence over dissociative channels"),
    ]
    templates += [
        frozenset({ix["window"], ix["retained"]}),
        frozenset({ix["retained"]}),
        frozenset({ix["retained"], ix["b1_channel"], ix["b2_channel"]}),
    ]

    if outcome == 1 or outcome == 3:
        note = "filtered monochromatic 0-0 emission" if outcome == 3 else "re-emission in any direction"
        steps += [
            ProtocolStep.erase([ix["b1_channel"], ix["b2_channel"]], renormalize=True),
            ProtocolStep.induce([(ix["retained"], ix["window"])]),
            ProtocolStep.decohere(ix["window"], ix["root_vac"], renormalize=True,
                                  annotation=note),
        ]
        templates += [
            frozenset({ix["retained"]}),
            frozenset({ix["window"]}),
            frozenset({ix["root_vac"]}),
        ]
    elif outcome == 2:
        steps += [
            ProtocolStep.erase([ix["b1_channel"], ix["b2_channel"]], renormalize=True),
            ProtocolStep.induce([(ix["retained"], ix["relaxed_hot"])],
                                annotation="chromophore relaxes; low-frequency quantum available"),
            ProtocolStep.decohere(ix["relaxed_hot"], ix["relaxed_cold"], renormalize=True),
        ]
        templates += [
            frozenset({ix["retained"]}),
            frozenset({ix["relaxed_hot"]}),
            frozenset({ix["relaxed_cold"]}),
        ]
    else:  # outcome 4
        steps.append(ProtocolStep.laser_on("w", [(ix["retained"], ix["b1_channel"], V)],
                                           0.4 / V,
                                           annotation="coupling into dissociative channel B1"))
        templates.append(frozenset({ix["retained"], ix["b1_channel"], ix["b2_channel"]}))
    return Scenario("one_photon", basis, _zero_state(basis), tuple(steps),
                    tuple(templates), named)


def attosecond_init(center: float, width: float, spacing: float,
                    n_harmonics: int, registry: Registry) -> QState:
    """Gaussian-enveloped frequency-comb initial state entangled with the
    root EN level; degenerate excited-EN channels enter with zero amplitude.

    n_harmonics is the total (odd) comb size; the comb is omega_n = center +
    n*spacing for n in [-(h-1)/2 .. +(h-1)/2].
    """
    if finite(width, "width") <= 0 or width * width == 0:
        raise ValueError("width must be > 0, with a square that does not underflow to 0")
    if n_harmonics < 1 or n_harmonics % 2 == 0:
        raise ValueError("n_harmonics must be a positive odd count")
    half = (n_harmonics - 1) // 2
    if spacing < 0 or center - half * spacing <= 0:
        raise ValueError("comb extends to non-positive frequencies")
    levels = sorted(registry.levels)
    if not levels:
        raise ValueError("registry has no EN levels")
    if n_harmonics + len(levels) - 1 > MAX_BASIS_SIZE:
        raise ValueError(f"comb basis would have more than {MAX_BASIS_SIZE} elements")
    if width >= center / 10.0:
        warnings.warn("comb width is not small against the center frequency",
                      stacklevel=2)

    root = registry.levels[levels[0]]
    excited = [registry.levels[k] for k in levels[1:]]

    elements = []
    comb = []
    for nn in range(-half, half + 1):
        mode = ModeLabel(f"comb{nn:+d}", center + nn * spacing, (1.0, 0.0, 0.0))
        el = BasisElement(SINGLE_PARTITE, (root,), ((FockLabel(mode, 1), ENTANGLED),))
        comb.append((nn, el))
        elements.append(el)
    anchor = ModeLabel("comb+0", center, (1.0, 0.0, 0.0))
    for exc in excited:
        elements.append(BasisElement(SINGLE_PARTITE, (exc,),
                                     ((FockLabel(anchor, 0), PRODUCT),)))
    basis = Basis(elements, metadata={"scenario": "attosecond", "n_harmonics": n_harmonics})

    amps = np.zeros(len(basis), dtype=np.complex128)
    for nn, el in comb:
        detune = nn * spacing
        amps[basis.index(el)] = math.exp(-(detune * detune) / (2.0 * width * width))
    amps /= np.linalg.norm(amps)
    return QState(basis, amps)
