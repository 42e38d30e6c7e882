"""Built-in experiment scripts: the two-photon lambda reading sequence, the
halted-light storage/revival sequence, the one-photon dissociation channels
and the attosecond comb initial state.

Each builder returns a Scenario bundling the basis, the initial state, the
step list and the per-step support templates the run is expected to match.
Numeric amplitudes inside a support pattern are engine-dependent; only the
zero/nonzero layout is templated.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import ENTANGLED, MAX_BASIS_SIZE, PRODUCT, SINGLE_PARTITE, Basis, BasisElement
from .labels import ENLabel, FockLabel, ModeLabel, PartitionScheme, Registry, finite, flag, integer
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
    basis: Basis
    initial: QState
    steps: tuple[ProtocolStep, ...]
    templates: tuple[frozenset[int], ...]
    named_elements: dict

    def index(self, name: str) -> int:
        return self.basis.index(self.named_elements[name])


def _el(en: ENLabel, *photon) -> BasisElement:
    return BasisElement(SINGLE_PARTITE, (en,), tuple(photon))


def _scenario(name: str, named: dict, metadata: dict, script) -> Scenario:
    """A built-in scenario over the canonical basis of ``named``, from the zero
    state.  ``script(ix)`` gets the name -> index map and lists ``(step,
    support)`` pairs; a support names, space-separated, the elements expected
    to carry amplitude after its step."""
    basis = Basis(named.values(), metadata={"scenario": name, **metadata})
    ix = {k: basis.index(v) for k, v in named.items()}
    steps, supports = zip(*script(ix))
    templates = [frozenset()] + [frozenset(map(ix.__getitem__, names.split())) for names in supports]
    return Scenario(basis, QState(basis, np.zeros(len(basis), dtype=np.complex128)),
                    steps, tuple(templates), named)


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

    named = {
        "root_in": _el(j0, (FockLabel(w10, 1), PRODUCT)),
        "root_ent": _el(j0, (FockLabel(w10, 1), ENTANGLED)),
        "upper_prod": _el(j1, (FockLabel(w10, 0), PRODUCT)),
        "upper_vac12": _el(j1, (FockLabel(w10, 0), ENTANGLED), (FockLabel(w12, 0), PRODUCT)),
        "upper_with12": _el(j1, (FockLabel(w10, 0), ENTANGLED), (FockLabel(w12, 1), PRODUCT)),
        "dark_vac": _el(j2, (FockLabel(w20, 0), ENTANGLED), (FockLabel(w12, 0), PRODUCT)),
        "dark_with12": _el(j2, (FockLabel(w20, 0), ENTANGLED), (FockLabel(w12, 1), PRODUCT)),
        "dark_ent12": _el(j2, (FockLabel(w20, 0), ENTANGLED), (FockLabel(w12, 1), ENTANGLED)),
        "emit_root": _el(j2, (FockLabel(w20, 0), PRODUCT), (FockLabel(w12, 1), PRODUCT)),
        "emit_target": _el(j2, (FockLabel(w20, 0), PRODUCT), (FockLabel(w12, 0), PRODUCT)),
    }

    V = coupling
    # Resonant 1-to-2 fanout: full transfer out of the opening channel at
    # t = pi / (2 sqrt(2) V).
    t_open = math.pi / (2.0 * math.sqrt(2.0) * V)
    t_second = 0.8 / V  # generic partial mixing along the chain

    return _scenario("lambda", named, {}, lambda ix: [
        (ProtocolStep.prepare(ix["root_in"], absorb=["w10"]), "root_in"),
        (ProtocolStep.laser_on("w10", [(ix["root_in"], ix["root_ent"], V),
                                       (ix["root_in"], ix["upper_prod"], V)], t_open),
         "root_ent upper_prod"),
        (ProtocolStep.laser_on("w12", [(ix["upper_prod"], ix["upper_with12"], V),
                                       (ix["upper_with12"], ix["dark_ent12"], V)], t_second,
                               absorb=["w12"]),
         "root_ent upper_prod upper_with12 dark_ent12"),
        (ProtocolStep.induce([(ix["dark_ent12"], ix["emit_root"]),
                              (ix["upper_with12"], ix["dark_vac"])]),
         "root_ent upper_prod dark_vac emit_root"),
        (ProtocolStep.erase([ix["root_ent"], ix["upper_prod"]], renormalize=True),
         "dark_vac emit_root"),
        (ProtocolStep.erase([ix["dark_vac"]], renormalize=True), "emit_root"),
        (ProtocolStep.decohere(ix["emit_root"], ix["emit_target"]), ""),
    ])


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
    virt = ModeLabel("virt", omega_pump - omega_side, k_f)

    j0 = ENLabel(0, 0, 0.0)
    j1 = ENLabel(1, 0, omega_pump)
    j2 = ENLabel(2, 0, omega_pump - omega_side)

    named = {
        "vacuum": _el(j0, (FockLabel(pump, 0), PRODUCT)),
        "pulse_in": _el(j0, (FockLabel(pump, 1), PRODUCT)),
        "pulse_ent": _el(j0, (FockLabel(pump, 1), ENTANGLED)),
        "upper_prod": _el(j1, (FockLabel(pump, 0), PRODUCT)),
        "upper_ent": _el(j1, (FockLabel(pump, 0), ENTANGLED)),
        "upper_side_prod": _el(j1, (FockLabel(plus, 1), PRODUCT)),
        "upper_side_ent": _el(j1, (FockLabel(plus, 1), ENTANGLED)),
        "virt_prod": _el(j0, (FockLabel(virt, 1), PRODUCT)),
        "virt_ent": _el(j0, (FockLabel(virt, 1), ENTANGLED)),
        "stored": _el(j2, (FockLabel(pump, 0), ENTANGLED), (FockLabel(plus, 1), PRODUCT)),
        "dark_vac": _el(j2, (FockLabel(pump, 0), PRODUCT), (FockLabel(plus, 0), PRODUCT)),
        "dark_ent": _el(j2, (FockLabel(pump, 0), ENTANGLED), (FockLabel(plus, 1), ENTANGLED)),
        "memory_loss": _el(j2, (FockLabel(plus, 0), PRODUCT)),
    }

    V = coupling

    def script(ix):
        pairs = [
            (ProtocolStep.prepare(ix["pulse_in"], absorb=["w20f"]), "pulse_in"),
            (ProtocolStep.laser_on("w20f", [(ix["pulse_in"], ix["pulse_ent"], V)], 0.6 / V),
             "pulse_in pulse_ent"),
            (ProtocolStep.laser_on("w20f", [(ix["pulse_in"], ix["upper_ent"], V)],
                                   math.pi / (2.0 * V)),
             "pulse_ent upper_ent"),
            (ProtocolStep.induce([(ix["pulse_ent"], ix["upper_side_ent"]),
                                  (ix["upper_ent"], ix["stored"])]),
             "upper_side_ent stored"),
            (ProtocolStep.laser_on("w12p", [(ix["stored"], ix["dark_vac"], V)], 0.5 / V),
             "upper_side_ent stored dark_vac"),
            (ProtocolStep.erase([ix["upper_side_ent"], ix["dark_vac"]], renormalize=True),
             "stored"),
        ]
        if skip_revival:
            return pairs
        return pairs + [
            (ProtocolStep.wait(duration=1.0), "stored"),
            (ProtocolStep.induce([(ix["stored"], ix["upper_ent"])]), "upper_ent"),
            # frequency up-conversion through the virtual mode, which stays empty
            (ProtocolStep.induce([(ix["upper_ent"], ix["pulse_ent"])]), "pulse_ent"),
            (ProtocolStep.induce([(ix["pulse_ent"], ix["pulse_in"])]), "pulse_in"),
            (ProtocolStep.decohere(ix["pulse_in"], ix["vacuum"]), ""),
        ]

    return _scenario("halted_light", named, {}, script)


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
    if (outcome := integer(outcome, "outcome")) not in (1, 2, 3, 4):
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

    V = coupling

    def script(ix):
        pairs = [(ProtocolStep.prepare(ix["window"], absorb=["w"]), "window")]
        if not drive:
            return pairs + [(ProtocolStep.wait(duration=5.0), "window")]
        pairs += [
            (ProtocolStep.laser_on("w", [(ix["window"], ix["retained"], V)], 0.6 / V),
             "window retained"),
            # the coherence dissipates: the vacuum branch is suppressed
            (ProtocolStep.erase([ix["window"]], renormalize=True), "retained"),
            (ProtocolStep.laser_on("w", [(ix["retained"], ix["b1_channel"], V),
                                         (ix["retained"], ix["b2_channel"], V)], 0.5 / V),
             "retained b1_channel b2_channel"),
        ]
        if outcome == 4:
            return pairs + [(ProtocolStep.laser_on("w", [(ix["retained"], ix["b1_channel"], V)],
                                                   0.4 / V),
                             "retained b1_channel b2_channel")]
        emitter, landing = ("relaxed_hot", "relaxed_cold") if outcome == 2 else ("window", "root_vac")
        return pairs + [
            (ProtocolStep.erase([ix["b1_channel"], ix["b2_channel"]], renormalize=True), "retained"),
            (ProtocolStep.induce([(ix["retained"], ix[emitter])]), emitter),
            (ProtocolStep.decohere(ix[emitter], ix[landing], renormalize=True), landing),
        ]

    return _scenario("one_photon", named, {"outcome": outcome}, script)


def attosecond_init(center: float, width: float, spacing: float,
                    n_harmonics: int, registry: Registry) -> QState:
    """Gaussian-enveloped frequency-comb initial state entangled with the
    root EN level; degenerate excited-EN channels enter with zero amplitude.

    n_harmonics is the total (odd) comb size; the comb is omega_n = center +
    n*spacing for n in [-(h-1)/2 .. +(h-1)/2].
    """
    center, spacing = finite(center, "center"), finite(spacing, "spacing")
    if finite(width, "width") <= 0 or width * width == 0:
        raise ValueError("width must be > 0, with a square that does not underflow to 0")
    if (n_harmonics := integer(n_harmonics, "n_harmonics")) % 2 == 0:
        raise ValueError("n_harmonics must be a positive odd count")
    half = (n_harmonics - 1) // 2
    if spacing < 0 or center - half * spacing <= 0:
        raise ValueError("comb extends to non-positive frequencies")
    levels = sorted(registry.levels)
    if not levels:
        raise ValueError("registry has no EN levels")
    if n_harmonics + len(levels) - 1 > MAX_BASIS_SIZE:
        raise ValueError(f"comb basis would have more than {MAX_BASIS_SIZE} elements")

    root = registry.levels[levels[0]]
    excited = [registry.levels[k] for k in levels[1:]]

    elements = []
    comb = []
    for nn in range(-half, half + 1):
        mode = ModeLabel(f"comb{nn:+d}", center + nn * spacing, (1.0, 0.0, 0.0))
        el = _el(root, (FockLabel(mode, 1), ENTANGLED))
        comb.append((nn, el))
        elements.append(el)
    anchor = ModeLabel("comb+0", center, (1.0, 0.0, 0.0))
    for exc in excited:
        elements.append(_el(exc, (FockLabel(anchor, 0), PRODUCT)))
    basis = Basis(elements, metadata={"scenario": "attosecond", "n_harmonics": n_harmonics})

    amps = np.zeros(len(basis), dtype=np.complex128)
    for nn, el in comb:
        detune = nn * spacing
        amps[basis.index(el)] = math.exp(-(detune * detune) / (2.0 * width * width))
    state = QState(basis, amps).normalized()  # a non-finite amplitude is refused before dividing
    if width >= center / 10.0:
        warnings.warn("comb width is not small against the center frequency", stacklevel=2)
    return state
