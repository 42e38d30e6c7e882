"""photonsim: a photonic base-state simulator.

Builds multipartite photon/electronuclear basis sets, evolves complex
amplitude vectors over them through protocol steps (preparation, coherent
drive, erase, decoherence, re-coherence), and solves the small secular models
that rank reaction channels.
"""

from .labels import (
    CouplingModel,
    ENLabel,
    FockLabel,
    ModeLabel,
    PartitionScheme,
    Registry,
    RegistryError,
    is_resonant,
    photonic_level,
)
from .basis import (
    ENTANGLED,
    PRODUCT,
    SINGLE_PARTITE,
    Basis,
    BasisElement,
    element_level,
    enumerate_basis,
    fourfold_manifold,
)
from .qstate import EmissionRecord, QState, decohere, erase, support, window_state
from .dynamics import (
    Hamiltonian,
    SecularSolution,
    build_hamiltonian,
    double_slit_pattern,
    perturbative_amplitudes,
    propagate,
    solve_secular,
    visibility,
)
from .spin import SpinSpaceFunction, permute_labels, singlet, triplet
from .protocol import ProtocolStep, ProtocolStepError, Trace, check_templates, run
from .scenarios import (
    Scenario,
    attosecond_init,
    halted_light_scenario,
    lambda_scenario,
    one_photon_dissociation_scenario,
)

__version__ = "0.1.0"
