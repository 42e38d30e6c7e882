"""Hamiltonians over a photonic basis, unitary propagation, the four-state
secular model and the double-slit superposition demo.

The diagonal carries the photonic energy level of each element; off-diagonal
entries are externally driven couplings.  Eigendecompositions are one LAPACK
call (``np.linalg.eigh``); ``propagate`` runs it only on the drive-coupled
elements and gives every other element its exact phase exp(-i E_k dt).
Given a ``CouplingModel`` instead of a dense ``Hamiltonian``, ``propagate``
builds that coupled block straight from the drive terms and the basis levels,
so a step costs O(n + k^3) for k coupled elements and no n x n matrix exists.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .basis import MAX_BASIS_SIZE, Basis
from .labels import CouplingModel, RegistryError, finite, integer, tolerance
from .qstate import QState

__all__ = [
    "Hamiltonian",
    "SecularSolution",
    "hamiltonian_matrix",
    "propagate",
    "solve_secular",
    "perturbative_amplitudes",
    "double_slit_pattern",
    "visibility",
    "fringe_half_width",
]

_DEGENERACY_TOL = 1e-9


def _hermitian(matrix, what: str) -> np.ndarray:
    """``matrix`` as a complex array; refused unless it is 2-D, square,
    non-empty, finite and Hermitian."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{what} must be a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} must be finite")
    scale = max(float(np.linalg.norm(m)), 1.0)
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
        raise ValueError(f"{what} must be Hermitian")
    return m


@dataclass(frozen=True)
class Hamiltonian:
    basis: Basis
    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian(self.matrix, "Hamiltonian")
        n = len(self.basis)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} != basis size {n}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SecularSolution:
    """Full eigendecomposition with a distinguished root: the eigenpair whose
    eigenvalue lies nearest a requested anchor level."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    root_index: int

    @property
    def root_value(self) -> float:
        return float(self.eigenvalues[self.root_index])

    @property
    def root_vector(self) -> np.ndarray:
        return self.eigenvectors[:, self.root_index]


def hamiltonian_matrix(levels: np.ndarray, cm: CouplingModel) -> np.ndarray:
    """The dense matrix diag(levels) plus the drive terms of ``cm``."""
    coupled, block = _drive_block(levels, cm)
    m = np.diag(levels.astype(np.complex128))
    m[np.ix_(coupled, coupled)] = block
    return m


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigendecomposition sorted ascending (ties by the index of each
    eigenvector's largest-magnitude component), with that component made real
    positive."""
    w, v = np.linalg.eigh(matrix)
    pivots = np.argmax(np.abs(v), axis=0)
    order = np.lexsort((pivots, w))
    w, v, pivots = w[order], v[:, order], pivots[order]
    p = v[pivots, np.arange(len(w))]
    return w, v * (p.conj() / np.abs(p))


def _drive_block(levels: np.ndarray, cm: CouplingModel) -> tuple[np.ndarray, np.ndarray]:
    """Sorted indices with a nonzero drive term, and the Hamiltonian restricted
    to them: their levels on the diagonal, the drive terms off it.  Every
    drive pair, zero-valued ones too, must lie inside the levels."""
    for i, j, _ in cm.terms:
        try:
            integer(i, "i", len(levels)), integer(j, "j", len(levels))
        except RegistryError as exc:
            raise RegistryError(f"drive coupling ({i},{j}): {exc}") from None
    terms = [(i, j, v) for i, j, v in cm.terms if v != 0]
    coupled = sorted({k for i, j, _ in terms for k in (i, j)})
    block = np.diag(levels[coupled].astype(np.complex128))
    for i, j, v in terms:
        a, b = bisect_left(coupled, i), bisect_left(coupled, j)
        block[a, b], block[b, a] = v, v.conjugate()
    return np.array(coupled, dtype=np.intp), block


def propagate(s: QState, H: Hamiltonian | CouplingModel, dt: float) -> QState:
    """Apply exp(-i H dt); norm-preserving.  Elements without an off-diagonal
    entry take their exact phase, the rest are eigendecomposed together.

    A dense ``Hamiltonian`` must be over the state's basis; its coupled
    elements are found by scanning the off-diagonal.  A ``CouplingModel``
    stands for diag(basis levels) plus its drive terms: its drive indices are
    checked against the basis and only the coupled block is ever built.
    """
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if isinstance(H, CouplingModel):
        levels = s.basis.levels()
        coupled, block = _drive_block(levels, H)
    else:
        if H.basis != s.basis:
            raise ValueError("Hamiltonian and state are over different bases")
        m = H.matrix
        levels = np.diag(m).real
        offdiag = m != 0
        np.fill_diagonal(offdiag, False)
        coupled = np.flatnonzero(offdiag.any(axis=0) | offdiag.any(axis=1))
        block = m[np.ix_(coupled, coupled)]
    amps = s.amps * np.exp(-1j * levels * dt)
    if coupled.size:
        w, v = _eigh(block)
        amps[coupled] = v @ (np.exp(-1j * w * dt) * (v.conj().T @ s.amps[coupled]))
    return QState(s.basis, amps, s.time_tag + dt)


def solve_secular(matrix: np.ndarray, anchor: float) -> SecularSolution:
    """Eigendecomposition with the root chosen nearest the anchor level."""
    matrix = _hermitian(matrix, "secular matrix")
    anchor = finite(anchor, "anchor")
    w, v = _eigh(matrix)
    root = int(np.argmin(np.abs(w - anchor)))
    return SecularSolution(eigenvalues=w, eigenvectors=v, root_index=root)


def perturbative_amplitudes(matrix: np.ndarray, root: int) -> np.ndarray:
    """First-order amplitudes V_i,root / (E_root - E_i), 1 at the root;
    unnormalized.  Independent check for the secular root vector."""
    matrix = _hermitian(matrix, "secular matrix")
    n = len(matrix)
    root = integer(root, "root", n)
    e_root = matrix[root, root].real
    out = np.zeros(n, dtype=np.complex128)
    out[root] = 1.0
    for i in range(n):
        if i == root:
            continue
        gap = e_root - matrix[i, i].real
        if abs(matrix[i, root]) > 0 and abs(gap) <= _DEGENERACY_TOL:
            raise ValueError(f"degenerate levels at indices {root} and {i}: gap {gap}")
        if abs(gap) > _DEGENERACY_TOL:
            out[i] = matrix[i, root] / gap
    return out


def visibility(C1: complex, C2: complex) -> float:
    """Closed-form fringe visibility 2|C1||C2| / (|C1|^2 + |C2|^2)."""
    a, b = abs(C1), abs(C2)
    total = a * a + b * b
    if total == 0:
        raise ValueError("both amplitudes are zero")
    return 2.0 * a * b / total


def fringe_half_width(d: float, L: float, kappa: float) -> float:
    """Screen position of the first-order dark fringe (path difference pi/kappa).

    Points of constant path difference D lie on a hyperbola with the slits as
    foci; intersecting it with the screen plane gives
    x = (D/2) * sqrt(1 + L^2 / ((d/2)^2 - (D/2)^2)).  Requires kappa*d > pi.
    """
    delta = np.pi / kappa
    if delta >= d:
        raise ValueError("no first-order minimum: need kappa*d > pi")
    a = delta / 2.0
    b2 = (d / 2.0) ** 2 - a * a
    return float(a * np.sqrt(1.0 + L * L / b2))


def double_slit_pattern(C1: complex, C2: complex, d: float, L: float,
                        kappa: float, samples: int,
                        norm_tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Two-path interference intensity over a symmetric screen window.

    Returns (positions, intensities) with intensity(x) =
    |C1 exp(i kappa r1) + C2 exp(i kappa r2)|^2, r1/r2 the exact path lengths
    from the two slits.  The window spans the central fringe between the
    first-order minima, so with an odd sample count the grid hits the exact
    maximum (x = 0) and minima (endpoints).  A geometry whose half-width,
    path lengths or phases kappa*r are not finite floats is refused.
    """
    if not abs((abs(C1) * abs(C1) + abs(C2) * abs(C2)) - 1.0) <= tolerance(norm_tol, "norm_tol"):
        raise ValueError("|C1|^2 + |C2|^2 must be 1")
    if not all(0 < v < np.inf for v in (d, L, kappa)):
        raise ValueError("geometry parameters must be finite and positive")
    if not 1 <= (samples := integer(samples, "samples")) <= MAX_BASIS_SIZE:
        raise ValueError(f"samples must be from 1 to {MAX_BASIS_SIZE}")
    try:  # the largest phase on the window, at either end
        half = fringe_half_width(d, L, kappa)
        phase = kappa * math.sqrt(L * L + (half + d / 2.0) ** 2)
    except ArithmeticError:
        phase = math.inf
    if not math.isfinite(phase):
        raise ValueError(f"geometry d={d:g}, L={L:g}, kappa={kappa:g} out of range: its "
                         "half-width, path lengths or phases kappa*r are not finite")
    x = np.linspace(-half, half, samples)
    r1 = np.sqrt(L * L + (x - d / 2.0) ** 2)
    r2 = np.sqrt(L * L + (x + d / 2.0) ** 2)
    field = C1 * np.exp(1j * kappa * r1) + C2 * np.exp(1j * kappa * r2)
    return x, np.abs(field) ** 2
