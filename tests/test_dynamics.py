import math

import numpy as np
import pytest

import photonsim.dynamics as dynamics_module
from photonsim.basis import SINGLE_PARTITE, Basis, BasisElement, enumerate_basis
from photonsim.dynamics import (
    Hamiltonian,
    _eigh,
    double_slit_pattern,
    fringe_half_width,
    hamiltonian_matrix,
    perturbative_amplitudes,
    propagate,
    solve_secular,
    visibility,
)
from photonsim.labels import CouplingModel, ENLabel, Registry
from photonsim.qstate import QState, window_state

from oracles import charpoly_eigh, taylor_expm


def random_hermitian(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def secular_matrix(levels=(0.0, 10.0, 9.5, 7.0), v=0.2):
    m = np.diag(np.asarray(levels, dtype=complex))
    for i in (0, 2, 3):
        m[1, i] = m[i, 1] = v
    return m


def dense(b, cm):
    """The dense Hamiltonian of ``cm`` over basis ``b``."""
    return Hamiltonian(b, hamiltonian_matrix(b.levels(), cm))


@pytest.fixture
def two_level():
    """Degenerate two-element basis driven by a real coupling."""
    elements = [
        BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, 1.0),)),
        BasisElement(SINGLE_PARTITE, (ENLabel(1, 0, 1.0),)),
    ]
    return Basis(elements)


class TestEigh:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_reconstruction(self, n):
        H = random_hermitian(n, np.random.default_rng(n))
        w, v = _eigh(H)
        assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - H) < 1e-12 * max(np.linalg.norm(H), 1)
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < 1e-12

    def test_ascending_ties_by_index(self):
        w, v = _eigh(np.diag([2.0, 1.0, 1.0, 0.5, 2.0, 1.0]).astype(complex))
        assert list(w) == [0.5, 1.0, 1.0, 1.0, 2.0, 2.0]
        assert np.array_equal(v, np.eye(6)[:, [3, 1, 2, 5, 0, 4]])

    def test_phase_rule(self):
        H = random_hermitian(6, np.random.default_rng(0))
        _, v = _eigh(H)
        for k in range(6):
            pivot = np.argmax(np.abs(v[:, k]))
            assert abs(v[pivot, k].imag) < 1e-15 and v[pivot, k].real > 0.0

    def test_one_by_one(self):
        w, v = _eigh(np.array([[3.5 + 0j]]))
        assert w[0] == 3.5 and v[0, 0] == 1.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            _eigh(np.zeros((2, 3)))


class TestHamiltonian:
    def test_non_hermitian_rejected(self, two_level):
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian(two_level, np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("m", [[[0, np.nan], [np.nan, 1]], [[np.inf, 0], [0, 1]]])
    def test_non_finite_rejected(self, two_level, m):
        with pytest.raises(ValueError, match="Hamiltonian must be finite"):
            Hamiltonian(two_level, m)

    def test_shape_mismatch_rejected(self, two_level):
        with pytest.raises(ValueError):
            Hamiltonian(two_level, np.zeros((3, 3), dtype=complex))

    def test_build_diagonal_from_levels(self, two_level):
        H = dense(two_level, CouplingModel.from_rows([]))
        assert np.allclose(np.diag(H.matrix), [1.0, 1.0])
        assert np.count_nonzero(H.matrix - np.diag(np.diag(H.matrix))) == 0

    def test_build_includes_drive(self, two_level):
        cm = CouplingModel.from_rows([[0, 1, 0.2]])
        H = dense(two_level, cm)
        assert H.matrix[0, 1] == 0.2 and H.matrix[1, 0] == 0.2

    def test_drive_outside_basis_rejected(self, two_level):
        for pair in [(0, 5), (-1, 0), (0, -2)]:
            if min(pair) < 0:  # refused where the row is read, before any basis exists
                with pytest.raises(ValueError, match="must be an integer >= 0"):
                    CouplingModel.from_rows([[*pair, 0.2]])
            cm = CouplingModel(((*pair, 0.2),))  # hand-built, so the drive check meets it
            message = rf"drive coupling \({pair[0]},{pair[1]}\): [ij] must be an integer from 0 to 1"
            with pytest.raises(ValueError, match=message):
                dense(two_level, cm)
            with pytest.raises(ValueError, match=message):
                propagate(QState(two_level, [1.0, 0.0]), cm, 0.1)

    def test_zero_drive_outside_basis_rejected(self, two_level):
        cm = CouplingModel.from_rows([[0, 5, 0.0]])
        message = r"drive coupling \(0,5\): j must be an integer from 0 to 1, got 5"
        with pytest.raises(ValueError, match=message):
            dense(two_level, cm)
        with pytest.raises(ValueError, match=message):
            propagate(QState(two_level, [1.0, 0.0]), cm, 0.1)

    def test_registry_fourfold_levels(self):
        reg = Registry.from_dict({
            "levels": [{"j": 0, "k": 0, "energy": 0.0}, {"j": 1, "k": 0, "energy": 1.0}],
            "modes": [{"id": "w", "omega": 1.0}],
        })
        b = enumerate_basis(reg, [SINGLE_PARTITE], [reg.mode("w")], n_max=1)
        H = dense(b, CouplingModel.from_rows([]))
        # diagonal equals element levels, all real
        assert np.allclose(np.diag(H.matrix).imag, 0.0)


class TestPropagate:
    def test_dt_zero_is_identity(self, two_level):
        s = window_state(two_level, two_level.element_at(0))
        out = propagate(s, dense(two_level, CouplingModel.from_rows([])), 0.0)
        assert np.allclose(out.amps, s.amps, atol=1e-14)

    def test_diagonal_closed_form(self, two_level):
        H = dense(two_level, CouplingModel.from_rows([]))
        amps = np.array([0.6, 0.8], dtype=complex)
        out = propagate(QState(two_level, amps), H, 0.7)
        assert np.allclose(out.amps, amps * np.exp(-1j * 1.0 * 0.7), atol=1e-12)

    def test_rabi_half_cycle_transfers_fully(self, two_level):
        V = 0.2
        cm = CouplingModel.from_rows([[0, 1, V]])
        H = dense(two_level, cm)
        s = window_state(two_level, two_level.element_at(0))
        out = propagate(s, H, np.pi / (2 * V))
        assert abs(out.amps[0]) < 1e-12
        assert abs(out.amps[1]) == pytest.approx(1.0, abs=1e-12)

    def test_time_tag_advances(self, two_level):
        H = dense(two_level, CouplingModel.from_rows([]))
        s = window_state(two_level, two_level.element_at(0))
        assert propagate(s, H, 0.3).time_tag == pytest.approx(0.3)

    def test_basis_mismatch_rejected(self, two_level):
        other = Basis([BasisElement(SINGLE_PARTITE, (ENLabel(5, 0, 0.0),))])
        s = window_state(other, other.element_at(0))
        with pytest.raises(ValueError, match="different bases"):
            propagate(s, dense(two_level, CouplingModel.from_rows([])), 0.1)

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    def test_non_finite_dt_rejected(self, two_level, dt):
        s = window_state(two_level, two_level.element_at(0))
        with pytest.raises(ValueError, match="dt must be finite"):
            propagate(s, CouplingModel.from_rows([[0, 1, 0.2]]), dt)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_taylor_series(self, seed, two_level):
        rng = np.random.default_rng(seed)
        m = random_hermitian(2, rng)
        H = Hamiltonian(two_level, m)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        dt = rng.uniform(0.1, 3.0)
        out = propagate(QState(two_level, amps), H, dt)
        expect = taylor_expm(-1j * m * dt) @ amps
        assert np.allclose(out.amps, expect, atol=1e-10)

    def test_coupled_block_matches_taylor_series(self):
        levels = np.arange(16) * 0.37 + 0.1
        basis = Basis([BasisElement(SINGLE_PARTITE, (ENLabel(k, 0, e),))
                       for k, e in enumerate(levels)])
        cm = CouplingModel.from_rows([[2, 9, 0.3, 0.1], [9, 13, 0.25]])
        H = dense(basis, cm)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        out = propagate(QState(basis, amps), H, 2.3)
        expect = taylor_expm(-1j * H.matrix * 2.3) @ amps
        assert np.allclose(out.amps, expect, atol=1e-10)

    def test_unitarity_over_many_steps(self, two_level):
        cm = CouplingModel.from_rows([[0, 1, 0.37]])
        H = dense(two_level, cm)
        s = window_state(two_level, two_level.element_at(0))
        for _ in range(200):
            s = propagate(s, H, 0.05)
        assert s.norm() == pytest.approx(1.0, abs=1e-12)


class TestSecular:
    def test_diagonal_matrix_roots(self):
        sol = solve_secular(np.diag([1.0, 5.0, 3.0]).astype(complex), anchor=4.9)
        assert sol.eigenvalues == pytest.approx([1.0, 3.0, 5.0])
        assert sol.root_value == 5.0

    def test_default_channel_ranking(self):
        sol = solve_secular(secular_matrix(), anchor=10.0)
        c = np.abs(sol.root_vector)
        order = np.argsort(c)[::-1]
        assert list(order[:3]) == [1, 2, 3]
        assert c[2] / c[3] >= 5.0

    def test_anchor_at_bottom_swaps_ranking(self):
        sol = solve_secular(secular_matrix(), anchor=0.0)
        c = np.abs(sol.root_vector)
        assert np.argmax(c) == 0
        # closer level dominates among the admixtures reachable through index 1
        assert c[1] > c[2] and c[1] > c[3]

    def test_matches_charpoly_oracle(self):
        m = secular_matrix()
        sol = solve_secular(m, anchor=10.0)
        vals, vecs = charpoly_eigh(m)
        assert sol.eigenvalues == pytest.approx(vals, abs=1e-9)
        for k in range(4):
            overlap = abs(np.vdot(vecs[:, k], sol.eigenvectors[:, k]))
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            solve_secular(np.array([[0, 1], [0, 0]], dtype=complex), anchor=0.0)

    @pytest.mark.parametrize("m, message", [
        ([[np.nan, 0], [0, 1]], "must be finite"),
        (np.zeros((2, 3)), "non-empty square matrix, got shape"),
        (np.zeros((0, 0)), "non-empty square matrix, got shape"),
        ([1.0, 2.0], "non-empty square matrix, got shape"),
    ], ids=["nan", "not-square", "empty", "one-dimensional"])
    def test_matrix_that_is_not_finite_square_and_non_empty_rejected(self, m, message):
        with pytest.raises(ValueError, match=message):
            solve_secular(m, anchor=0.0)

    @pytest.mark.parametrize("anchor", [float("nan"), float("inf"), True, "1.5"])
    def test_anchor_must_be_a_finite_number(self, anchor):
        # a NaN anchor used to pick root 0: argmin over an all-NaN distance
        with pytest.raises(ValueError, match="anchor must be a finite number"):
            solve_secular(np.diag([1.0, 2.0]), anchor)


class TestPerturbative:
    def test_first_order_values(self):
        m = secular_matrix()
        amps = perturbative_amplitudes(m, root=1)
        assert amps[1] == 1.0
        assert amps[2] == pytest.approx(0.2 / (10.0 - 9.5))
        assert amps[3] == pytest.approx(0.2 / (10.0 - 7.0))
        assert amps[0] == pytest.approx(0.2 / (10.0 - 0.0))

    def test_error_scales_quadratically_in_coupling(self):
        errs = []
        for v in (0.2, 0.1, 0.05, 0.025):
            m = secular_matrix(v=v)
            exact = np.abs(solve_secular(m, anchor=10.0).root_vector)
            approx = np.abs(perturbative_amplitudes(m, root=1))
            errs.append(np.max(np.abs(exact - approx)))
        for big, small in zip(errs, errs[1:]):
            assert big / small == pytest.approx(4.0, rel=0.25)

    def test_degenerate_coupled_levels_rejected(self):
        m = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="degenerate"):
            perturbative_amplitudes(m, root=0)

    @pytest.mark.parametrize("m, message", [
        ([[np.nan, 0], [0, 1]], "must be finite"),
        (np.zeros((2, 3)), "non-empty square matrix"),
        ([[0, 1], [0, 0]], "Hermitian"),
    ], ids=["nan", "not-square", "not-hermitian"])
    def test_matrix_read_like_the_secular_solver(self, m, message):
        with pytest.raises(ValueError, match=message):
            perturbative_amplitudes(m, root=0)

    @pytest.mark.parametrize("root", [-1, 4, 7])
    def test_root_outside_never_wraps(self, root):
        with pytest.raises(ValueError, match=f"root must be an integer from 0 to 3, got {root}"):
            perturbative_amplitudes(secular_matrix(), root=root)

    def test_fractional_root_rejected(self):
        with pytest.raises(ValueError, match="root must be an integer from 0 to 3, got 1.0"):
            perturbative_amplitudes(secular_matrix(), root=1.0)

    def test_degenerate_uncoupled_levels_allowed(self):
        m = np.diag([1.0, 1.0, 2.0]).astype(complex)
        amps = perturbative_amplitudes(m, root=0)
        assert np.allclose(amps, [1.0, 0.0, 0.0])


class TestDoubleSlit:
    def test_visibility_balanced(self):
        assert visibility(1 / np.sqrt(2), 1 / np.sqrt(2)) == pytest.approx(1.0)

    def test_visibility_lopsided(self):
        assert visibility(np.sqrt(0.9), np.sqrt(0.1)) == pytest.approx(0.6)

    def test_visibility_single_path(self):
        assert visibility(1.0, 0.0) == 0.0

    def test_visibility_of_no_light_rejected(self):
        with pytest.raises(ValueError, match="both amplitudes are zero"):
            visibility(0.0, 0.0)

    def test_visibility_phase_independent(self):
        assert visibility(0.6 * np.exp(2j), 0.8) == pytest.approx(visibility(0.6, 0.8))

    def test_pattern_extrema_match_formula(self):
        c1 = c2 = 1 / np.sqrt(2)
        x, intensity = double_slit_pattern(c1, c2, d=5.0, L=100.0, kappa=2.0, samples=201)
        i_max, i_min = intensity.max(), intensity.min()
        vis = (i_max - i_min) / (i_max + i_min)
        assert vis == pytest.approx(visibility(c1, c2), abs=1e-9)
        assert np.argmax(intensity) == 100  # central maximum at x = 0

    def test_single_path_is_smooth(self):
        _, intensity = double_slit_pattern(1.0, 0.0, d=5.0, L=100.0, kappa=2.0, samples=101)
        assert intensity.max() - intensity.min() < 1e-3
        assert intensity == pytest.approx(np.ones_like(intensity), abs=2e-3)

    def test_window_endpoints_are_dark_fringes(self):
        x, intensity = double_slit_pattern(1 / np.sqrt(2), 1 / np.sqrt(2),
                                           d=5.0, L=100.0, kappa=2.0, samples=101)
        assert intensity[0] == pytest.approx(0.0, abs=1e-9)
        assert intensity[-1] == pytest.approx(0.0, abs=1e-9)
        assert x[-1] == pytest.approx(fringe_half_width(5.0, 100.0, 2.0))

    def test_kappa_d_too_small_rejected(self):
        with pytest.raises(ValueError, match="minimum"):
            double_slit_pattern(1.0, 0.0, d=1.0, L=10.0, kappa=3.0, samples=11)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="must be 1"):
            double_slit_pattern(1.0, 1.0, d=5.0, L=100.0, kappa=2.0, samples=11)

    @pytest.mark.parametrize("norm_tol", [math.nan, math.inf, -1.0, True])
    def test_norm_tol_must_be_a_finite_number_at_least_0(self, norm_tol):
        with pytest.raises(ValueError, match="norm_tol must be"):
            double_slit_pattern(1.0, 0.0, d=5.0, L=100.0, kappa=2.0, samples=11, norm_tol=norm_tol)

    def test_sample_count_cap_is_exact(self, monkeypatch):
        monkeypatch.setattr(dynamics_module, "MAX_BASIS_SIZE", 11)
        assert len(double_slit_pattern(1.0, 0.0, d=5.0, L=100.0, kappa=2.0, samples=11)[0]) == 11
        for samples in (0, 12):
            with pytest.raises(ValueError, match="samples must be from 1 to 11"):
                double_slit_pattern(1.0, 0.0, d=5.0, L=100.0, kappa=2.0, samples=samples)
