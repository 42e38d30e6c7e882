import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import photonsim
from photonsim.basis import (
    ENTANGLED,
    PRODUCT,
    SINGLE_PARTITE,
    Basis,
    BasisElement,
    enumerate_basis,
)
from photonsim.labels import ENLabel, FockLabel, ModeLabel, Registry
from photonsim.qstate import EmissionRecord, QState, decohere, erase, support, window_state
from photonsim.scenarios import halted_light_scenario, lambda_scenario


@pytest.fixture
def lam():
    return lambda_scenario()


@pytest.fixture
def basis(lam):
    return lam.basis


def random_state(basis, rng):
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    amps /= np.linalg.norm(amps)
    return QState(basis, amps)


class TestQState:
    def test_length_mismatch_rejected(self, basis):
        with pytest.raises(ValueError):
            QState(basis, np.zeros(len(basis) + 1, dtype=complex))

    def test_non_finite_rejected(self, basis):
        amps = np.zeros(len(basis), dtype=complex)
        amps[0] = np.nan
        with pytest.raises(ValueError):
            QState(basis, amps)

    def test_zero_normalization_errors(self, basis):
        s = QState(basis, np.zeros(len(basis), dtype=complex))
        with pytest.raises(ValueError):
            s.normalized()


class TestWindowState:
    def test_opening_channel(self, lam):
        s = window_state(lam.basis, lam.named_elements["root_in"])
        idx = lam.index("root_in")
        assert s.amps[idx] == 1.0
        assert support(s) == {idx}

    def test_norm_is_one(self, lam):
        assert window_state(lam.basis, lam.named_elements["root_in"]).norm() == 1.0

    def test_deterministic(self, lam):
        e = lam.named_elements["dark_vac"]
        a = window_state(lam.basis, e)
        b = window_state(lam.basis, e)
        assert np.array_equal(a.amps, b.amps)

    def test_element_not_in_basis(self, basis):
        stranger = BasisElement(SINGLE_PARTITE, (ENLabel(9, 9, 9.0),))
        with pytest.raises(KeyError):
            window_state(basis, stranger)


class TestErase:
    def test_erase_all_gives_zero_vector(self, lam):
        s = window_state(lam.basis, lam.named_elements["root_in"])
        z = erase(s, range(len(lam.basis)))
        assert z.norm() == 0.0
        with pytest.raises(ValueError):
            erase(s, range(len(lam.basis)), renormalize=True)

    def test_erase_empty_is_identity(self, lam):
        s = window_state(lam.basis, lam.named_elements["root_in"])
        assert np.array_equal(erase(s, []).amps, s.amps)

    def test_incoming_channel_switch_off(self, lam):
        # incoming beam switched off: the opening channel amplitude erased,
        # base set untouched
        rng = np.random.default_rng(3)
        s = random_state(lam.basis, rng)
        idx = lam.index("root_in")
        out = erase(s, [idx])
        assert idx not in support(out)
        assert out.basis is s.basis

    def test_out_of_range(self, lam):
        s = window_state(lam.basis, lam.named_elements["root_in"])
        with pytest.raises(ValueError, match="erase index must be an integer from 0 to 9, got 10"):
            erase(s, [len(lam.basis)])

    def test_fractional_index_rejected(self, lam):
        s = window_state(lam.basis, lam.named_elements["root_in"])
        with pytest.raises(ValueError, match="erase index must be an integer"):
            erase(s, [1.7])

    @given(st.sets(st.integers(min_value=0, max_value=9)), st.integers(0, 2 ** 31))
    def test_idempotent_and_support_monotone(self, indices, seed):
        lam = lambda_scenario()
        s = random_state(lam.basis, np.random.default_rng(seed))
        once = erase(s, indices)
        twice = erase(once, indices)
        assert np.array_equal(once.amps, twice.amps)
        assert support(once) == support(s) - indices


class TestSupport:
    def test_window_is_singleton(self, lam):
        s = window_state(lam.basis, lam.named_elements["stored" if False else "root_in"])
        assert len(support(s)) == 1

    def test_large_tol_empty(self, lam):
        s = window_state(lam.basis, lam.named_elements["root_in"])
        assert support(s, tol=2.0) == frozenset()

    def test_negative_tol_rejected(self, lam):
        s = window_state(lam.basis, lam.named_elements["root_in"])
        with pytest.raises(ValueError):
            support(s, tol=-1.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, True])
    def test_tol_must_be_a_finite_number_at_least_0(self, lam, tol):
        s = window_state(lam.basis, lam.named_elements["root_in"])
        with pytest.raises(ValueError, match="tol must be"):
            support(s, tol)

    def test_partial_pattern(self, lam):
        amps = np.zeros(len(lam.basis), dtype=complex)
        nonzero = {lam.index("root_ent"), lam.index("upper_with12")}
        for i in nonzero:
            amps[i] = 1 / np.sqrt(2)
        assert support(QState(lam.basis, amps)) == nonzero


class TestDecohere:
    def test_spontaneous_emission_pattern(self, lam):
        # single amplitude on the emission root; all-zero residual plus a
        # record carrying the removed quantum
        s = window_state(lam.basis, lam.named_elements["emit_root"])
        residual, rec = decohere(s, lam.index("emit_root"), lam.index("emit_target"),
                                 R=(0.0, 5.0, 0.0))
        assert support(residual) == frozenset()
        assert rec.mode.id == "w12"
        assert rec.direction == pytest.approx((0.0, 1.0, 0.0))
        assert rec.amplitude == 1.0
        assert rec.location_R == (0.0, 5.0, 0.0)

    def test_record_direction_is_that_of_its_mode(self):
        mode = ModeLabel("k", 1.0, (0.0, 3.0, 4.0))
        rec = EmissionRecord(mode, (0.0, 0.0, 0.0), 1.0, 0)
        assert rec.direction == mode.direction == pytest.approx((0.0, 0.6, 0.8))

    def test_conservation(self, lam):
        rng = np.random.default_rng(11)
        s = random_state(lam.basis, rng)
        emit = lam.index("emit_root")
        residual, rec = decohere(s, emit, lam.index("emit_target"))
        total = abs(rec.amplitude) ** 2 + residual.norm() ** 2
        assert total == pytest.approx(s.norm() ** 2, abs=1e-12)

    def test_memory_loss_support(self):
        # the stored halted-light state emits its retained quantum; the
        # renormalized residual lands on the target and every element still
        # entangled with the pump mode stays dark
        scn = halted_light_scenario()
        s = window_state(scn.basis, scn.named_elements["stored"])
        residual, rec = decohere(s, scn.index("stored"), scn.index("memory_loss"),
                                 renormalize=True)
        assert support(residual) == {scn.index("memory_loss")}
        assert rec.mode.id == "w12p"
        pump_entangled = {
            i for i, e in enumerate(scn.basis)
            if any(f.mode.id == "w20f" and g == ENTANGLED for f, g in e.photon_part)
        }
        assert support(residual) & pump_entangled == set()

    def test_emitted_energy_matches_gap(self, lam):
        s = window_state(lam.basis, lam.named_elements["emit_root"])
        _, rec = decohere(s, lam.index("emit_root"), lam.index("emit_target"))
        from photonsim.basis import element_level
        gap = (element_level(lam.named_elements["emit_root"])
               - element_level(lam.named_elements["emit_target"]))
        assert rec.mode.omega == pytest.approx(gap, abs=1e-9)

    @pytest.mark.parametrize("emit, target", [(-3, -1), (5, 8)])
    def test_index_outside_basis_rejected(self, emit, target):
        reg = Registry.from_dict({
            "levels": [{"j": 0, "k": 0, "energy": 0.0}, {"j": 1, "k": 0, "energy": 1.0}],
            "modes": [{"id": "w", "omega": 1.0}],
        })
        b = enumerate_basis(reg, [SINGLE_PARTITE], [reg.mode("w")], n_max=1)
        s = window_state(b, b.element_at(5))
        with pytest.raises(ValueError, match="basis index must be an integer from 0 to 7"):
            decohere(s, emit, target)

    def test_not_in_support_rejected(self, lam):
        s = window_state(lam.basis, lam.named_elements["root_in"])
        with pytest.raises(ValueError, match="support"):
            decohere(s, lam.index("emit_root"), lam.index("emit_target"))

    def test_no_photon_available_rejected(self, lam):
        # dark_vac and emit_target have equal occupations everywhere
        s = window_state(lam.basis, lam.named_elements["dark_vac"])
        with pytest.raises(ValueError, match="photon"):
            decohere(s, lam.index("dark_vac"), lam.index("emit_target"))

    def test_mode_named_for_a_second_photon_does_not_follow_the_hash_seed(self):
        # Modes are walked in id order, so in every process 'a' is taken as
        # the emitted photon and 'b' is the one named as left over.
        code = (
            "from photonsim.basis import SINGLE_PARTITE, PRODUCT, Basis, BasisElement\n"
            "from photonsim.labels import ENLabel, FockLabel, ModeLabel\n"
            "from photonsim.qstate import decohere, window_state\n"
            "en = (ENLabel(0, 0, 0.0),)\n"
            "modes = [ModeLabel(c, 1.0) for c in 'hgfedcba']\n"
            "emit = BasisElement(SINGLE_PARTITE, en, [(FockLabel(m, 1), PRODUCT) for m in modes])\n"
            "vacuum = BasisElement(SINGLE_PARTITE, en)\n"
            "b = Basis([emit, vacuum])\n"
            "try:\n"
            "    decohere(window_state(b, emit), b.index(emit), b.index(vacuum))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(photonsim.__file__))
        for seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True).stdout
            assert out == ("target must differ from the emitter by exactly one photon; "
                           "mode 'b' goes 1 -> 0\n")

    def test_energy_mismatch_rejected(self):
        # removing a photon while also dropping the EN level violates the
        # emission-energy bookkeeping
        w = ModeLabel("w", 1.0)
        hot = BasisElement(SINGLE_PARTITE, (ENLabel(1, 0, 0.5),), ((FockLabel(w, 1), PRODUCT),))
        cold = BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, 0.0),), ((FockLabel(w, 0), PRODUCT),))
        b = Basis([hot, cold])
        s = window_state(b, hot)
        with pytest.raises(ValueError, match="energy"):
            decohere(s, b.index(hot), b.index(cold))
