import math

import pytest
from hypothesis import given, strategies as st

from photonsim.labels import (
    CouplingModel,
    ENLabel,
    FockLabel,
    ModeLabel,
    PartitionScheme,
    Registry,
    RegistryError,
    coupling_value,
    is_resonant,
    photonic_level,
)


def en(j, k, e):
    return ENLabel(j, k, e)


class TestModeLabel:
    def test_direction_is_normalized(self):
        m = ModeLabel("w", 2.0, (3.0, 4.0, 0.0))
        assert m.direction == pytest.approx((0.6, 0.8, 0.0))
        assert m.momentum == pytest.approx((1.2, 1.6, 0.0))

    def test_zero_omega_rejected(self):
        with pytest.raises(ValueError):
            ModeLabel("w", 0.0)

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            ModeLabel("w", -1.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            ModeLabel("w", 1.0, (0.0, 0.0, 0.0))


class TestFockLabel:
    def test_vacuum_allowed(self):
        f = FockLabel(ModeLabel("w", 1.0), 0)
        assert f.energy == 0.0

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            FockLabel(ModeLabel("w", 1.0), -1)

    def test_energy(self):
        assert FockLabel(ModeLabel("w", 0.3), 2).energy == pytest.approx(0.6)


class TestResonance:
    def test_exact_gap(self):
        assert is_resonant(en(1, 0, 1.5), en(0, 0, 0.5), ModeLabel("w", 1.0), 1e-9)

    def test_off_resonance(self):
        assert not is_resonant(en(1, 0, 1.5), en(0, 0, 0.5), ModeLabel("w", 0.9), 1e-9)

    def test_symmetric_under_swap(self):
        a, b, m = en(1, 0, 1.5), en(0, 0, 0.5), ModeLabel("w", 1.0)
        assert is_resonant(a, b, m) == is_resonant(b, a, m)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_resonant(en(1, 0, 1.0), en(0, 0, 0.0), ModeLabel("w", 1.0), -1.0)


class TestPhotonicLevel:
    def test_one_photon(self):
        assert photonic_level(en(0, 0, 2.0), [FockLabel(ModeLabel("w", 1.0), 1)]) == 3.0

    def test_empty_list(self):
        assert photonic_level(en(0, 0, 2.0), []) == 2.0

    def test_two_modes_hand_sum(self):
        # 0.5 + 2*0.3 + 1*0.1
        focks = [FockLabel(ModeLabel("a", 0.3), 2), FockLabel(ModeLabel("b", 0.1), 1)]
        assert photonic_level(en(0, 0, 0.5), focks) == pytest.approx(1.2)

    def test_duplicate_mode_rejected(self):
        m = ModeLabel("w", 1.0)
        with pytest.raises(ValueError):
            photonic_level(en(0, 0, 0.0), [FockLabel(m, 1), FockLabel(m, 0)])

    @given(st.integers(min_value=0, max_value=20),
           st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=-10.0, max_value=10.0))
    def test_linear_in_occupation(self, n, omega, energy):
        m = ModeLabel("w", omega)
        base = en(0, 0, energy)
        step = (photonic_level(base, [FockLabel(m, n + 1)])
                - photonic_level(base, [FockLabel(m, n)]))
        assert step == pytest.approx(omega, abs=1e-12, rel=1e-12)


class TestPartitionScheme:
    def test_valid(self):
        p = PartitionScheme("B1", ((1, 2, 3), (4,)))
        assert p.m == 4 and p.n_blocks == 2

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PartitionScheme("bad", ((1, 2), (2, 3)))

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            PartitionScheme("bad", ((1,), (3,)))


class TestCouplingModel:
    def test_hermitian_storage(self):
        a, b = en(0, 0, 0.0), en(1, 0, 1.0)
        cm = CouplingModel()
        cm.set_transition(a, b, 0.1 + 0.2j)
        assert cm.transition(b, a) == (0.1 - 0.2j)

    def test_absent_entry_is_zero(self):
        cm = CouplingModel()
        assert cm.transition(en(0, 0, 0.0), en(2, 0, 2.0)) == 0.0

    def test_conflicting_entry_rejected(self):
        a, b = en(0, 0, 0.0), en(1, 0, 1.0)
        cm = CouplingModel()
        cm.set_transition(a, b, 0.1 + 0.2j)
        with pytest.raises(ValueError):
            cm.set_transition(b, a, 0.5)

    def test_drive_pairs_hermitian(self):
        cm = CouplingModel(mode_couplings={(0, 1): 1j})
        assert cm.drive(1, 0) == -1j
        assert cm.drive_pairs == [(0, 1)]

    def test_diagonal_drive_rejected(self):
        cm = CouplingModel()
        with pytest.raises(ValueError):
            cm.set_drive(2, 2, 1.0)

    def test_from_rows_last_row_of_a_pair_wins(self):
        cm = CouplingModel.from_rows([[0, 1, 0.1], [1, 0, 0.2, 0.3], [0, 1, 0.4]])
        assert cm.drive(0, 1) == 0.4 and cm.drive(1, 0) == 0.4
        assert cm == CouplingModel(mode_couplings={(1, 0): 0.4})
        assert cm != CouplingModel(mode_couplings={(0, 1): 0.2 - 0.3j})


class TestCouplingValue:
    @pytest.mark.parametrize("value, expected", [
        (0.2, 0.2), (3, 3.0), ([0.1, -0.2], 0.1 - 0.2j), ((0, 1), 1j), (0.1 + 0.2j, 0.1 + 0.2j)])
    def test_accepted(self, value, expected):
        assert coupling_value(value) == expected

    @pytest.mark.parametrize("value", [
        "0.2", "0.2+0.1j", ["0.1", 0], True, None, [0.1], [0.1, 0.2, 0.3], math.nan,
        complex(0.1, math.inf), 10 ** 400])
    def test_refused(self, value):
        with pytest.raises(RegistryError, match="finite number"):
            coupling_value(value)


class TestRegistry:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text("""{
            "levels": [{"j": 0, "k": 0, "energy": 0.0}, {"j": 1, "k": 0, "energy": 1.0}],
            "modes": [{"id": "w", "omega": 1.0, "dir": [0, 0, 1]}],
            "couplings": [{"from": [0, 0], "to": [1, 0], "value": [0.1, 0.0]}]
        }""")
        reg = Registry.from_json(str(path))
        assert reg.level(1).energy == 1.0
        assert reg.mode("w").direction == (0.0, 0.0, 1.0)
        assert reg.couplings.transition(reg.level(0), reg.level(1)) == 0.1

    def test_parse_error_cites_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"levels": [\n  {"j": }\n]}')
        with pytest.raises(RegistryError, match="line 2"):
            Registry.from_json(str(path))

    def test_field_error_cites_entry(self):
        with pytest.raises(RegistryError, match=r"levels\[0\]"):
            Registry.from_dict({"levels": [{"j": 0}]})

    def test_unknown_level_in_coupling(self):
        data = {"levels": [{"j": 0, "k": 0, "energy": 0.0}],
                "couplings": [{"from": [0, 0], "to": [7, 0], "value": 0.1}]}
        with pytest.raises(RegistryError, match="unknown EN level"):
            Registry.from_dict(data)

    def test_duplicate_level_rejected(self):
        data = {"levels": [{"j": 0, "k": 0, "energy": 0.0},
                           {"j": 0, "k": 0, "energy": 1.0}]}
        with pytest.raises(RegistryError, match="duplicate"):
            Registry.from_dict(data)
