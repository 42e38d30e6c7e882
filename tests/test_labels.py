import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from photonsim.basis import PRODUCT, SINGLE_PARTITE, BasisElement, element_level, enumerate_basis
from photonsim.dynamics import double_slit_pattern, perturbative_amplitudes, propagate
from photonsim.labels import (
    CouplingModel,
    ENLabel,
    FockLabel,
    ModeLabel,
    PartitionScheme,
    Registry,
    RegistryError,
    coupling_value,
    integer,
    load_json,
)
from photonsim.qstate import QState
from photonsim.scenarios import attosecond_init, one_photon_dissociation_scenario


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


def dressed_level(en_label, focks):
    """The level of a one-block element holding ``focks`` in product guise."""
    return element_level(BasisElement(SINGLE_PARTITE, (en_label,),
                                      tuple((f, PRODUCT) for f in focks)))


class TestPhotonicLevel:
    def test_one_photon(self):
        assert dressed_level(en(0, 0, 2.0), [FockLabel(ModeLabel("w", 1.0), 1)]) == 3.0

    def test_empty_list(self):
        assert dressed_level(en(0, 0, 2.0), []) == 2.0

    def test_two_modes_hand_sum(self):
        # 0.5 + 2*0.3 + 1*0.1
        focks = [FockLabel(ModeLabel("a", 0.3), 2), FockLabel(ModeLabel("b", 0.1), 1)]
        assert dressed_level(en(0, 0, 0.5), focks) == pytest.approx(1.2)

    def test_duplicate_mode_rejected(self):
        m = ModeLabel("w", 1.0)
        with pytest.raises(ValueError):
            dressed_level(en(0, 0, 0.0), [FockLabel(m, 1), FockLabel(m, 0)])

    def test_non_finite_energy_rejected(self):
        with pytest.raises(ValueError, match="energy must be finite"):
            en(0, 0, math.nan)

    @given(st.integers(min_value=0, max_value=20),
           st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=-10.0, max_value=10.0))
    def test_linear_in_occupation(self, n, omega, energy):
        m = ModeLabel("w", omega)
        base = en(0, 0, energy)
        step = (dressed_level(base, [FockLabel(m, n + 1)])
                - dressed_level(base, [FockLabel(m, n)]))
        assert step == pytest.approx(omega, abs=1e-12, rel=1e-12)


class TestPartitionScheme:
    def test_valid(self):
        p = PartitionScheme("B1", ((1, 2, 3), (4,)))
        assert p.m == 4 and p.n_blocks == 2

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PartitionScheme("bad", ((1, 2), (2, 3)))

    def test_id_must_be_a_string(self):
        with pytest.raises(ValueError, match="id must be a string, got 7"):
            PartitionScheme(7, ((1,),))

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            PartitionScheme("bad", ((1,), (3,)))

    @pytest.mark.parametrize("blocks", [((1,), ()), ((), (1,)), ((1, 2), ())])
    def test_empty_block_rejected(self, blocks):
        with pytest.raises(ValueError, match="partition 'A': blocks must be non-empty"):
            PartitionScheme("A", blocks)


class TestCouplingModel:
    def test_absent_entry_is_zero(self):
        assert CouplingModel.from_rows([[0, 1, 0.3]]).terms == ((0, 1, 0.3),)
        assert CouplingModel.from_rows([]).terms == ()

    def test_one_term_per_pair_with_i_below_j(self):
        cm = CouplingModel.from_rows([[1, 0, 0.0, 1.0], [2, 0, 0.5]])
        assert cm.terms == ((0, 1, -1j), (0, 2, 0.5))

    def test_diagonal_drive_rejected(self):
        with pytest.raises(ValueError, match=r"couplings\[0\]: drive coupling \(2,2\) must be off-diagonal"):
            CouplingModel.from_rows([[2, 2, 1.0]])

    def test_from_rows_last_row_of_a_pair_wins(self):
        cm = CouplingModel.from_rows([[0, 1, 0.1], [1, 0, 0.2, 0.3], [0, 1, 0.4]])
        assert cm.terms == ((0, 1, 0.4),)
        assert cm == CouplingModel.from_rows([[1, 0, 0.4]])
        assert cm != CouplingModel.from_rows([[0, 1, 0.2, -0.3]])

    def test_never_equal_to_another_type(self):
        assert CouplingModel.from_rows([]) != {}

    def test_built_model_cannot_be_mutated(self):
        cm = CouplingModel.from_rows([[0, 1, 0.3]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            cm.terms = ()
        assert cm.terms == ((0, 1, 0.3),)


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


_TWO_LEVELS = [{"j": 0, "k": 0, "energy": 0.0}, {"j": 1, "k": 0, "energy": 1.0}]


def _coupling(frm, to, value):
    return {"from": frm, "to": to, "value": value}


class TestRegistry:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text("""{
            "levels": [{"j": 0, "k": 0, "energy": 0.0}, {"j": 1, "k": 0, "energy": 1.0}],
            "modes": [{"id": "w", "omega": 1.0, "dir": [0, 0, 1]}],
            "couplings": [{"from": [0, 0], "to": [1, 0], "value": [0.1, 0.0]}]
        }""")
        reg = Registry.from_dict(load_json(str(path)))
        assert reg.level(1).energy == 1.0
        assert reg.mode("w").direction == (0.0, 0.0, 1.0)

    def test_parse_error_cites_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"levels": [\n  {"j": }\n]}')
        with pytest.raises(RegistryError, match="line 2"):
            Registry.from_dict(load_json(str(path)))

    def test_conjugate_coupling_rows_accepted(self):
        rows = [_coupling([0, 0], [1, 0], [0.1, 0.2]), _coupling([1, 0], [0, 0], [0.1, -0.2]),
                _coupling([0, 0], [1, 0], [0.1, 0.2])]
        assert Registry.from_dict({"levels": _TWO_LEVELS, "couplings": rows}).level(1).energy == 1.0

    @pytest.mark.parametrize("second", [
        _coupling([1, 0], [0, 0], [0.1, 0.2]),
        _coupling([1, 0], [0, 0], 0.5),
        _coupling([0, 0], [1, 0], [0.1, 0.3]),
    ], ids=["reverse-not-conjugate", "reverse-other-value", "same-direction-other-value"])
    def test_disagreeing_coupling_rows_refused(self, second):
        rows = [_coupling([0, 0], [1, 0], [0.1, 0.2]), second]
        with pytest.raises(RegistryError, match=r"couplings\[1\]: non-Hermitian"):
            Registry.from_dict({"levels": _TWO_LEVELS, "couplings": rows})

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

    @pytest.mark.parametrize("mode_id", [None, 7])
    def test_mode_id_must_be_a_string(self, mode_id):
        with pytest.raises(RegistryError, match=rf"modes\[0\]: id must be a string, got {mode_id}"):
            Registry.from_dict({"modes": [{"id": mode_id, "omega": 1.0}]})

    def test_config_must_be_an_object(self):
        with pytest.raises(RegistryError, match="config must be an object"):
            Registry.from_dict([{"j": 0, "energy": 0.0}])


class TestInteger:
    @pytest.mark.parametrize("value, below", [(0, None), (7, None), (10 ** 30, None), (0, 1),
                                              (4, 5), (np.int64(3), 4), (np.uint8(2), None)])
    def test_accepted_as_a_plain_int(self, value, below):
        got = integer(value, "n", below)
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [True, False, 1.0, 1.5, "1", None, [1], np.float64(1.0),
                                       np.bool_(True), -1, np.int64(-2)])
    def test_refused(self, value):
        with pytest.raises(RegistryError, match=r"^n must be an integer >= 0, got "):
            integer(value, "n")

    @pytest.mark.parametrize("value", [-1, 3, 4, True])
    def test_bounded(self, value):
        with pytest.raises(RegistryError, match=rf"^i must be an integer from 0 to 2, got {value}$"):
            integer(value, "i", 3)


_REG = Registry.from_dict({"levels": _TWO_LEVELS, "modes": [{"id": "w", "omega": 1.0}]})
_BASIS = enumerate_basis(_REG, [SINGLE_PARTITE], [], n_max=0)


@pytest.mark.parametrize("call", [
    lambda: FockLabel(ModeLabel("w", 1.0), True),
    lambda: ENLabel(1.5, 0, 0.0),
    lambda: ENLabel(True, 0, 0.0),
    lambda: enumerate_basis(_REG, [SINGLE_PARTITE], [_REG.mode("w")], n_max=True),
    lambda: attosecond_init(100.0, 1.0, 1.0, True, _REG),
    lambda: double_slit_pattern(1.0, 0.0, d=5.0, L=100.0, kappa=2.0, samples=True),
    lambda: _BASIS.element_at(True),
    lambda: perturbative_amplitudes(np.diag([0.0, 1.0]), True),
    lambda: propagate(QState(_BASIS, [1.0, 0.0]), CouplingModel(((3, 1, 0.2),)), 0.1),
    lambda: one_photon_dissociation_scenario(outcome=True),
], ids=["fock-n-true", "en-j-fraction", "en-j-true", "n-max-true", "n-harmonics-true",
        "samples-true", "element-at-true", "root-true", "drive-term-3-1", "outcome-true"])
def test_library_reads_integers_through_one_reader(call):
    """A bool or fractional count or index, and a hand-built drive term
    outside the basis, are refused by ``labels.integer`` with a ``ValueError``."""
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_library_keeps_the_int_it_read():
    """A numpy integer count is read as a plain ``int``, and that ``int`` is
    what the library keeps: the basis metadata still serialises."""
    scn = one_photon_dissociation_scenario(outcome=np.int64(2))
    assert type(scn.basis.metadata["outcome"]) is int
    assert '"outcome":2' in scn.basis.to_json()
    state = attosecond_init(100.0, 1.0, 1.0, np.int64(3), _REG)
    assert len(state.basis) == 3 + len(_REG.levels) - 1
    x, _ = double_slit_pattern(1.0, 0.0, d=5.0, L=100.0, kappa=2.0, samples=np.int64(5))
    assert len(x) == 5
