import itertools
import random

import pytest

import photonsim.basis as basis_module
from photonsim.basis import (
    ENTANGLED,
    PRODUCT,
    SINGLE_PARTITE,
    Basis,
    BasisElement,
    element_level,
    enumerate_basis,
    fourfold_manifold,
)
from photonsim.labels import ENLabel, FockLabel, ModeLabel, PartitionScheme, Registry


@pytest.fixture
def pair_registry():
    return Registry.from_dict({
        "levels": [{"j": 0, "k": 0, "energy": 0.0}, {"j": 1, "k": 0, "energy": 1.0}],
        "modes": [{"id": "w", "omega": 1.0}],
    })


class TestFourfoldManifold:
    def test_order_and_guises(self):
        root, exc = ENLabel(0, 0, 0.0), ENLabel(1, 0, 1.0)
        four = fourfold_manifold(root, exc, ModeLabel("w", 1.0))
        assert [e.en_labels[0] for e in four] == [root, root, exc, exc]
        assert [e.photon_part[0][0].n for e in four] == [1, 1, 0, 0]
        assert [e.photon_part[0][1] for e in four] == [PRODUCT, ENTANGLED, PRODUCT, ENTANGLED]

    def test_resonant_levels_degenerate(self):
        root, exc = ENLabel(0, 0, 0.5), ENLabel(1, 0, 1.5)
        four = fourfold_manifold(root, exc, ModeLabel("w", 1.0))
        levels = [element_level(e) for e in four]
        assert levels == pytest.approx([1.5] * 4)

    def test_off_resonant_root_level_inside_gap(self):
        root, exc = ENLabel(0, 0, 0.0), ENLabel(1, 0, 1.0)
        four = fourfold_manifold(root, exc, ModeLabel("w", 0.7))
        dressed_root = element_level(four[1])
        assert element_level(four[0]) == dressed_root
        assert root.energy < dressed_root < exc.energy

    def test_degenerate_labels_rejected(self):
        root = ENLabel(0, 0, 0.0)
        with pytest.raises(ValueError):
            fourfold_manifold(root, root, ModeLabel("w", 1.0))


class TestBasisElement:
    def test_duplicate_modes_rejected(self):
        m = ModeLabel("w", 1.0)
        with pytest.raises(ValueError):
            BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, 0.0),),
                         ((FockLabel(m, 1), PRODUCT), (FockLabel(m, 0), ENTANGLED)))

    def test_label_count_must_match_blocks(self):
        part = PartitionScheme("B1", ((1,), (2,)))
        with pytest.raises(ValueError):
            BasisElement(part, (ENLabel(0, 0, 0.0),))

    def test_equality_is_structural(self):
        m = ModeLabel("w", 1.0)
        a = BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, 0.0),), ((FockLabel(m, 1), PRODUCT),))
        b = BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, 0.0),), ((FockLabel(m, 1), PRODUCT),))
        c = BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, 0.0),), ((FockLabel(m, 1), ENTANGLED),))
        assert a == b and a != c

    def test_unknown_guise_and_phase_dir_rejected(self):
        photon = ((FockLabel(ModeLabel("w", 1.0), 1), "bound"),)
        with pytest.raises(ValueError, match="unknown guise 'bound'"):
            BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, 0.0),), photon)
        with pytest.raises(ValueError, match="phase_dir"):
            BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, 0.0),), phase_dir=2)


class TestEnumerateBasis:
    def test_pair_one_mode_count(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE],
                            [pair_registry.mode("w")], n_max=1)
        assert len(b) == 8  # 2 EN x 2 occupations x 2 guises

    def test_vacuum_only(self):
        reg = Registry.from_dict({
            "levels": [{"j": 0, "k": 0, "energy": 0.0}],
            "modes": [{"id": "w", "omega": 1.0}],
        })
        b = enumerate_basis(reg, [SINGLE_PARTITE], [reg.mode("w")], n_max=0)
        assert len(b) == 2
        assert all(e.photon_part[0][0].n == 0 for e in b)

    def test_no_modes(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE], [], n_max=1)
        assert len(b) == 2

    def test_fourfold_closure(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE],
                            [pair_registry.mode("w")], n_max=1)
        root, exc = pair_registry.level(0), pair_registry.level(1)
        for e in fourfold_manifold(root, exc, pair_registry.mode("w")):
            assert e in b

    def test_no_duplicates(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE],
                            [pair_registry.mode("w")], n_max=2)
        assert len(set(b.elements)) == len(b)

    def test_chromophore_configuration_contains_channel_elements(self):
        reg = Registry.from_dict({
            "levels": [{"j": 0, "k": 0, "energy": 0.0}, {"j": 1, "k": 0, "energy": 1.0}],
            "modes": [{"id": "w", "omega": 1.0}],
        })
        m = 5
        a0 = PartitionScheme("A0", (tuple(range(1, m + 1)),))
        b1 = PartitionScheme("B1", (tuple(range(1, m)), (m,)))
        b2 = PartitionScheme("B2", ((1,), tuple(range(2, m + 1))))
        c3 = PartitionScheme("C", (tuple(range(1, m - 1)), (m - 1,), (m,)))
        basis = enumerate_basis(reg, [a0, b1, b2, c3], [reg.mode("w")], n_max=1)

        ground, chrom = reg.level(0), reg.level(1)
        w = reg.mode("w")
        expected = [
            BasisElement(a0, (ground,), ((FockLabel(w, 1), PRODUCT),)),     # a1
            BasisElement(a0, (ground,), ((FockLabel(w, 1), ENTANGLED),)),   # a2
            BasisElement(a0, (chrom,), ((FockLabel(w, 0), ENTANGLED),)),    # a3
            BasisElement(b1, (ground, ground), ((FockLabel(w, 0), PRODUCT),)),   # b
            BasisElement(b2, (ground, chrom), ((FockLabel(w, 0), PRODUCT),)),    # b'
            BasisElement(c3, (ground, ground, ground), ((FockLabel(w, 0), PRODUCT),)),  # c
        ]
        for e in expected:
            assert e in basis

    def test_negative_n_max_rejected(self, pair_registry):
        with pytest.raises(ValueError):
            enumerate_basis(pair_registry, [SINGLE_PARTITE], [], n_max=-1)

    def test_empty_partitions_rejected(self, pair_registry):
        with pytest.raises(ValueError):
            enumerate_basis(pair_registry, [], [], n_max=0)

    def test_unknown_mode_rejected(self, pair_registry):
        with pytest.raises(ValueError, match="not in registry"):
            enumerate_basis(pair_registry, [SINGLE_PARTITE],
                            [ModeLabel("nope", 2.0)], n_max=0)

    def test_duplicate_partitions_and_modes_rejected(self, pair_registry):
        w = pair_registry.mode("w")
        with pytest.raises(ValueError, match="partition ids"):
            enumerate_basis(pair_registry, [SINGLE_PARTITE, SINGLE_PARTITE], [w], n_max=0)
        with pytest.raises(ValueError, match="modes must be distinct"):
            enumerate_basis(pair_registry, [SINGLE_PARTITE], [w, w], n_max=0)

    def test_size_cap_is_exact(self, pair_registry, monkeypatch):
        # (2 levels)^1 block * (2 guises * 3 occupations)^1 mode = 12 elements
        parts, modes = [SINGLE_PARTITE], [pair_registry.mode("w")]
        monkeypatch.setattr(basis_module, "MAX_BASIS_SIZE", 12)
        assert len(enumerate_basis(pair_registry, parts, modes, n_max=2)) == 12
        monkeypatch.setattr(basis_module, "MAX_BASIS_SIZE", 11)
        with pytest.raises(ValueError, match="more than 11 elements"):
            enumerate_basis(pair_registry, parts, modes, n_max=2)


class TestCanonicalOrder:
    def test_index_round_trip(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE],
                            [pair_registry.mode("w")], n_max=1)
        for i, e in enumerate(b):
            assert b.index(e) == i
            assert b.element_at(i) == e

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="at least one element"):
            Basis([])

    def test_element_at_never_wraps(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE],
                            [pair_registry.mode("w")], n_max=1)
        for i in (-1, len(b)):
            with pytest.raises(IndexError, match=f"index {i} outside basis of size {len(b)}"):
                b.element_at(i)

    def test_missing_element_raises(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE], [], n_max=0)
        stranger = BasisElement(SINGLE_PARTITE, (ENLabel(9, 0, 9.0),))
        with pytest.raises(KeyError):
            b.index(stranger)

    def test_order_independent_of_construction(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE],
                            [pair_registry.mode("w")], n_max=1)
        shuffled = list(b.elements)
        random.Random(7).shuffle(shuffled)
        b2 = Basis(shuffled, metadata=b.metadata)
        assert b.elements == b2.elements
        assert b.to_json() == b2.to_json()

    def test_serialization_deterministic(self, pair_registry):
        args = (pair_registry, [SINGLE_PARTITE], [pair_registry.mode("w")], 1)
        assert enumerate_basis(*args).to_json() == enumerate_basis(*args).to_json()

    def test_levels_computed_once_and_read_only(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE], [pair_registry.mode("w")], 1)
        levels = b.levels()
        assert b.levels() is levels
        assert not levels.flags.writeable
        assert levels.tolist() == [element_level(e) for e in b]

    def test_constituent_conservation(self):
        p1 = PartitionScheme("one", ((1,),))
        p2 = PartitionScheme("two", ((1,), (2,)))
        e1 = BasisElement(p1, (ENLabel(0, 0, 0.0),))
        e2 = BasisElement(p2, (ENLabel(0, 0, 0.0), ENLabel(1, 0, 1.0)))
        with pytest.raises(ValueError, match="constituent count"):
            Basis([e1, e2])
