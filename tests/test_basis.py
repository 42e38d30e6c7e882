import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import photonsim.basis as basis_module
from photonsim.basis import (
    ENTANGLED,
    PRODUCT,
    SINGLE_PARTITE,
    Basis,
    BasisElement,
    element_level,
    enumerate_basis,
)
from photonsim.labels import ENLabel, FockLabel, ModeLabel, PartitionScheme, Registry


@pytest.fixture
def pair_registry():
    return Registry.from_dict({
        "levels": [{"j": 0, "k": 0, "energy": 0.0}, {"j": 1, "k": 0, "energy": 1.0}],
        "modes": [{"id": "w", "omega": 1.0}],
    })


def fourfold(root, excited, m):
    """The four elements one EN pair and one mode span: the root with the
    quantum available and the excited level with the colored vacuum, each in
    product and entangled guise."""
    return [BasisElement(SINGLE_PARTITE, (en,), ((FockLabel(m, n), guise),))
            for en, n in ((root, 1), (excited, 0)) for guise in (PRODUCT, ENTANGLED)]


class TestFourfoldManifold:
    def test_resonant_levels_degenerate(self):
        root, exc = ENLabel(0, 0, 0.5), ENLabel(1, 0, 1.5)
        four = fourfold(root, exc, ModeLabel("w", 1.0))
        levels = [element_level(e) for e in four]
        assert levels == pytest.approx([1.5] * 4)

    def test_off_resonant_root_level_inside_gap(self):
        root, exc = ENLabel(0, 0, 0.0), ENLabel(1, 0, 1.0)
        four = fourfold(root, exc, ModeLabel("w", 0.7))
        dressed_root = element_level(four[1])
        assert element_level(four[0]) == dressed_root
        assert root.energy < dressed_root < exc.energy


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

    def test_unknown_guise_rejected(self):
        photon = ((FockLabel(ModeLabel("w", 1.0), 1), "bound"),)
        with pytest.raises(ValueError, match="unknown guise 'bound'"):
            BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, 0.0),), photon)


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
        for e in fourfold(root, exc, pair_registry.mode("w")):
            assert e in b

    def test_no_duplicates(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE],
                            [pair_registry.mode("w")], n_max=2)
        assert len(set(b)) == len(b)

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

    def test_elements_sharing_a_canonical_key_rejected(self):
        # Energies are not part of the key, so nothing would fix the order of
        # these two.
        low, high = (BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, e),)) for e in (0.0, 5.0))
        with pytest.raises(ValueError, match=re.escape("share the canonical key ('1-partite', ((0, 0),), ())")):
            Basis([low, high])

    def test_equal_elements_count_once(self):
        a, b = (BasisElement(SINGLE_PARTITE, (ENLabel(0, 0, 0.0),)) for _ in range(2))
        assert a is not b and list(Basis([a, b, a])) == [a]

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="at least one element"):
            Basis([])

    def test_element_at_never_wraps(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE],
                            [pair_registry.mode("w")], n_max=1)
        for i in (-1, len(b)):
            with pytest.raises(ValueError,
                               match=f"basis index must be an integer from 0 to {len(b) - 1}, got {i}"):
                b.element_at(i)

    def test_missing_element_raises(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE], [], n_max=0)
        stranger = BasisElement(SINGLE_PARTITE, (ENLabel(9, 0, 9.0),))
        with pytest.raises(KeyError):
            b.index(stranger)

    def test_order_independent_of_construction(self, pair_registry):
        b = enumerate_basis(pair_registry, [SINGLE_PARTITE],
                            [pair_registry.mode("w")], n_max=1)
        shuffled = list(b)
        random.Random(7).shuffle(shuffled)
        b2 = Basis(shuffled, metadata=b.metadata)
        assert tuple(b) == tuple(b2)
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

    def test_constituent_conservation_refused_before_any_element(self, pair_registry,
                                                                monkeypatch):
        def no_element(*args):
            raise AssertionError("an element was built")

        monkeypatch.setattr(basis_module, "BasisElement", no_element)
        parts = [PartitionScheme("one", ((1,),)), PartitionScheme("two", ((1,), (2,)))]
        with pytest.raises(ValueError, match=re.escape("partitions disagree on constituent count: [1, 2]")):
            enumerate_basis(pair_registry, parts, [pair_registry.mode("w")], n_max=1)


def nested_loop_basis(registry, partitions, modes, n_max):
    """The basis as ``enumerate_basis`` built it before it generated the
    canonical order directly: every combination in input order, with
    ``Basis`` keying, deduplicating and sorting them."""
    en_labels = [registry.levels[k] for k in sorted(registry.levels)]
    elements = [
        BasisElement(part, assignment, tuple(
            (FockLabel(mode, n), g) for mode, n, g in zip(modes, occs, guises)))
        for part in partitions
        for assignment in itertools.product(en_labels, repeat=part.n_blocks)
        for occs in itertools.product(range(n_max + 1), repeat=len(modes))
        for guises in itertools.product((PRODUCT, ENTANGLED), repeat=len(modes))
    ]
    meta = {"n_max": n_max, "modes": sorted(m.id for m in modes),
            "partitions": sorted(p.id for p in partitions)}
    return Basis(elements, metadata=meta)


def assert_enumerates_as_nested_loop(registry, partitions, modes, n_max):
    try:
        expected = nested_loop_basis(registry, partitions, modes, n_max)
    except ValueError:
        with pytest.raises(ValueError):
            enumerate_basis(registry, partitions, modes, n_max)
        return
    b = enumerate_basis(registry, partitions, modes, n_max)
    assert len(b) == len(expected)
    assert tuple(b) == tuple(expected)
    for i, e in enumerate(expected):
        assert b.index(e) == i and b.element_at(i) == e
    first, last = b.element_at(0), b.element_at(len(b) - 1)
    en = first.en_labels[0]
    same_key = BasisElement(first.partition, (ENLabel(en.j, en.k_sub, en.energy + 0.25),)
                            + first.en_labels[1:], first.photon_part)
    after_last = BasisElement(last.partition, (ENLabel(9, 0, 9.0),) * last.partition.n_blocks)
    for stranger in (same_key, after_last):
        with pytest.raises(KeyError, match="element not in basis"):
            b.index(stranger)
    assert b.levels().tobytes() == expected.levels().tobytes()
    assert b.to_json() == expected.to_json()


_LEVELS = st.builds(ENLabel, st.integers(0, 2), st.integers(0, 1), st.sampled_from([0.0, 0.5, 1.0]))
_BLOCKS = st.sampled_from([((1,),), ((1, 2),), ((1,), (2,)), ((2,), (1,))])


@st.composite
def small_registries(draw):
    """A registry, 1-3 partitions with ids in drawn order, 0-2 of its modes in
    drawn order, and n_max.  Some registries are built in the library with
    dict keys that disagree with their labels' keys."""
    labels = draw(st.lists(_LEVELS, min_size=1, max_size=3))
    if draw(st.booleans()):
        keys = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                             min_size=len(labels), max_size=len(labels), unique=True))
        levels = dict(zip(keys, labels))
    else:
        levels = {label.key: label for label in labels}
    ids = draw(st.lists(st.sampled_from("cab"), max_size=2, unique=True))
    modes = {i: ModeLabel(i, draw(st.sampled_from([0.5, 1.0, 1.5]))) for i in "abc"}
    part_ids = draw(st.lists(st.sampled_from(["q", "P", "b", "a1"]), min_size=1, max_size=3,
                             unique=True))
    partitions = [PartitionScheme(p, draw(_BLOCKS)) for p in part_ids]
    return (Registry(levels=levels, modes=modes), partitions, [modes[i] for i in ids],
            draw(st.integers(0, 2)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(small_registries())
def test_enumerates_as_the_nested_loop(drawn):
    assert_enumerates_as_nested_loop(*drawn)


@pytest.mark.parametrize("levels, size", [
    ({(0, 0): ENLabel(0, 0, 0.0), (1, 0): ENLabel(0, 0, 5.0)}, None),
    ({(0, 0): ENLabel(0, 0, 0.0), (0, 1): ENLabel(0, 0, 0.0)}, 2),
    ({(0, 0): ENLabel(1, 0, 1.0), (1, 0): ENLabel(0, 0, 0.0)}, 4),
], ids=["two-labels-one-key", "one-label-two-keys", "keys-out-of-label-order"])
def test_registry_keys_disagreeing_with_labels(levels, size):
    reg = Registry(levels=levels, modes={"w": ModeLabel("w", 1.0)})
    args = (reg, [SINGLE_PARTITE], [reg.mode("w")], 0)
    assert_enumerates_as_nested_loop(*args)
    if size is None:
        with pytest.raises(ValueError, match=re.escape("two EN levels share the key (0, 0)")):
            enumerate_basis(*args)
    else:
        assert len(enumerate_basis(*args)) == size
