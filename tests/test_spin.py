import itertools

import numpy as np
import pytest

from photonsim.spin import (
    SPIN_BASIS,
    SpinSpaceFunction,
    permute_labels,
    s_squared_matrix,
    s_z_matrix,
    singlet,
    spin_expectation,
    triplet,
)

SQRT2 = np.sqrt(2.0)


def all_four():
    return [("singlet", singlet()), ("t+1", triplet(1)),
            ("t0", triplet(0)), ("t-1", triplet(-1))]


class TestConstruction:
    def test_singlet_coefficients(self):
        assert singlet().spin_part == pytest.approx([0, 1 / SQRT2, -1 / SQRT2, 0])
        assert singlet().space_part == pytest.approx([1 / SQRT2, 1 / SQRT2])

    def test_triplet_up_coefficients(self):
        t = triplet(1)
        assert t.spin_part == pytest.approx([1, 0, 0, 0])
        assert t.space_part == pytest.approx([1 / SQRT2, -1 / SQRT2])

    def test_basis_order(self):
        assert SPIN_BASIS == ("aa", "ab", "ba", "bb")

    def test_invalid_ms(self):
        with pytest.raises(ValueError):
            triplet(2)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            SpinSpaceFunction(np.array([1.0, 1.0, 0, 0]), np.array([1.0, 0.0]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="4-dim"):
            SpinSpaceFunction(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_pretty_singlet(self):
        assert singlet().pretty() == "(ab - ba)/sqrt2 x (P1 + P2)/sqrt2"


class TestSpinExpectation:
    def test_singlet_total_spin_zero(self):
        assert spin_expectation(singlet(), s_squared_matrix()) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("ms", [-1, 0, 1])
    def test_triplet_total_spin_two(self, ms):
        assert spin_expectation(triplet(ms), s_squared_matrix()) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("ms", [-1, 0, 1])
    def test_triplet_sz(self, ms):
        assert spin_expectation(triplet(ms), s_z_matrix()) == pytest.approx(float(ms), abs=1e-12)

    def test_s_squared_commutes_with_sz(self):
        s2, sz = s_squared_matrix(), s_z_matrix()
        assert np.allclose(s2 @ sz, sz @ s2)


class TestPermutation:
    def test_singlet_spin_factor_antisymmetric(self):
        swapped = permute_labels(singlet(), "spin")
        assert swapped.spin_part == pytest.approx(-singlet().spin_part)
        assert swapped.space_part == pytest.approx(singlet().space_part)

    def test_triplet_space_factor_antisymmetric(self):
        swapped = permute_labels(triplet(0), "space")
        assert swapped.space_part == pytest.approx(-triplet(0).space_part)

    @pytest.mark.parametrize("name,f", all_four())
    def test_overall_antisymmetry(self, name, f):
        assert permute_labels(f, "both").total == pytest.approx(-f.total, abs=1e-12)

    def test_invalid_which(self):
        with pytest.raises(ValueError):
            permute_labels(singlet(), "nope")

    def test_double_permutation_is_identity(self):
        f = triplet(0)
        assert permute_labels(permute_labels(f, "both"), "both").total == pytest.approx(f.total)


class TestOrthogonality:
    def test_mutually_orthogonal(self):
        fns = all_four()
        for (na, a), (nb, b) in itertools.combinations(fns, 2):
            assert abs(a.overlap(b)) < 1e-12, (na, nb)

    def test_all_normalized(self):
        for _, f in all_four():
            assert abs(f.overlap(f) - 1.0) < 1e-12
