"""Potential sequences: both computation routes and their guarantees."""

from fractions import Fraction

import pytest

from drglab import (
    PotentialSequence,
    PropertyViolation,
    check_potential_properties,
    compute_distance_distribution,
    parse_intersection_array,
    potentials_closed_form,
    potentials_recursive,
)

CUBE = parse_intersection_array("(3,2,1;1,2,3)")
BIGGS_SMITH = parse_intersection_array("(3,2,2,2,1,1,1;1,1,1,1,1,1,3)")
FOSTER = parse_intersection_array("(3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3)")
FLAG_GH22 = parse_intersection_array("(4,2,2,2,2,2;1,1,1,1,1,2)")

CATALOG_SAMPLE = [
    CUBE,
    BIGGS_SMITH,
    FOSTER,
    FLAG_GH22,
    parse_intersection_array("(3;1)"),
    parse_intersection_array("(3,2;1,1)"),
    parse_intersection_array("(6,4,2,1;1,1,4,6)"),
    parse_intersection_array("(4,3,3,2,2,1,1;1,1,2,2,3,3,4)"),
]


class TestRecursive:
    def test_cube(self):
        assert potentials_recursive(CUBE).phi == (7, 2, 1, 0)

    def test_biggs_smith(self):
        p = potentials_recursive(BIGGS_SMITH)
        assert p.phi == (101, 49, 23, 10, 7, 4, 1, 0)
        assert p.ratio() == Fraction(94, 101)

    def test_foster_needs_fractions(self):
        p = potentials_recursive(FOSTER)
        assert p.phi == (
            89,
            43,
            20,
            Fraction(17, 2),
            Fraction(11, 4),
            Fraction(5, 2),
            2,
            1,
            0,
        )
        assert p.ratio() == Fraction(319, 356)


class TestClosedForm:
    def test_matches_recursion_on_sample(self):
        for arr in CATALOG_SAMPLE:
            dist = compute_distance_distribution(arr)
            assert potentials_closed_form(arr, dist).phi == potentials_recursive(arr).phi

    def test_first_value_is_n_minus_1(self):
        dist = compute_distance_distribution(CUBE)
        assert potentials_closed_form(CUBE, dist).phi[0] == dist.n - 1

    def test_flag_gh22_boundary(self):
        dist = compute_distance_distribution(FLAG_GH22)
        p = potentials_closed_form(FLAG_GH22, dist)
        # e_5 = b_5 k_5 = 2 * 64; only k_6 = 64 lies beyond shell 5
        assert dist.e[5] == 128
        assert p.phi[5] == 2
        assert p.phi[5] == Fraction(FLAG_GH22.k, FLAG_GH22.c[-1])


class TestIdentities:
    def test_recurrence_identities(self):
        # c_i phi_{i-1} = b_i phi_i + k  and  b_{i+1} phi_{i+1} = c_{i+1} phi_i - k,
        # the second closed at i = D-1 by phi_D = 0
        for arr in CATALOG_SAMPLE:
            p = potentials_recursive(arr)
            k = arr.k
            for i in range(1, arr.D):
                assert arr.c_at(i) * p.phi[i - 1] == arr.b_at(i) * p.phi[i] + k
            for i in range(0, arr.D):
                assert arr.b_at(i + 1) * p.phi[i + 1] == arr.c_at(i + 1) * p.phi[i] - k

    def test_boundary_value_catalog_wide(self):
        for arr in CATALOG_SAMPLE:
            p = potentials_recursive(arr)
            assert p.phi[arr.D - 1] == Fraction(arr.k, arr.c[-1])


class TestProperties:
    def test_biggs_smith_passes(self):
        p = potentials_recursive(BIGGS_SMITH)
        checks = check_potential_properties(p, BIGGS_SMITH)
        assert all(c.passed for c in checks)

    def test_diameter_one_vacuous_decrease(self):
        arr = parse_intersection_array("(3;1)")
        p = potentials_recursive(arr)
        assert p.phi == (3, 0)
        assert check_potential_properties(p, arr)

    def test_perturbed_sequence_fails_at_index_1(self):
        broken = PotentialSequence(CUBE, (Fraction(7), Fraction(2), Fraction(3), Fraction(0)), "recursive")
        with pytest.raises(PropertyViolation) as excinfo:
            check_potential_properties(broken, CUBE)
        assert excinfo.value.index == 1

    def test_wrong_phi0_fails_at_index_0(self):
        broken = PotentialSequence(CUBE, (Fraction(8), Fraction(2), Fraction(1), Fraction(0)), "recursive")
        with pytest.raises(PropertyViolation) as excinfo:
            check_potential_properties(broken, CUBE)
        assert excinfo.value.index == 0

    def test_array_mismatch_rejected(self):
        p = potentials_recursive(CUBE)
        with pytest.raises(PropertyViolation):
            check_potential_properties(p, BIGGS_SMITH)
