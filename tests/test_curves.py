"""Tests for monomial curves: branch data, canonical sections, sheaves,
gonality pencils, and the analysis record."""

import random

import pytest

import scrollcurves.curves as curves_module
from scrollcurves.curves import (
    SheafData,
    analyze,
    canonical_exponents,
    canonical_section_exponents,
    equal_up_to_reversal,
    gonality,
    gonality_pencil,
    isomorphic_via_canonical,
    make_curve,
    normalize_values,
    pencil_degree,
    representative_curve,
    sheaf_degree_h0,
    verify_dualizing_candidate,
)
from scrollcurves.errors import (
    GcdNotOne,
    GenusZero,
    NotIncreasing,
    NotUnibranchSingle,
    PathsDisagree,
    ZeroExponent,
)
from scrollcurves.fixtures import fixture, fixture_names
from scrollcurves.semigroups import enumerate_genus, kappa_sets, make_semigroup


class TestConstruction:
    def test_validation(self):
        with pytest.raises(NotIncreasing):
            make_curve((3, 3, 4))
        with pytest.raises(NotIncreasing):
            make_curve((4, 2))
        with pytest.raises(NotIncreasing):
            make_curve((0, 3))
        with pytest.raises(NotIncreasing):
            make_curve(())
        with pytest.raises(GcdNotOne):
            make_curve((2, 4))

    def test_branch_semigroups(self):
        c = make_curve((3, 4, 5, 8))
        assert c.s_zero == make_semigroup((3, 4, 5))
        assert c.s_infinity == make_semigroup((3, 4, 5))
        assert c.delta_zero == 2 and c.delta_infinity == 2
        assert c.genus == 4

    def test_one_point_curve_is_smooth_at_infinity(self):
        c = make_curve((4, 5, 7, 8))
        assert c.delta_infinity == 0
        assert c.genus == c.s_zero.delta == 4

    def test_str(self):
        assert str(make_curve((4, 5, 7, 8))) == "(1:t^4:t^5:t^7:t^8)"


class TestRepresentative:
    def test_frozen_choices(self):
        cases = {
            (4, 6, 7, 9): (4, 6, 7, 8, 9),
            (2, 9): (2, 8, 9),
            (5, 7, 8, 9, 11): (5, 7, 8, 9, 10, 11),
            (4, 5, 7): (4, 5, 7, 8),
            (6, 7, 16): (6, 7, 16, 18, 19),
            (5, 6, 7, 8, 9): (5, 6, 7, 8, 9),
            (1,): (1, 2),
        }
        for gens, exponents in cases.items():
            assert representative_curve(make_semigroup(gens)).exponents == exponents

    def test_sweep_properties(self):
        for genus in range(8):
            for s in enumerate_genus(genus):
                c = representative_curve(s)
                assert c.delta_infinity == 0
                assert c.s_zero == s
                assert c.genus == s.delta


class TestCanonical:
    def test_raw_exponents(self):
        assert canonical_section_exponents(make_curve((3, 4, 5, 8))) == (-3, -2, 0, 1)
        assert canonical_section_exponents(make_curve((5, 6, 7, 8, 9))) == (
            -5,
            -4,
            -3,
            -2,
        )

    def test_normalized(self):
        assert canonical_exponents(make_curve((3, 4, 5, 8))) == (0, 1, 3, 4)
        assert canonical_exponents(make_curve((5, 6, 7, 8, 9))) == (0, 1, 2, 3)
        assert canonical_exponents(make_curve((4, 6, 7, 8, 9))) == (0, 2, 3, 4)

    def test_genus_zero_has_none(self):
        with pytest.raises(GenusZero):
            canonical_exponents(make_curve((1, 2)))

    def test_one_point_normalized_matches_dual_part(self):
        for genus in range(1, 9):
            for s in enumerate_genus(genus):
                c = representative_curve(s)
                assert canonical_exponents(c) == kappa_sets(s).k_star

    def test_count_is_genus_for_two_point_curves(self):
        for exps in [(2, 3, 4, 5, 9), (3, 4, 5, 8), (2, 5, 7, 9, 12), (3, 4, 5, 7, 9)]:
            c = make_curve(exps)
            assert len(canonical_section_exponents(c)) == c.genus


class TestSheaves:
    def test_two_generator_example_fails_duality(self):
        c = make_curve((2, 3))
        assert sheaf_degree_h0(c, (-2, 0)) == SheafData(2, 2)
        assert not verify_dualizing_candidate(c, (-2, 0))

    def test_single_generator_example_passes_duality(self):
        c = make_curve((2, 3))
        assert sheaf_degree_h0(c, (-2,)) == SheafData(0, 1)
        assert verify_dualizing_candidate(c, (-2,))

    def test_canonical_sections_generate_a_dualizing_sheaf(self):
        for exps in [
            (3, 4, 5, 8),
            (5, 6, 7, 8, 9),
            (4, 5, 7, 8),
            (2, 3, 4, 5, 9),
            (3, 4, 5, 6, 10),
            (4, 6, 7, 8, 9),
        ]:
            c = make_curve(exps)
            assert verify_dualizing_candidate(c, canonical_section_exponents(c))

    def test_structure_sheaf_is_trivial(self):
        c = make_curve((4, 5, 7, 8))
        assert sheaf_degree_h0(c, (0,)) == SheafData(0, 1)


class TestPencils:
    def test_degree_examples(self):
        assert pencil_degree(make_curve((4, 5, 7, 8)), 2) == 4
        assert pencil_degree(make_curve((1, 2)), 1) == 1

    def test_zero_exponent_rejected(self):
        with pytest.raises(ZeroExponent):
            pencil_degree(make_curve((2, 3)), 0)

    def test_gonality_frozen(self):
        cases = {
            (2, 3): 2,
            (5, 6, 7, 8, 9): 2,
            (4, 5, 7, 8): 3,
            (2, 3, 4, 5, 9): 3,
            (1, 2): 1,
        }
        for exps, expected in cases.items():
            assert gonality(make_curve(exps)) == expected, exps

    def test_gonality_of_representatives(self):
        assert gonality(representative_curve(make_semigroup((4, 7, 8, 9)))) == 4
        assert gonality(representative_curve(make_semigroup((5, 7, 8)))) == 4

    def test_multiplicity_bounds_one_point_gonality(self):
        for genus in range(2, 8):
            for s in enumerate_genus(genus):
                assert gonality(representative_curve(s)) <= s.alpha

    def test_two_point_curve_can_beat_multiplicity_bound(self):
        c = make_curve((2, 3, 4, 5, 9))
        assert c.s_zero.alpha == 2
        assert gonality(c) == 3

    def test_pencil_reported_with_exponent(self):
        degree, n = gonality_pencil(make_curve((5, 6, 7, 8, 9)))
        assert degree == 2
        assert pencil_degree(make_curve((5, 6, 7, 8, 9)), n) == 2


class TestPencilOracle:
    def test_closed_form_matches_sheaf_route(self):
        """Every pencil in the gonality window of the genus 1-8
        representatives and of every bundled fixture curve."""
        curves = [representative_curve(s) for g in range(1, 9) for s in enumerate_genus(g)]
        curves += [make_curve(row.exponents) for name in fixture_names() for row in fixture(name)]
        assert len(curves) == 155 + 74
        for c in curves:
            window = 2 * (c.s_zero.beta + c.s_infinity.beta + 1)
            for n in range(-window, window + 1):
                if n:
                    expected = sheaf_degree_h0(c, (0, n)).degree
                    assert pencil_degree(c, n) == expected, (c.exponents, n)

    def test_winner_disagreement_is_reported(self, monkeypatch):
        c = make_curve((4, 5, 7, 8))
        wrong = SheafData(99, 0)
        monkeypatch.setattr(curves_module, "sheaf_degree_h0", lambda curve, gens: wrong)
        with pytest.raises(PathsDisagree):
            gonality_pencil(c)


def set_bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


class TestMultiWordPencils:
    """Gap masks spanning many 30-bit digits, where a shift carries bits
    across digit boundaries."""

    # exponents: (conductor at 0, conductor at infinity, gonality)
    CURVES = {
        (4, 5, 7, 101): (7, 1412, 56),
        (5, 7, 61): (24, 654, 48),
        (7, 60): (354, 3068, 59),
        (3, 100): (198, 9504, 99),
    }

    @pytest.mark.parametrize("exponents", CURVES, ids=str)
    def test_closed_form_matches_sheaf_route(self, exponents):
        c = make_curve(exponents)
        beta0, beta_inf, gon = self.CURVES[exponents]
        assert (c.s_zero.beta, c.s_infinity.beta) == (beta0, beta_inf)
        assert gonality(c) == gon
        window = 2 * (beta0 + beta_inf + 1)
        rng = random.Random(sum(exponents))
        ns = {n for n in range(-64, 65) if n}
        ns |= {rng.choice((1, -1)) * rng.randint(1, window) for _ in range(200)}
        for n in sorted(ns):
            expected = sheaf_degree_h0(c, (0, n)).degree
            assert pencil_degree(c, n) == expected, (exponents, n)

    def test_gap_mask_bits_are_the_gaps(self):
        for genus in range(9):
            for s in enumerate_genus(genus):
                assert set_bits(s.gap_mask) == s.gaps
        s = make_curve((3, 1001)).s_infinity
        assert s.delta == 498500
        assert set_bits(s.gap_mask) == s.gaps


class TestAnalysis:
    def test_two_point_record(self):
        a = analyze(make_curve((3, 4, 5, 8)))
        assert a.genus == 4
        assert a.g_prime == 0
        assert a.eta == 2 and a.eta_branches == (1, 1)
        assert a.mu == 2 and a.mu_branches == (1, 1)
        assert not a.hyperelliptic

    def test_one_point_record(self):
        a = analyze(make_curve((4, 6, 7, 8, 9)))
        assert a.genus == 4
        assert a.g_prime == 1
        assert a.eta == 2
        assert a.mu == 1
        assert a.label == "NG"
        assert not a.flags["gorenstein"]
        assert a.flags["nearly_gorenstein"]

    def test_hyperelliptic_record(self):
        a = analyze(representative_curve(make_semigroup((2, 11))))
        assert a.exponents == (2, 10, 11)
        assert a.genus == 5
        assert a.hyperelliptic
        assert a.g_prime == 0
        assert a.canonical == (0, 2, 4, 6, 8)
        assert a.label == "Gor"

    def test_label_precedence(self):
        assert analyze(make_curve((5, 6, 7, 8, 9))).label == "NN"
        assert analyze(make_curve((4, 5, 7, 8))).label == "K"
        assert analyze(make_curve((3, 7, 8, 9))).label == "--"

    def test_genus_identity_over_sweep(self):
        for genus in range(2, 8):
            for s in enumerate_genus(genus):
                a = analyze(representative_curve(s))
                if not a.hyperelliptic:
                    assert a.genus == a.g_prime + a.eta + a.mu

    def test_low_genus_records(self):
        a = analyze(make_curve((1, 2)))
        assert a.genus == 0 and a.canonical == () and a.gonality == 1
        b = analyze(make_curve((2, 3)))
        assert b.genus == 1 and b.canonical == (0,) and b.g_prime == 0


class TestIsomorphism:
    def test_helpers(self):
        assert normalize_values((5, 7, 10)) == (0, 2, 5)
        assert equal_up_to_reversal((0, 1, 4), (0, 3, 4))
        assert not equal_up_to_reversal((0, 1, 4), (0, 2, 4))

    def test_same_semigroup_different_tails(self):
        a = representative_curve(make_semigroup((4, 6, 7, 9)))
        b = make_curve((4, 6, 7, 9, 11, 12))
        assert b.delta_infinity == 0
        assert isomorphic_via_canonical(a, b)

    def test_orientation_flip(self):
        a = make_curve((4, 5, 7, 8))
        flipped = make_curve((1, 3, 4, 8))
        assert flipped.delta_zero == 0
        assert isomorphic_via_canonical(a, flipped)

    def test_distinct_models(self):
        a = representative_curve(make_semigroup((4, 5, 7)))
        b = representative_curve(make_semigroup((4, 6, 7, 9)))
        assert not isomorphic_via_canonical(a, b)

    def test_guards(self):
        with pytest.raises(NotUnibranchSingle):
            isomorphic_via_canonical(
                make_curve((3, 4, 5, 8)), make_curve((4, 5, 7, 8))
            )
        with pytest.raises(GenusZero):
            isomorphic_via_canonical(make_curve((1, 2)), make_curve((2, 3)))
