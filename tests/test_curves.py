"""Tests for monomial curves: branch data, canonical sections, sheaves,
gonality pencils, and the analysis record.  The raw canonical sections,
read from the two gap masks, are held to a membership test of every
integer of their window.  The mask route of the sheaf invariants is held
to chained tuple unions, on fixed curves and on random
curves and generator lists.  The pruned one-sided gonality window is held
to a search of the whole window on both sides, and the symmetry of pencil
degrees it rests on is checked on the sheaf route; a representative's
enumerated branch is held to the one its exponents generate, and the
closed-form mu of `analyze` to the tuple Minkowski chain."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_semigroups import semigroup_values, tuple_mu_local

import scrollcurves.curves as curves_module
from scrollcurves.curves import (
    SCHUR_BOUND_LIMIT,
    SheafData,
    _pencil,
    analyze,
    canonical_exponents,
    canonical_section_exponents,
    equal_up_to_reversal,
    gonality,
    gonality_pencil,
    make_curve,
    representative_curve,
    sheaf_degree_h0,
    verify_dualizing_candidate,
)
from scrollcurves.errors import (
    BoundExceeded,
    GcdNotOne,
    GenusZero,
    NotIncreasing,
    PathsDisagree,
)
from scrollcurves.fixtures import fixture, fixture_names
from scrollcurves.semigroups import enumerate_genus, kappa_sets, make_semigroup


def tuple_sheaf_degree_h0(curve, generator_exponents) -> SheafData:
    """The sheaf route as chained unions of tuple value sets, one shifted
    semigroup per generator, with sections counted one membership test at
    a time: the reference for the mask route of `sheaf_degree_h0`."""
    gens = sorted(set(generator_exponents))
    vs0 = semigroup_values(curve.s_zero)
    vsi = semigroup_values(curve.s_infinity)
    stalk0 = vs0.shift(gens[0])
    stalki = vsi.shift(-gens[0])
    for b in gens[1:]:
        stalk0 = stalk0.union(vs0.shift(b))
        stalki = stalki.union(vsi.shift(-b))
    degree = (
        stalk0.count_difference(vs0)
        - vs0.count_difference(stalk0)
        + stalki.count_difference(vsi)
        - vsi.count_difference(stalki)
    )
    h0 = sum(1 for c in stalk0.elements_up_to(-stalki.min_element) if (-c) in stalki)
    return SheafData(degree, h0)


gcd_one_exponents = (
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5, unique=True)
    .map(lambda exps: tuple(sorted(exps)))
    .filter(lambda exps: math.gcd(*exps) == 1)
)
shift = st.integers(min_value=-40, max_value=40)
# any list (duplicates included), a single generator, a repeated one, and
# all-negative and all-positive lists
generator_lists = st.one_of(
    st.lists(shift, min_size=1, max_size=8),
    shift.map(lambda b: [b]),
    shift.map(lambda b: [b, b, b]),
    st.lists(st.integers(min_value=-40, max_value=-1), min_size=1, max_size=5),
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5),
)


def closed_form_pencil(curve, n: int) -> int:
    """The degree of <1, t^n> by the closed form `_pencil`, for n of either
    sign: for n < 0 the two branches trade roles under t -> 1/t."""
    s0, si = curve.s_zero, curve.s_infinity
    if n < 0:
        s0, si, n = si, s0, -n
    return _pencil(s0.gap_mask, si.gap_mask, si.delta, n)


def full_window_gonality_pencil(curve) -> tuple[int, int]:
    """The gonality search before its window was pruned: every pencil in
    the window by the closed form, ties to the smallest |n|, positive
    first."""
    best = (closed_form_pencil(curve, 1), 1)
    for size in range(1, window(curve) + 1):
        for n in (size, -size):
            d = closed_form_pencil(curve, n)
            if d < best[0]:
                best = (d, n)
    return best


def membership_canonical_sections(curve) -> tuple[int, ...]:
    """The raw canonical sections by testing every c in [-beta_0,
    beta_inf - 1) against both branch semigroups: the route the read of
    the two gap masks replaced."""
    s0, si = curve.s_zero, curve.s_infinity
    return tuple(
        c for c in range(-s0.beta, si.beta - 1) if (-c - 1) not in s0 and (c + 1) not in si
    )


def random_exponent_sets(count: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded random strictly increasing gcd-1 exponent sets, top <= 40."""
    rng = random.Random(seed)
    found: list[tuple[int, ...]] = []
    while len(found) < count:
        top = rng.randint(2, 40)
        exps = tuple(sorted(rng.sample(range(1, top + 1), rng.randint(1, min(5, top)))))
        if math.gcd(*exps) == 1:
            found.append(exps)
    return found


def window_curves():
    """The 155 genus 1-8 representatives and the 74 bundled fixture curves."""
    curves = [representative_curve(s) for g in range(1, 9) for s in enumerate_genus(g)]
    curves += [make_curve(row.exponents) for name in fixture_names() for row in fixture(name)]
    assert len(curves) == 155 + 74
    return curves


def window(curve) -> int:
    """The half-width of the gonality window of a curve."""
    return 2 * (curve.s_zero.beta + curve.s_infinity.beta + 1)


def oracle_curves():
    """The 477 genus 1-10 representatives and the 74 bundled fixture curves."""
    curves = [representative_curve(s) for g in range(1, 11) for s in enumerate_genus(g)]
    curves += [make_curve(row.exponents) for name in fixture_names() for row in fixture(name)]
    assert len(curves) == 477 + 74
    return curves


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

    def test_non_int_inputs_refused(self):
        for exponents, shown in (((4.9, 5, 7, 8), "4.9"), ((4, "5", 7, 8), "'5'")):
            with pytest.raises(ValueError) as info:
                make_curve(exponents)
            assert str(info.value) == f"exponents must be integers, got {shown}"
        curve = make_curve((4, 5, 7, 8))
        with pytest.raises(ValueError) as info:
            sheaf_degree_h0(curve, (0, 2.9))
        assert str(info.value) == "generator exponents must be integers, got 2.9"

    def test_schur_limit_on_each_branch(self):
        # at infinity (3, b) has drops b - 3 and b: (b - 4)(b - 1) + b - 3
        assert make_curve((3, 224), SCHUR_BOUND_LIMIT).exponents == (3, 224)
        with pytest.raises(BoundExceeded, match="at infinity has Schur bound 50173"):
            make_curve((3, 226), SCHUR_BOUND_LIMIT)
        with pytest.raises(BoundExceeded, match="at t = 0 has Schur bound 50622"):
            make_curve((224, 227), SCHUR_BOUND_LIMIT)
        assert make_curve((224, 227)).genus == 223 * 226 // 2 + 2 * 226 // 2

    def test_branch_semigroups(self):
        c = make_curve((3, 4, 5, 8))
        assert c.s_zero == make_semigroup((3, 4, 5))
        assert c.s_infinity == make_semigroup((3, 4, 5))
        assert c.s_zero.delta == 2 and c.s_infinity.delta == 2
        assert c.genus == 4

    def test_one_point_curve_is_smooth_at_infinity(self):
        c = make_curve((4, 5, 7, 8))
        assert c.s_infinity.delta == 0
        assert c.genus == c.s_zero.delta == 4

    def test_str(self):
        assert str(make_curve((4, 5, 7, 8))) == "(1:t^4:t^5:t^7:t^8)"


class TestRepresentative:
    def test_enumerated_branch_is_the_sieved_one(self):
        """A representative carries its semigroup at 0 and N at infinity;
        sieving its exponents gives the same two branches, on every
        semigroup of genus 1-10."""
        count = 0
        for genus in range(1, 11):
            for s in enumerate_genus(genus):
                c = representative_curve(s)
                assert c.s_zero is s and c.s_infinity.delta == 0
                sieved = make_curve(c.exponents)
                assert sieved.s_zero == s, c.exponents
                assert sieved.s_infinity.delta == 0, c.exponents
                count += 1
        assert count == 477

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
                assert c.s_infinity.delta == 0
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
                assert canonical_exponents(c) == kappa_sets(s)

    def test_mask_read_matches_membership_route(self):
        for c in oracle_curves():
            assert canonical_section_exponents(c) == membership_canonical_sections(c), c

    @settings(max_examples=300, deadline=None)
    @given(gcd_one_exponents)
    def test_mask_read_matches_membership_route_on_random_curves(self, exponents):
        c = make_curve(exponents)
        assert canonical_section_exponents(c) == membership_canonical_sections(c)

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


class TestSheafOracle:
    """The mask route of `sheaf_degree_h0` against the tuple route."""

    def test_canonical_generators(self):
        for c in oracle_curves():
            raw = canonical_section_exponents(c)
            assert sheaf_degree_h0(c, raw) == tuple_sheaf_degree_h0(c, raw), c.exponents

    def test_pencils_in_the_gonality_window(self):
        for c in oracle_curves():
            for n in range(-window(c), window(c) + 1):
                if n:
                    expected = tuple_sheaf_degree_h0(c, (0, n))
                    assert sheaf_degree_h0(c, (0, n)) == expected, (c.exponents, n)

    @settings(max_examples=500, deadline=None)
    @given(gcd_one_exponents, generator_lists, st.integers(min_value=0, max_value=3))
    def test_random_generator_lists(self, exponents, gens, past):
        """Random curves and generator lists; with past > 0 two more
        shifts land past the conductor at t = 0 and past the one at
        infinity, so both stalks are shifted beyond their semigroups'
        finite parts."""
        c = make_curve(exponents)
        if past:
            gens = gens + [c.s_zero.beta + past, -c.s_infinity.beta - past]
        assert sheaf_degree_h0(c, gens) == tuple_sheaf_degree_h0(c, gens)


class TestPencils:
    def test_degree_examples(self):
        assert closed_form_pencil(make_curve((4, 5, 7, 8)), 2) == 4
        assert closed_form_pencil(make_curve((1, 2)), 1) == 1

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
        assert closed_form_pencil(make_curve((5, 6, 7, 8, 9)), n) == 2


class TestPencilOracle:
    def test_closed_form_matches_sheaf_route(self):
        """Every pencil in the gonality window of the genus 1-8
        representatives and of every bundled fixture curve."""
        for c in window_curves():
            for n in range(-window(c), window(c) + 1):
                if n:
                    expected = sheaf_degree_h0(c, (0, n)).degree
                    assert closed_form_pencil(c, n) == expected, (c.exponents, n)

    def test_pencil_degree_is_even_in_the_exponent(self):
        """deg <1, t^n> = deg <1, t^-n>, and h0 too, on every n in the
        window of the genus 1-8 representatives and of every bundled
        fixture curve: the fact that lets `gonality_pencil` scan n > 0
        only.  Both sides come from the sheaf route, which shares nothing
        with the closed form."""
        for c in window_curves():
            for n in range(1, window(c) + 1):
                plus, minus = sheaf_degree_h0(c, (0, n)), sheaf_degree_h0(c, (0, -n))
                assert plus == minus, (c.exponents, n)

    def test_pruned_window_matches_full_window_on_oracle_curves(self):
        """Genus 1-11 representatives and the 74 fixture curves."""
        curves = [representative_curve(s) for g in range(1, 12) for s in enumerate_genus(g)]
        curves += [make_curve(row.exponents) for name in fixture_names() for row in fixture(name)]
        assert len(curves) == 820 + 74
        for c in curves:
            assert gonality_pencil(c) == full_window_gonality_pencil(c), c.exponents

    def test_pruned_window_matches_full_window_on_random_curves(self):
        for exps in random_exponent_sets(2000, seed=6):
            c = make_curve(exps)
            assert gonality_pencil(c) == full_window_gonality_pencil(c), exps

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
        rng = random.Random(sum(exponents))
        ns = {n for n in range(-64, 65) if n}
        ns |= {rng.choice((1, -1)) * rng.randint(1, window(c)) for _ in range(200)}
        for n in sorted(ns):
            expected = sheaf_degree_h0(c, (0, n)).degree
            assert closed_form_pencil(c, n) == expected, (exponents, n)

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
        assert a.mu == 2 and a.flags["almost_gorenstein"]
        assert not a.flags["hyperelliptic"]

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
        assert a.flags["hyperelliptic"]
        assert a.g_prime == 0
        assert a.canonical == (0, 2, 4, 6, 8)
        assert a.label == "Gor"

    def test_label_precedence(self):
        assert analyze(make_curve((5, 6, 7, 8, 9))).label == "NN"
        assert analyze(make_curve((4, 5, 7, 8))).label == "K"
        assert analyze(make_curve((3, 7, 8, 9))).label == "--"

    def test_mu_shortcut_matches_the_chain(self):
        """analyze reads mu from the semigroup K generates; the tuple
        Minkowski chain agrees on both branches of every oracle curve."""
        for c in oracle_curves():
            branches = (c.s_zero, c.s_infinity)
            assert analyze(c).mu == sum(tuple_mu_local(b)[0] for b in branches)

    def test_genus_identity_over_sweep(self):
        for genus in range(2, 8):
            for s in enumerate_genus(genus):
                a = analyze(representative_curve(s))
                if not a.flags["hyperelliptic"]:
                    assert a.genus == a.g_prime + a.eta + a.mu

    def test_low_genus_records(self):
        a = analyze(make_curve((1, 2)))
        assert a.genus == 0 and a.canonical == () and a.gonality == 1
        b = analyze(make_curve((2, 3)))
        assert b.genus == 1 and b.canonical == (0,) and b.g_prime == 0


class TestIsomorphism:
    def test_helpers(self):
        # translation to 0, then the flip; an empty set equals only itself
        assert equal_up_to_reversal((5, 7, 10), (0, 2, 5))
        assert equal_up_to_reversal((7, 5, 5, 10), (12, 15, 17))
        assert equal_up_to_reversal((), ())
        assert not equal_up_to_reversal((), (0,)) and not equal_up_to_reversal((3,), ())
        assert equal_up_to_reversal((0, 1, 4), (0, 3, 4))
        assert not equal_up_to_reversal((0, 1, 4), (0, 2, 4))

    def test_same_semigroup_different_tails(self):
        a = representative_curve(make_semigroup((4, 6, 7, 9)))
        b = make_curve((4, 6, 7, 9, 11, 12))
        assert b.s_infinity.delta == 0
        assert equal_up_to_reversal(canonical_exponents(a), canonical_exponents(b))

    def test_orientation_flip(self):
        a = make_curve((4, 5, 7, 8))
        flipped = make_curve((1, 3, 4, 8))
        assert flipped.s_zero.delta == 0
        assert equal_up_to_reversal(canonical_exponents(a), canonical_exponents(flipped))

    def test_distinct_models(self):
        a = representative_curve(make_semigroup((4, 5, 7)))
        b = representative_curve(make_semigroup((4, 6, 7, 9)))
        assert not equal_up_to_reversal(canonical_exponents(a), canonical_exponents(b))
