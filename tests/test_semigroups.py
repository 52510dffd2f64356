"""Tests for numerical semigroups, their dual sets, and the genus enumeration.

The enumeration is cross-checked against a brute-force oracle that tries
every candidate gap subset directly, and the named invariants are frozen
from hand computations.  A test-local tailed set of tuples
(`TupleValueSet`) is the reference for the sheaf route in `test_curves.py`
and for the closed-form mu here, which is held to the route it replaced:
the stabilizer of the stable Minkowski power of K, on tuples.  The
gap-mask semigroup is held to routes it replaced: the window and any()
sieves, invariants read off gap tuples, the pairwise minimal-generator
search, the count of eta over K* and the membership test of symmetry.
"""

import math
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollcurves.curves import canonical_exponents, make_curve
from scrollcurves.errors import (
    BoundExceeded,
    EmptyGenerators,
    GcdNotOne,
    NotAValidKappaStar,
)
from scrollcurves.semigroups import (
    NumericalSemigroup,
    enumerate_genus,
    eta_local,
    is_symmetric,
    kappa_sets,
    make_semigroup,
    mu_local,
    recover_from_kappa_star,
    schur_bound,
    set_bits,
)


def brute_force_genus(genus: int) -> set[tuple[int, ...]]:
    """All gap sets of the given genus, by exhaustive subset search.

    Any semigroup of genus g has its Frobenius number at most 2g - 1, so
    searching subsets of [1, 2g - 1] is exhaustive.
    """
    if genus == 0:
        return {()}
    found = set()
    window = range(1, 2 * genus)
    for gaps in combinations(window, genus):
        gap_set = set(gaps)
        top = gaps[-1]
        members = [x for x in range(1, top + 1) if x not in gap_set]
        ok = True
        for i, a in enumerate(members):
            for b in members[i:]:
                if a + b > top:
                    break
                if a + b in gap_set:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(gaps)
    return found


def window_sieve_gaps(generators) -> tuple[int, ...]:
    """Gap set by the fixed-window sieve, kept as a reference for the
    streaming sieve of make_semigroup.

    Reachability is sieved over [0, 4*max^2 + 4); the window is certified
    complete when its top alpha integers are all reachable.
    """
    gens = sorted(set(generators))
    limit = 4 * gens[-1] ** 2 + 4
    reach = bytearray(limit)
    reach[0] = 1
    for g in gens:
        for i in range(g, limit):
            if reach[i - g]:
                reach[i] = 1
    assert all(reach[limit - gens[0]:]), "window too small to certify the gap set"
    return tuple(i for i in range(limit) if not reach[i])


def any_sieve_gaps(generators) -> tuple[int, ...]:
    """Gap set by the streaming sieve with one any() over the generators at
    every integer, kept as a reference for the bit-parallel sieve of
    make_semigroup; it stops at the same run of alpha reachable integers."""
    gens = sorted(set(generators))
    reach = bytearray(b"\x01")
    gaps = []
    run = 1
    while run < gens[0]:
        i = len(reach)
        if any(reach[i - g] for g in gens if g <= i):
            reach.append(1)
            run += 1
        else:
            reach.append(0)
            gaps.append(i)
            run = 0
    return tuple(gaps)


def tuple_invariants(gaps) -> tuple:
    """(alpha, beta, gamma, delta) read off a sorted gap tuple, the way the
    semigroup computed them before it became a gap mask."""
    gamma = gaps[-1] if gaps else -1
    small = tuple(x for x in range(gamma + 2) if x not in gaps)
    alpha = min((x for x in small if x > 0), default=1)
    return alpha, gamma + 1, gamma, len(gaps)


def mirrored_gaps(gaps) -> tuple[int, ...]:
    """gamma - g over gaps g holding 1, gamma the largest: the K* that
    `recover_from_kappa_star` mirrors back to these gaps."""
    return tuple(max(gaps) - g for g in gaps) if gaps else ()


def pairwise_minimal_generators(s) -> tuple[int, ...]:
    """Minimal generators by the pairwise search: each element n in
    [alpha, beta + alpha) with no split a + (n - a) into nonzero elements."""
    if s.delta == 0:
        return (1,)
    return tuple(
        n
        for n in range(s.alpha, s.beta + s.alpha)
        if n in s
        and not any(a in s and (n - a) in s for a in range(s.alpha, n - s.alpha + 1))
    )


def semigroups_up_to(genus: int):
    return [s for g in range(genus + 1) for s in enumerate_genus(g)]


class TupleValueSet:
    """A finite part plus an infinite tail, stored as a sorted tuple and a
    frozenset: the reference the sheaf route and mu are held to.

    The stored form is canonical: finite elements lie strictly below the
    tail and the integer immediately below the tail is absent, so equality
    of the two fields is equality of sets.
    """

    def __init__(self, finite_part, tail_start):
        finite = sorted({x for x in finite_part if x < tail_start})
        start = tail_start
        while finite and finite[-1] == start - 1:
            start -= 1
            finite.pop()
        self.finite_part = tuple(finite)
        self.tail_start = start
        self._lookup = frozenset(finite)

    def __eq__(self, other):
        return (self.finite_part, self.tail_start) == (other.finite_part, other.tail_start)

    def __contains__(self, x):
        return x >= self.tail_start or x in self._lookup

    @property
    def min_element(self):
        return self.finite_part[0] if self.finite_part else self.tail_start

    def shift(self, k):
        return TupleValueSet(tuple(x + k for x in self.finite_part), self.tail_start + k)

    def union(self, other):
        return TupleValueSet(
            self.finite_part + other.finite_part, min(self.tail_start, other.tail_start)
        )

    def minkowski(self, other):
        tail = min(
            self.min_element + other.tail_start, other.min_element + self.tail_start
        )
        sums = {a + b for a in self.finite_part for b in other.finite_part}
        return TupleValueSet(tuple(sums), tail)

    def elements_up_to(self, n):
        out = [x for x in self.finite_part if x <= n]
        out.extend(range(self.tail_start, n + 1))
        return out

    def count_difference(self, other):
        candidates = set(self.finite_part)
        candidates.update(range(self.tail_start, max(self.tail_start, other.tail_start)))
        return sum(1 for x in candidates if x not in other)


def tuple_stable_minkowski_power(v):
    """The chain v, v+v, ... of tuple sets, up to its limit."""
    assert 0 in v
    current = v
    while True:
        nxt = current.minkowski(v)
        if nxt == current:
            return current
        current = nxt


def tuple_stabilizer(v):
    """All a >= 0 with a + v inside v, one membership test per finite element."""
    good = [
        a
        for a in range(max(0, v.tail_start))
        if all((a + f) in v for f in v.finite_part)
    ]
    return TupleValueSet(tuple(good), max(0, v.tail_start))


def tuple_mu_local(s):
    """mu and its two sets through tuple value sets, with the dual set
    found by one membership test per integer below the conductor."""
    k_star = [a for a in range(s.beta) if (s.gamma - a) not in s]
    k = TupleValueSet(k_star, s.beta)
    stable = tuple_stable_minkowski_power(k)
    t = tuple_stabilizer(stable)
    return t.count_difference(k), t, stable


def generated_semigroup(v):
    """The semigroup a tuple set holding 0 and its tail generates: the
    nonzero finite elements and tail, ..., 2 tail - 1 generate it."""
    if v.tail_start == 0:
        return NumericalSemigroup(0)
    finite = [x for x in v.finite_part if x]
    return make_semigroup(finite + list(range(v.tail_start, 2 * v.tail_start)))


def k_closure(s):
    """<K>, the semigroup K generates, sieved from K's tuple set: the
    closure `mu_local` reads its delta from."""
    return generated_semigroup(TupleValueSet(kappa_sets(s), s.beta))


def semigroup_values(s: NumericalSemigroup) -> TupleValueSet:
    """A semigroup as a tailed set, from the complement of its gap mask
    below the conductor: the finite part the sheaf route shifts."""
    return TupleValueSet(set_bits(~s.gap_mask & ((1 << s.beta) - 1)), s.beta)


gcd_one_generators = st.lists(
    st.integers(min_value=1, max_value=40), min_size=1, max_size=6
).filter(lambda gens: math.gcd(*gens) == 1)
# wider generators, so the sieve's recent-flags int spans several digits
wide_generators = st.lists(
    st.integers(min_value=2, max_value=300), min_size=2, max_size=4
).filter(lambda gens: math.gcd(*gens) == 1)


class TestValueSet:
    def test_shift(self):
        # one shift translates the whole set, tail included
        shifted = TupleValueSet((0, 2), 5).shift(-3)
        assert shifted == TupleValueSet((-3, -1), 2)

    def test_union(self):
        # {0, 2, 5, ...} joined with {2, 4, 7, ...}; the tail absorbs 4 + 1
        v = TupleValueSet((0, 2), 5)
        joined = v.union(v.shift(2)).union(v)
        assert joined == TupleValueSet((0, 2, 4), 5)

    def test_count_difference(self):
        t = TupleValueSet((0,), 3)
        k = TupleValueSet((0, 3, 4, 5), 7)
        assert t.count_difference(k) == 1
        assert k.count_difference(t) == 0
        assert t.count_difference(t) == 0


nonnegative_args = st.tuples(
    st.lists(st.integers(min_value=0, max_value=40), max_size=10),
    st.integers(min_value=0, max_value=60),
)


class TestValueSetOracle:
    """The tuple stabilizer and stable Minkowski power on sets holding 0,
    with finite parts in [0, 40] and any tail in [0, 60]."""

    @settings(max_examples=300, deadline=None)
    @given(nonnegative_args)
    def test_stabilizer(self, args):
        """The stable power of a set holding 0 is its own stabilizer."""
        finite, tail = args
        stable = tuple_stable_minkowski_power(TupleValueSet([0] + finite, tail))
        assert tuple_stabilizer(stable) == stable

    @settings(max_examples=300, deadline=None)
    @given(nonnegative_args)
    def test_stable_minkowski_power(self, args):
        """The chain v, v+v, ... of a set holding 0 ends at the semigroup v
        generates, as sieved by `make_semigroup`."""
        finite, tail = args
        v = TupleValueSet([0] + finite, tail)
        assert semigroup_values(generated_semigroup(v)) == tuple_stable_minkowski_power(v)


class TestConstruction:
    def test_basic_invariants(self):
        s = make_semigroup((4, 5, 7))
        assert s.gaps == (1, 2, 3, 6)
        assert s.alpha == 4
        assert s.gamma == 6
        assert s.beta == 7
        assert s.delta == 4
        assert 12 in s and 6 not in s and -1 not in s

    def test_whole_numbers(self):
        s = make_semigroup((1,))
        assert s.gaps == ()
        assert s.gamma == -1 and s.beta == 0 and s.delta == 0
        assert s.alpha == 1
        assert s.minimal_generators == (1,)

    def test_generator_validation(self):
        with pytest.raises(EmptyGenerators):
            make_semigroup(())
        with pytest.raises(GcdNotOne):
            make_semigroup((4, 6))
        with pytest.raises(ValueError):
            make_semigroup((0, 5))
        with pytest.raises(ValueError):
            make_semigroup((-3, 5))

    def test_minimal_generators(self):
        assert make_semigroup((2, 3, 4)).minimal_generators == (2, 3)
        assert make_semigroup((4, 5, 6, 7, 8, 9)).minimal_generators == (4, 5, 6, 7)
        assert make_semigroup((5, 6, 7, 8, 9)).minimal_generators == (5, 6, 7, 8, 9)
        assert make_semigroup((6, 10, 15)).minimal_generators == (6, 10, 15)

    def test_equality_is_by_gap_set(self):
        assert make_semigroup((2, 3)) == make_semigroup((2, 3, 4))
        assert make_semigroup((2, 3)) != make_semigroup((2, 5))
        assert hash(make_semigroup((2, 3))) == hash(make_semigroup((2, 3, 4)))

    def test_from_gaps_roundtrip(self):
        # the gaps (1, 2, 3, 6) are gamma - a over K* = (0, 3, 4, 5)
        s = recover_from_kappa_star(mirrored_gaps((1, 2, 3, 6)))
        assert s == make_semigroup((4, 5, 7))
        assert s.minimal_generators == (4, 5, 7)

    def test_from_gaps_rejects_nonclosed(self):
        with pytest.raises(NotAValidKappaStar, match="2 \\+ 2 = 4 is a gap"):
            recover_from_kappa_star(mirrored_gaps((1, 4)))
        with pytest.raises(NotAValidKappaStar, match="3 \\+ 3 = 6 is a gap"):
            recover_from_kappa_star(mirrored_gaps((1, 2, 6)))

    def test_value_set(self):
        s = make_semigroup((4, 5, 7))
        assert semigroup_values(s) == TupleValueSet((0, 4, 5), 7)

    def test_from_gap_mask(self):
        s = NumericalSemigroup(0b1001110)
        assert s == make_semigroup((4, 5, 7)) and s.gaps == (1, 2, 3, 6)
        assert repr(s) == "NumericalSemigroup<4, 5, 7>"
        assert repr(NumericalSemigroup(0)) == "NumericalSemigroup<1>"
        # a sieved semigroup reports its minimal generators, not its input
        assert repr(make_semigroup((4, 5, 6, 7, 8, 9))) == "NumericalSemigroup<4, 5, 6, 7>"


class TestGapMaskStorage:
    """Invariants, views and membership of the gap mask against the same
    values read off gap tuples."""

    def assert_matches_tuples(self, s, gaps):
        assert s.gaps == gaps
        assert s.gap_mask == sum(1 << g for g in gaps)
        alpha, beta, gamma, delta = tuple_invariants(gaps)
        assert (s.alpha, s.beta, s.gamma, s.delta) == (alpha, beta, gamma, delta)
        for x in range(-3, beta + 6):
            assert (x in s) == (x >= 0 and x not in gaps), x

    def test_every_semigroup_of_genus_at_most_ten(self):
        for s in semigroups_up_to(10):
            gaps = s.gaps
            self.assert_matches_tuples(s, gaps)

    @settings(max_examples=300, deadline=None)
    @given(gcd_one_generators)
    def test_sieved_semigroups(self, gens):
        self.assert_matches_tuples(make_semigroup(gens), window_sieve_gaps(gens))


class TestMinimalGenerators:
    """The sumset of the element mask against the pairwise search."""

    def test_every_semigroup_of_genus_at_most_ten(self):
        for s in semigroups_up_to(10):
            assert s.minimal_generators == pairwise_minimal_generators(s), s.gaps

    @settings(max_examples=300, deadline=None)
    @given(gcd_one_generators)
    def test_sieved_semigroups(self, gens):
        s = make_semigroup(gens)
        assert s.minimal_generators == pairwise_minimal_generators(s)


class TestRoundTrips:
    @settings(max_examples=300, deadline=None)
    @given(gcd_one_generators)
    def test_sieve_gaps_and_dual_agree(self, gens):
        """make_semigroup, then recover_from_kappa_star of its mirrored
        gaps, then of the dual: one semigroup throughout."""
        s = make_semigroup(gens)
        from_gaps = recover_from_kappa_star(mirrored_gaps(s.gaps))
        back = recover_from_kappa_star(kappa_sets(from_gaps))
        assert s == from_gaps == back
        assert s.gap_mask == from_gaps.gap_mask == back.gap_mask
        assert repr(s) == repr(from_gaps) == repr(back)


class TestStreamingSieve:
    @settings(max_examples=300, deadline=None)
    @given(gcd_one_generators)
    def test_matches_window_sieve(self, gens):
        s = make_semigroup(gens)
        assert s.gaps == window_sieve_gaps(gens)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(gcd_one_generators, wide_generators))
    def test_bit_parallel_matches_any_sieve(self, gens):
        assert make_semigroup(gens).gaps == any_sieve_gaps(gens)

    def test_many_generators(self):
        # the nonzero canonical exponents of (3, 40): the g' curve of that
        # row sieves 740 generators up to 1480 for a conductor of 78
        gens = [c for c in canonical_exponents(make_curve((3, 40))) if c]
        assert (len(gens), gens[-1], make_semigroup(gens).beta) == (740, 1480, 78)
        assert make_semigroup(gens).gaps == any_sieve_gaps(gens)

    @pytest.mark.parametrize(
        "a, b", [(2, 3), (2, 7), (3, 4), (3, 5), (4, 9), (5, 7), (7, 11), (3, 1001)]
    )
    def test_sylvester_two_generators(self, a, b):
        s = make_semigroup((a, b))
        assert s.delta == (a - 1) * (b - 1) // 2
        assert s.gamma == a * b - a - b

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(gcd_one_generators, wide_generators))
    def test_stream_stops_below_schur_bound(self, gens):
        """The stream stops at beta + alpha - 1, which Schur's bound on the
        conductor keeps below `schur_bound`; the conductor is read from the
        reference sieve."""
        gaps = any_sieve_gaps(gens)
        beta = gaps[-1] + 1 if gaps else 0
        assert beta + min(gens) - 1 < schur_bound(min(gens), max(gens))

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.integers(1, 60), st.integers(2, 400))
        .map(sorted)
        .filter(lambda pair: pair[0] < pair[1] and math.gcd(*pair) == 1)
    )
    def test_two_generators_meet_schur_bound(self, pair):
        """For two generators the bound is tight: beta + alpha is the bound
        itself, so the stream's last step is the bound less one."""
        a, b = pair
        gaps = any_sieve_gaps(pair)
        beta = gaps[-1] + 1 if gaps else 0
        assert beta + a == schur_bound(a, b)

    def test_large_top_generator_is_fast(self):
        start = time.perf_counter()
        s = make_semigroup((2, 50001))
        elapsed = time.perf_counter() - start
        assert s.delta == 25000
        assert s.gamma == 49999
        assert elapsed < 1.0


class TestKappa:
    def test_known_kappa_stars(self):
        assert kappa_sets(make_semigroup((5, 6, 7, 8, 9))) == (0, 1, 2, 3)
        assert kappa_sets(make_semigroup((4, 5, 7))) == (0, 3, 4, 5)
        assert kappa_sets(make_semigroup((1,))) == ()

    def test_kappa_of_whole_numbers_is_everything(self):
        s = make_semigroup((1,))
        k_star = kappa_sets(s)
        assert k_star == () and s.beta == 0
        assert TupleValueSet(k_star, s.beta) == TupleValueSet((), 0)

    def test_kappa_size_and_extremes(self):
        for genus in range(7):
            for s in enumerate_genus(genus):
                k_star = kappa_sets(s)
                assert len(k_star) == s.delta
                if s.delta > 0:
                    assert k_star[0] == 0
                    assert k_star[-1] == s.gamma - 1
                # S inside K: below beta through K*, K holds the rest
                for a in range(s.beta):
                    assert a not in s or a in k_star

    def test_symmetry_matches_eta(self):
        assert is_symmetric(make_semigroup((2, 3)))
        assert is_symmetric(make_semigroup((3, 4)))
        assert not is_symmetric(make_semigroup((4, 5, 7)))
        for genus in range(7):
            for s in enumerate_genus(genus):
                assert is_symmetric(s) == (eta_local(s) == 0)
                assert is_symmetric(s) == (2 * s.delta == s.beta)

    @staticmethod
    def membership_symmetric(s) -> bool:
        """Symmetry by one membership test of a and gamma - a for each a
        below the conductor."""
        return all((a in s) != ((s.gamma - a) in s) for a in range(s.beta))

    def test_symmetry_matches_membership_route(self):
        """The closed form 2 delta = beta against the membership loop, on
        every semigroup of genus <= 12."""
        semigroups = semigroups_up_to(12)
        assert len(semigroups) == 1413
        for s in semigroups:
            assert is_symmetric(s) == self.membership_symmetric(s), s.gaps

    def test_eta_is_the_count_over_k_star(self):
        """The popcount of eta against one membership test per element of
        K*, on every semigroup of genus <= 12."""
        for s in semigroups_up_to(12):
            assert eta_local(s) == sum(1 for a in kappa_sets(s) if a not in s)

    def test_eta_examples(self):
        assert eta_local(make_semigroup((4, 5, 7))) == 1
        assert eta_local(make_semigroup((3, 7, 8))) == 2
        assert eta_local(make_semigroup((5, 6, 7, 8, 9))) == 3


class TestMu:
    def test_blowup_chain_golden(self):
        s = make_semigroup((4, 5, 7))
        closure = k_closure(s)
        assert closure == make_semigroup((3, 4, 5))
        assert semigroup_values(closure) == TupleValueSet((0,), 3)
        assert mu_local(s) == 1 == s.beta - s.delta - closure.delta
        # <K> is sieved from every nonzero element of K below its tail, but
        # reports only its minimal generators
        assert repr(closure) == "NumericalSemigroup<3, 4, 5>"
        # a symmetric branch is its own <K>
        assert k_closure(make_semigroup((2, 3, 5))) == make_semigroup((2, 3))
        assert mu_local(make_semigroup((2, 3, 5))) == 0

    def test_square_fills_everything(self):
        s = make_semigroup((3, 7, 8))
        k_star = kappa_sets(s)
        assert (k_star, s.beta) == ((0, 1, 3, 4), 6)
        chain = tuple_stable_minkowski_power(TupleValueSet(k_star, s.beta))
        assert chain == TupleValueSet((), 0)
        assert mu_local(s) == 2 and k_closure(s) == NumericalSemigroup(0)

    def test_mu_frozen_examples(self):
        cases = {
            (4, 5, 7): 1,
            (3, 7, 8): 2,
            (4, 6, 7, 9): 1,
            (5, 6, 8, 9): 1,
            (4, 5, 11): 3,
            (3, 8, 10): 2,
            (4, 6, 11, 13): 1,
            (5, 8, 9, 11, 12): 2,
            (5, 6, 9, 13): 3,
            (5, 6, 7): 4,
            (4, 9, 10, 11): 2,
            (3, 10, 11): 3,
        }
        for gens, expected in cases.items():
            assert mu_local(make_semigroup(gens)) == expected, gens

    def test_mu_vanishes_exactly_for_symmetric(self):
        for genus in range(7):
            for s in enumerate_genus(genus):
                mu = mu_local(s)
                assert (mu == 0) == is_symmetric(s)

    def test_chain_mu_vanishes_on_symmetric_semigroups(self):
        """The tuple Minkowski chain gives mu = 0 on every symmetric
        semigroup of genus <= 10, which `mu_local` returns without a
        sieve; S is its own <K> there."""
        symmetric = [s for s in semigroups_up_to(10) if is_symmetric(s)]
        # 1, 1, 1, 2, 3, 3, 6, 8, 7, 15, 20 for genus 0 to 10
        assert len(symmetric) == 67
        for s in symmetric:
            assert eta_local(s) == 0
            assert tuple_mu_local(s)[0] == 0, s.gaps
            assert mu_local(s) == 0 and k_closure(s) == s, s.gaps

    def test_semigroup_sits_inside_stabilizer(self):
        for genus in range(6):
            for s in enumerate_genus(genus):
                t = k_closure(s)
                assert mu_local(s) == s.beta - s.delta - t.delta, s.gaps
                for a in [a for a in range(s.beta + 1) if a in s] + list(kappa_sets(s)):
                    assert a in t

    def test_eta_one_forces_mu_one(self):
        for genus in range(8):
            for s in enumerate_genus(genus):
                if eta_local(s) == 1:
                    assert mu_local(s) == 1

    def test_mu_matches_tuple_route(self):
        """mu on every semigroup of genus <= 10 against the tuple route and
        against (beta - delta) - delta(<K>), with <K> rebuilt from K: <K>
        is both the tuple stable power of K and that power's stabilizer."""
        count = 0
        for genus in range(11):
            for s in enumerate_genus(genus):
                mu, t, stable = tuple_mu_local(s)
                closure = k_closure(s)
                assert type(mu_local(s)) is int
                assert mu_local(s) == mu == s.beta - s.delta - closure.delta, s
                assert semigroup_values(closure) == stable, s
                assert semigroup_values(closure) == t, s
                count += 1
        assert count == 478

    def test_stabilizer_of_everything(self):
        """N is symmetric, K = N is its own stable power and stabilizer,
        so N is its own <K> and `mu_local` returns 0."""
        everything = TupleValueSet((), 0)
        assert tuple_stable_minkowski_power(everything) == everything
        assert tuple_stabilizer(everything) == everything
        n = NumericalSemigroup(0)
        assert mu_local(n) == 0 and k_closure(n) == n


class TestRecovery:
    def test_roundtrip_over_sweep(self):
        for genus in range(7):
            for s in enumerate_genus(genus):
                assert recover_from_kappa_star(kappa_sets(s)) == s

    def test_named_example(self):
        assert recover_from_kappa_star((0, 3, 4, 5)) == make_semigroup((4, 5, 7))

    def test_empty_recovers_whole_numbers(self):
        assert recover_from_kappa_star(()) == make_semigroup((1,))

    def test_rejects_sets_without_zero(self):
        with pytest.raises(NotAValidKappaStar):
            recover_from_kappa_star((1, 2))

    def test_rejects_nonrealizable_sets(self):
        with pytest.raises(NotAValidKappaStar):
            recover_from_kappa_star((0, 1, 5))


class TestEnumeration:
    def test_counts(self):
        expected = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592]
        for genus, count in enumerate(expected):
            assert len(enumerate_genus(genus)) == count, genus

    def test_genus_three_listing(self):
        gaps = [s.gaps for s in enumerate_genus(3)]
        assert gaps == [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 5)]

    def test_matches_brute_force(self):
        for genus in range(8):
            ours = {s.gaps for s in enumerate_genus(genus)}
            assert ours == brute_force_genus(genus), genus

    def test_levels_are_sorted_and_distinct(self):
        for genus in range(13):
            gaps = [s.gaps for s in enumerate_genus(genus)]
            assert gaps == sorted(gaps)
            assert len(set(gaps)) == len(gaps)

    def test_bound_guard(self):
        with pytest.raises(BoundExceeded):
            enumerate_genus(17)
        with pytest.raises(ValueError):
            enumerate_genus(-1)
