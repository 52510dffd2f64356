"""Tests for run decompositions, scroll structures, and the minor check.

The reference walks below build their runs with `residue_run_decomposition`,
which groups the set by residue class mod the step, so they stay
independent of the set walk in `run_decomposition`.
"""

import copy
import math
import pickle
import time
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollcurves import scrolls as scrolls_module
from scrollcurves.chow import Ambient
from scrollcurves.curves import canonical_exponents, make_curve, representative_curve
from scrollcurves.fixtures import fixture, fixture_names
from scrollcurves.scrolls import (
    ScrollStructure,
    _compositions,
    _cut,
    _run_count,
    _run_counts,
    min_scroll_dimension,
    run_decomposition,
    scroll_structures,
    split_count,
)
from scrollcurves.semigroups import bitmask, enumerate_genus


@cache
def canonical_sets() -> tuple[tuple[int, ...], ...]:
    """Normalized canonical exponents of every genus 1-10 representative."""
    return tuple(
        canonical_exponents(representative_curve(s))
        for genus in range(1, 11)
        for s in enumerate_genus(genus)
    )


def residue_run_decomposition(values, step: int) -> tuple[tuple[int, ...], ...]:
    """Maximal step-runs grouped by residue class mod step, each class cut
    where a gap opens, then sorted by minimum: the reference for the set
    walk of `run_decomposition`."""
    classes: dict[int, list[int]] = {}
    for v in sorted(set(values)):
        classes.setdefault(v % step, []).append(v)
    runs: list[list[int]] = []
    for members in classes.values():
        current = [members[0]]
        for v in members[1:]:
            if v == current[-1] + step:
                current.append(v)
            else:
                runs.append(current)
                current = [v]
        runs.append(current)
    runs.sort(key=lambda r: r[0])
    return tuple(tuple(r) for r in runs)


def full_walk(vals: tuple[int, ...]) -> list[tuple[int, int]]:
    """(step, number of runs built) at every step of a sorted set of two or
    more values: the walk `_run_counts` prunes."""
    kappa = math.gcd(*(v - vals[0] for v in vals))
    return [
        (step, len(residue_run_decomposition(vals, step)))
        for step in range(kappa, vals[-1] - vals[0] + 1, kappa)
    ]


def reference_min_scroll_dimension(values) -> int:
    """Fewest runs over every step, each decomposition built in full."""
    vals = tuple(sorted(set(values)))
    if len(vals) == 1:
        return 1
    return min(r for _, r in full_walk(vals))


def all_compositions(total: int, parts: int):
    """Compositions of total into the given number of positive parts, in
    descending lexicographic order, with no cap on a part: the search
    `scroll_structures` ran before its parts were capped by run length."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total - parts + 1, 0, -1):
        for rest in all_compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_split_count(values, d: int) -> int:
    """The splits of `split_count` as the literal sum, over the steps
    `scroll_structures` visits, of the product of C(|run| - 1, k - 1)
    over every composition of d into one piece count per run."""
    vals = sorted(set(values))
    kappa = math.gcd(*(v - vals[0] for v in vals))
    total = 0
    for step in range(kappa, vals[-1] - vals[0] + 1, kappa):
        if d == len(vals) and step != kappa:
            continue
        runs = residue_run_decomposition(vals, step)
        for pieces in all_compositions(d, len(runs)) if len(runs) <= d else ():
            total += math.prod(math.comb(len(r) - 1, k - 1) for r, k in zip(runs, pieces))
    return total


def reference_scroll_structures(values, d: int) -> tuple[ScrollStructure, ...]:
    """scroll_structures without the run-count skip: every step's runs are
    built and every step goes through the composition search."""
    vals = tuple(sorted(set(values)))
    n = len(vals)
    if n == 1:
        return (ScrollStructure(1, ((vals[0],),), 1),)
    kappa = math.gcd(*(v - vals[0] for v in vals))
    singletons = (1,) * n
    out = []
    for step in range(kappa, vals[-1] - vals[0] + 1, kappa):
        runs = residue_run_decomposition(vals, step)
        if len(runs) > d:
            continue
        seen = set()
        for pieces_per_run in all_compositions(d, len(runs)):
            if any(k > len(r) for k, r in zip(pieces_per_run, runs)):
                continue
            split_menu = [
                list(all_compositions(len(r), k)) for r, k in zip(runs, pieces_per_run)
            ]
            for choice in product(*split_menu):
                sizes = tuple(sorted(x for comp in choice for x in comp))
                if (sizes == singletons and step != kappa) or sizes in seen:
                    continue
                seen.add(sizes)
                blocks = []
                for run, comp in zip(runs, choice):
                    blocks.extend(_cut(run, comp))
                out.append(ScrollStructure(step, tuple(blocks), kappa))
    return tuple(out)


def assert_pruned_walk(values, limit) -> None:
    """The pruned walk is a prefix of the full one, and every step it
    leaves out has more runs than the limit (or, with none, than the
    minimum), so no step tied with either is lost."""
    vals = tuple(sorted(set(values)))
    full = full_walk(vals)
    walk = list(_run_counts(vals, limit))
    assert walk == full[: len(walk)], (vals, limit)
    target = min(r for _, r in full) if limit is None else limit
    assert all(r > target for _, r in full[len(walk) :]), (vals, limit)


def assert_run_counts(values) -> None:
    """At every step up to one past the span, the set walk builds the
    residue runs, and the popcount counts them."""
    vals = sorted(set(values))
    mask = bitmask(v - vals[0] for v in vals)
    for step in range(1, vals[-1] - vals[0] + 2):
        runs = run_decomposition(vals, step)
        assert runs == residue_run_decomposition(vals, step), (vals, step)
        assert _run_count(mask, len(vals), step) == len(runs), (vals, step)


class TestRuns:
    def test_simple_runs(self):
        assert run_decomposition((0, 3, 4, 5), 1) == ((0,), (3, 4, 5))

    def test_interleaved_runs_found_by_residue(self):
        assert run_decomposition((0, 2, 5, 6, 7, 8), 2) == ((0, 2), (5, 7), (6, 8))

    def test_single_element(self):
        assert run_decomposition((4,), 3) == ((4,),)

    def test_runs_end_at_gaps_and_unsorted_input(self):
        values = (9, 1, 3, 7, 3, 5, 13)
        assert run_decomposition(values, 2) == ((1, 3, 5, 7, 9), (13,))
        assert run_decomposition(values, 4) == ((1, 5, 9, 13), (3, 7))
        assert run_decomposition(values, 4) == residue_run_decomposition(values, 4)


class TestStructures:
    def test_canonical_split_prefers_large_first_piece(self):
        structures = scroll_structures((0, 1, 2, 3), 2)
        assert structures[0].blocks == ((0, 1, 2), (3,))
        assert structures[0].step == 1

    def test_full_listing_for_consecutive_four(self):
        structures = scroll_structures((0, 1, 2, 3), 2)
        as_pairs = {(s.step, s.blocks) for s in structures}
        assert as_pairs == {
            (1, ((0, 1, 2), (3,))),
            (1, ((0, 1), (2, 3))),
            (2, ((0, 2), (1, 3))),
        }

    def test_all_singletons_reported_once_at_base_step(self):
        structures = scroll_structures((0, 1, 2, 3), 4)
        assert len(structures) == 1
        assert structures[0].step == 1
        assert structures[0].blocks == ((0,), (1,), (2,), (3,))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            scroll_structures((0, 1, 2), 0)
        with pytest.raises(ValueError):
            scroll_structures((0, 1, 2), 4)
        with pytest.raises(ValueError):
            scroll_structures((), 1)

    def test_non_int_values_refused(self):
        for function in (scroll_structures, min_scroll_dimension):
            with pytest.raises(ValueError) as info:
                function((0, 1.5, 2, 3.2))
            assert str(info.value) == "exponents must be integers, got 1.5"

    def test_single_point(self):
        structures = scroll_structures((0,), 1)
        assert structures == (ScrollStructure(1, ((0,),), 1),)
        assert min_scroll_dimension((0,)) == 1

    def test_gcd_two_set_has_ell_one_surface_line(self):
        structures = scroll_structures((0, 2, 4, 6), 1)
        assert len(structures) == 1
        s = structures[0]
        assert s.step == 2 and s.kappa == 2
        assert s.ell == 1

    def test_scroll_type_properties(self):
        s = scroll_structures((0, 1, 2, 3), 2)[0]
        t = s.scroll_type
        assert t == Ambient((0, 2))
        assert t.d == 2 and t.e == 2 and t.ambient_dimension == 3

    def test_structure_is_an_immutable_value(self):
        """Equality, hash and repr read step, blocks and kappa; the scroll
        type, kept once it is first read, changes none of them."""
        s = ScrollStructure(1, ((0, 1, 2), (3,)), 1)
        twin = ScrollStructure(1, ((0, 1, 2), (3,)), 1)
        assert s.scroll_type is s.scroll_type == Ambient((0, 2))
        assert s == twin and hash(s) == hash(twin)
        assert s != ScrollStructure(1, ((0, 1, 2), (3,)), 3) and s != (1, ((0, 1, 2), (3,)), 1)
        assert repr(s) == "ScrollStructure(step=1, blocks=((0, 1, 2), (3,)), kappa=1)"
        for copied in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert copied == s and copied.scroll_type == s.scroll_type
        with pytest.raises(AttributeError):
            s.step = 2
        with pytest.raises(AttributeError):
            s._scroll_type = Ambient((1, 1))
        with pytest.raises(AttributeError):
            del s.blocks
        assert (s.step, s.scroll_type) == (1, Ambient((0, 2)))

    def test_genus_six_threefold_row(self):
        structures = scroll_structures((0, 4, 5, 7, 8, 9), 3)
        pairs = {s.scroll_type.dims[:2] for s in structures}
        assert (0, 1) in pairs

    def test_dims_forced_for_one_eight_element_set(self):
        structures = scroll_structures((0, 1, 4, 5, 6, 8, 9, 10), 3)
        assert structures
        assert {s.scroll_type.dims for s in structures} == {(1, 2, 2)}

    def test_minimum_dimension_frozen(self):
        assert min_scroll_dimension((0, 3, 4, 5)) == 2
        assert min_scroll_dimension((0, 2, 5, 6, 7, 8)) == 3
        assert min_scroll_dimension((0, 1, 2, 3)) == 1

    def test_structures_cover_every_count_between_bounds(self):
        values = (0, 3, 4, 5)
        assert scroll_structures(values, 1) == ()
        assert scroll_structures(values, 2) != ()
        assert scroll_structures(values, 3) != ()
        assert scroll_structures(values, 4) != ()


class TestRunCountOracle:
    def test_canonical_sets(self):
        assert len(canonical_sets()) == 477
        for values in canonical_sets():
            assert_run_counts(values)
            assert min_scroll_dimension(values) == reference_min_scroll_dimension(values)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.sets(st.integers(-40, 40), min_size=1, max_size=12),
            st.sets(st.integers(-40, -1), min_size=1, max_size=8),
            st.integers(-40, 40).map(lambda v: {v}),
        ),
        st.data(),
    )
    def test_random_sets(self, values, data):
        """Mixed-sign, all-negative and single-element sets: the run counts,
        the pruned walk at no limit and at each drawn dimension, the
        minimum, the structures at every dimension and at the default,
        and the splits over the drawn dimensions."""
        assert_run_counts(values)
        n = len(values)
        msd = reference_min_scroll_dimension(values)
        assert min_scroll_dimension(values) == msd
        assert scroll_structures(values) == reference_scroll_structures(values, msd)
        for d in range(1, n + 1):
            assert scroll_structures(values, d) == reference_scroll_structures(values, d)
        dims = data.draw(st.lists(st.integers(1, n), max_size=5))
        if n == 1:
            assert sum(split_count(values, d) for d in dims) == len(dims)
            return
        for limit in (None, *dims):
            assert_pruned_walk(values, limit)
        expected = sum(reference_split_count(values, d) for d in dims)
        assert sum(split_count(values, d) for d in dims) == expected, (values, dims)

    def test_structures_match_unskipped_search(self):
        for values in canonical_sets():
            for d in range(1, len(values) + 1):
                assert scroll_structures(values, d) == reference_scroll_structures(
                    values, d
                ), (values, d)


class TestPrunedWalk:
    """The step walk `_run_counts` stops early: held to the full walk on
    the canonical sets of genus 1-10 and of the fixture curves (random
    sets are in `TestRunCountOracle`), with the structures at the default
    dimension and a time budget on a wide set."""

    @staticmethod
    def canonical_and_fixture_sets():
        """The 477 genus 1-10 canonical sets and the canonical sets of the
        74 bundled fixture curves."""
        fixtures = [
            canonical_exponents(make_curve(row.exponents))
            for name in fixture_names()
            for row in fixture(name)
        ]
        assert len(fixtures) == 74
        return canonical_sets() + tuple(fixtures)

    def test_walks_of_canonical_and_fixture_sets(self):
        for values in self.canonical_and_fixture_sets():
            if len(values) > 1:
                for limit in (None, 1, 2, 3, 4):
                    assert_pruned_walk(values, limit)

    def test_default_dimension_is_the_minimum(self):
        for values in self.canonical_and_fixture_sets():
            structures = scroll_structures(values)
            assert structures == scroll_structures(values, min_scroll_dimension(values))
            assert {len(s.blocks) for s in structures} == {min_scroll_dimension(values)}

    def test_ties_at_the_minimum_past_the_first_are_kept(self):
        """Steps 1 and 3 both give 2 runs on this set, and the bound has
        reached 2 by step 3: a walk that stopped on a tie would lose the
        second structure."""
        values = (0, 1, 3, 4)
        assert full_walk(values) == [(1, 2), (2, 3), (3, 2), (4, 3)]
        assert [s.step for s in scroll_structures(values)] == [1, 3]

    def test_wide_canonical_set_is_fast(self):
        """19,701 values spanning 39,400: the walk stops after 396 of the
        39,400 steps instead of visiting all of them, twice."""
        values = canonical_exponents(make_curve((3, 200)))
        assert len(values) == 19_701
        start = time.perf_counter()
        msd = min_scroll_dimension(values)
        structures = scroll_structures(values)
        assert time.perf_counter() - start < 0.1
        assert msd == len(structures[0].blocks)


class TestSplitCount:
    """`split_count` against the splits `scroll_structures` walks, and
    against the literal sum it closes.  A step with fewer runs than blocks
    is cut by the choices its `product` yields; a step with exactly as many
    is taken whole, one split each, counted by wrapping
    `run_decomposition`."""

    def count_walked(self, monkeypatch, values, d) -> int:
        walked = []

        def counting(*menus):
            for choice in product(*menus):
                walked.append(choice)
                yield choice

        def direct(vals, step):
            runs = run_decomposition(vals, step)
            if len(runs) == d:
                walked.append(runs)
            return runs

        monkeypatch.setattr(scrolls_module, "product", counting)
        monkeypatch.setattr(scrolls_module, "run_decomposition", direct)
        scroll_structures(values, d)
        return len(walked)

    def test_canonical_sets(self, monkeypatch):
        """The genus 1-6 sets with two or more values (a single value makes
        its one structure without a split)."""
        sets = [values for values in canonical_sets()[:120] if len(values) > 1]
        assert len(sets) == 119
        for values in sets:
            for d in range(1, len(values) + 1):
                expected = self.count_walked(monkeypatch, values, d)
                assert split_count(values, d) == expected, (values, d)
                assert reference_split_count(values, d) == expected, (values, d)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(-20, 20), min_size=2, max_size=9))
    def test_random_sets(self, values):
        for d in range(1, len(values) + 1):
            assert split_count(values, d) == reference_split_count(values, d), (values, d)

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(-20, 20), min_size=2, max_size=9), st.data())
    def test_sum_over_dimensions(self, values, data):
        dims = data.draw(st.lists(st.integers(1, len(values)), max_size=4))
        expected = sum(reference_split_count(values, d) for d in dims)
        assert sum(split_count(values, d) for d in dims) == expected, (values, dims)

    def test_examples(self):
        # step 1 cuts the run 0..3 at one of 3 points; step 2 has the two
        # runs (0, 2) and (1, 3), uncut; with d = n only step 1 counts
        assert split_count((0, 1, 2, 3), 2) == 3 + 1
        assert split_count((0, 1, 2, 3), 4) == 1
        assert split_count((5,), 1) == 1
        with pytest.raises(ValueError):
            split_count((0, 1), 3)

    def test_capped_compositions_are_the_valid_ones(self):
        """Every total from 1 to 14 over one to three runs of 1 to 4
        values, fewer or more than fit included."""
        for parts in (1, 2, 3):
            for total in range(1, 15):
                for caps in product(range(1, 5), repeat=parts):
                    every = all_compositions(total, parts)
                    valid = [c for c in every if all(k <= m for k, m in zip(c, caps))]
                    assert list(_compositions(total, caps)) == valid, (total, caps)

    def test_one_block_per_value_on_a_wide_set(self):
        """d = n on the 19,701-value canonical set of (3, 200): the base
        step has 8,910 runs, each cut into singletons, a composition far
        deeper than the recursion limit."""
        values = canonical_exponents(make_curve((3, 200)))
        start = time.perf_counter()
        structures = scroll_structures(values, 19_701)
        assert time.perf_counter() - start < 5.0
        assert len(structures) == 1
        assert structures[0].blocks == tuple((v,) for v in values)
        assert structures[0].step == 1

    def test_many_runs_and_high_dimension_are_fast(self):
        """Near d = n a step has many short runs and the compositions of d
        into them are mostly invalid; the capped search walks only the
        valid ones: 40 values, d = 39, 780 splits into 58 structures."""
        values = canonical_exponents(make_curve((3, 61, 62)))
        assert len(values) == 40
        start = time.perf_counter()
        assert split_count(values, 39) == 780
        assert len(scroll_structures(values, 39)) == 58
        assert time.perf_counter() - start < 1.0


def minor_check(values, blocks, step: int) -> bool:
    """Verify a proposed block structure by the rank-one matrix condition.

    The blocks must partition the value set (anything else raises
    ValueError).  Each block of size two or more contributes the exponent
    columns (t, u) = (b[i], b[i+1]) of a two-row matrix of monomials; the
    structure is genuine exactly when every column has drop equal to the
    step and every 2 x 2 minor vanishes, that is t_i + u_j = t_j + u_i.
    Once every drop is the step each column is (t, t + step), so every
    minor vanishes and the drop test alone decides.  The tests below hold
    every structure `scroll_structures` returns to it.
    """
    vals = sorted(set(int(v) for v in values))
    flat = sorted(x for b in blocks for x in b)
    if flat != vals:
        raise ValueError("blocks do not partition the value set")
    for b in blocks:
        bs = sorted(b)
        if any(y - x != step for x, y in zip(bs, bs[1:])):
            return False
    return True


class TestMinors:
    def test_valid_structure(self):
        assert minor_check((0, 1, 3, 4), ((0, 1), (3, 4)), 1)

    def test_wrong_internal_difference(self):
        assert not minor_check((0, 1, 3, 5), ((0, 1), (3, 5)), 1)

    def test_step_mismatch(self):
        assert not minor_check((0, 1, 3, 4), ((0, 1), (3, 4)), 2)

    def test_partition_mismatch(self):
        with pytest.raises(ValueError):
            minor_check((0, 1, 3, 4), ((0, 1), (3,)), 1)

    def test_singleton_blocks_are_unconstrained(self):
        assert minor_check((0, 5), ((0,), (5,)), 7)

    def test_generated_structures_pass(self):
        for d in (2, 3, 4):
            for s in scroll_structures((0, 2, 5, 6, 7, 8), d):
                assert minor_check((0, 2, 5, 6, 7, 8), s.blocks, s.step)

    def test_every_structure_of_every_canonical_set_passes(self):
        """Every output of scroll_structures, at every dimension, over the
        477 canonical sets of genus 1-10."""
        checked = 0
        for values in canonical_sets():
            for d in range(1, len(values) + 1):
                for s in scroll_structures(values, d):
                    assert minor_check(values, s.blocks, s.step), (values, d, s)
                    checked += 1
        assert checked > 477
