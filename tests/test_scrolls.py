"""Tests for run decompositions, scroll structures, and the minor check."""

import math
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollcurves.chow import Ambient
from scrollcurves.curves import canonical_exponents, representative_curve
from scrollcurves.scrolls import (
    ScrollStructure,
    _compositions,
    _cut,
    _run_count,
    min_scroll_dimension,
    minor_check,
    run_decomposition,
    scroll_structures,
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


def reference_min_scroll_dimension(values) -> int:
    """Fewest runs over every step, each decomposition built in full."""
    vals = sorted(set(values))
    if len(vals) == 1:
        return 1
    kappa = math.gcd(*(v - vals[0] for v in vals))
    return min(
        len(run_decomposition(vals, step))
        for step in range(kappa, vals[-1] - vals[0] + 1, kappa)
    )


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
        runs = run_decomposition(vals, step)
        if len(runs) > d:
            continue
        seen = set()
        for pieces_per_run in _compositions(d, len(runs)):
            if any(k > len(r) for k, r in zip(pieces_per_run, runs)):
                continue
            split_menu = [
                list(_compositions(len(r), k)) for r, k in zip(runs, pieces_per_run)
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


def assert_run_counts(values) -> None:
    vals = sorted(set(values))
    mask = bitmask(v - vals[0] for v in vals)
    for step in range(1, vals[-1] - vals[0] + 2):
        expected = len(run_decomposition(vals, step))
        assert _run_count(mask, len(vals), step) == expected, (vals, step)


class TestRuns:
    def test_simple_runs(self):
        assert run_decomposition((0, 3, 4, 5), 1) == ((0,), (3, 4, 5))

    def test_interleaved_runs_found_by_residue(self):
        assert run_decomposition((0, 2, 5, 6, 7, 8), 2) == ((0, 2), (5, 7), (6, 8))

    def test_single_element(self):
        assert run_decomposition((4,), 3) == ((4,),)


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
    @given(st.sets(st.integers(-40, 40), min_size=1, max_size=10))
    def test_random_sets(self, values):
        assert_run_counts(values)
        assert min_scroll_dimension(values) == reference_min_scroll_dimension(values)
        for d in range(1, len(values) + 1):
            assert scroll_structures(values, d) == reference_scroll_structures(values, d)

    def test_structures_match_unskipped_search(self):
        for values in canonical_sets():
            for d in range(1, len(values) + 1):
                assert scroll_structures(values, d) == reference_scroll_structures(
                    values, d
                ), (values, d)


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
