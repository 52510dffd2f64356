"""Scroll structures carried by finite exponent sets.

A finite set of integers spans a rational normal curve of monomials; ways
of splitting the set into blocks of arithmetic progressions with a common
step describe the rational normal scrolls through that curve.  Block sizes
determine the scroll type, the step divided by the gcd of the set gives the
fiber degree ell, and vanishing of the 2 x 2 minors of the associated
two-row matrix certifies a proposed structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .semigroups import bitmask


@dataclass(frozen=True)
class ScrollType:
    """Multiset of scroll dimensions m_i, stored sorted ascending."""

    dims: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def e(self) -> int:
        return sum(self.dims)

    @property
    def ambient_dimension(self) -> int:
        return self.e + self.d - 1


@dataclass(frozen=True)
class ScrollStructure:
    """A block partition of an exponent set realizing a scroll.

    blocks are tuples of set elements, each an arithmetic progression with
    the given step; kappa is the gcd of differences within the whole set,
    so ell = step / kappa is the degree the blocks sweep along a fiber.
    """

    step: int
    blocks: tuple[tuple[int, ...], ...]
    kappa: int

    @property
    def ell(self) -> int:
        return self.step // self.kappa

    @property
    def scroll_type(self) -> ScrollType:
        return ScrollType(tuple(sorted(len(b) - 1 for b in self.blocks)))

    @property
    def m_min(self) -> int:
        return min(len(b) - 1 for b in self.blocks)


def run_decomposition(values, step: int) -> tuple[tuple[int, ...], ...]:
    """Maximal arithmetic runs with the given step, ordered by minimum.

    Elements are grouped by residue class mod step first, so interleaved
    runs are still found:

    >>> run_decomposition((0, 2, 5, 6, 7, 8), 2)
    ((0, 2), (5, 7), (6, 8))
    """
    vals = sorted(set(values))
    classes: dict[int, list[int]] = {}
    for v in vals:
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


def _compositions(total: int, parts: int):
    """Compositions of total into the given number of positive parts, in
    descending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total - parts + 1, 0, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _cut(run: tuple[int, ...], sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    pieces = []
    at = 0
    for size in sizes:
        pieces.append(run[at : at + size])
        at += size
    return pieces


def _run_count(mask: int, size: int, step: int) -> int:
    """Number of maximal step-runs of a set of the given size and mask.

    A run of k elements holds k - 1 elements whose successor by the step
    is also in the set, so the runs number size minus the popcount of
    mask & mask >> step; it equals len(run_decomposition(set, step)).
    """
    return size - (mask & mask >> step).bit_count()


def scroll_structures(values, d: int) -> tuple[ScrollStructure, ...]:
    """All scroll structures with exactly d blocks on the given set.

    Steps run over multiples of the set's gcd of differences up to the
    span (a block of two or more elements forces the step to be such a
    multiple; the all-singleton partition carries no step information and
    is reported once, at the base step).  Within one step, structures are
    identified by their multiset of block sizes; the representative split
    cuts each run in order, larger pieces first.

    A step yields a structure exactly when it has at most d runs, except
    that with d equal to the set size only the base step reports.  Run
    counts come from a popcount of the set's bitmask (see `_run_count`),
    so `run_decomposition` is called only for the steps that yield.
    """
    vals = tuple(sorted(set(int(v) for v in values)))
    n = len(vals)
    if n == 0:
        raise ValueError("the exponent set is empty")
    if d < 1 or d > n:
        raise ValueError(f"block count {d} out of range for {n} elements")
    if n == 1:
        return (ScrollStructure(1, ((vals[0],),), 1),)
    kappa = math.gcd(*(v - vals[0] for v in vals))
    span = vals[-1] - vals[0]
    mask = bitmask(v - vals[0] for v in vals)
    out: list[ScrollStructure] = []
    for step in range(kappa, span + 1, kappa):
        if _run_count(mask, n, step) > d or (d == n and step != kappa):
            continue
        runs = run_decomposition(vals, step)
        seen: set[tuple[int, ...]] = set()
        for pieces_per_run in _compositions(d, len(runs)):
            if any(k > len(r) for k, r in zip(pieces_per_run, runs)):
                continue
            split_menu = [
                list(_compositions(len(r), k))
                for r, k in zip(runs, pieces_per_run)
            ]
            for choice in product(*split_menu):
                sizes = tuple(sorted(s for comp in choice for s in comp))
                if sizes in seen:
                    continue
                seen.add(sizes)
                blocks: list[tuple[int, ...]] = []
                for run, comp in zip(runs, choice):
                    blocks.extend(_cut(run, comp))
                out.append(ScrollStructure(step, tuple(blocks), kappa))
    return tuple(out)


def min_scroll_dimension(values) -> int:
    """Fewest blocks any step allows: the minimum scroll dimension.

    This is the fewest maximal runs over the steps that are multiples of
    the gcd of differences, each count a popcount of the set's bitmask
    (see `_run_count`); no run is built.
    """
    vals = tuple(sorted(set(int(v) for v in values)))
    if not vals:
        raise ValueError("the exponent set is empty")
    if len(vals) == 1:
        return 1
    kappa = math.gcd(*(v - vals[0] for v in vals))
    span = vals[-1] - vals[0]
    mask = bitmask(v - vals[0] for v in vals)
    return min(
        _run_count(mask, len(vals), step) for step in range(kappa, span + 1, kappa)
    )


def structure_ell(structure: ScrollStructure) -> int:
    return structure.ell


def minor_check(values, blocks, step: int) -> bool:
    """Verify a proposed block structure by the rank-one matrix condition.

    The blocks must partition the value set (anything else raises
    ValueError).  Each block of size two or more contributes the columns
    (b[i], b[i+1]); the structure is genuine exactly when every column has
    drop equal to the step and every 2 x 2 minor vanishes.
    """
    vals = sorted(set(int(v) for v in values))
    flat = sorted(x for b in blocks for x in b)
    if flat != vals:
        raise ValueError("blocks do not partition the value set")
    columns: list[tuple[int, int]] = []
    for b in blocks:
        bs = sorted(b)
        for i in range(len(bs) - 1):
            if bs[i + 1] - bs[i] != step:
                return False
            columns.append((bs[i], bs[i + 1]))
    for i in range(len(columns)):
        ti, ui = columns[i]
        for tj, uj in columns[i + 1 :]:
            if ti + uj != tj + ui:
                return False
    return True
