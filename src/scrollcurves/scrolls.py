"""Scroll structures carried by finite exponent sets.

A finite set of integers spans a rational normal curve of monomials; ways
of splitting the set into blocks of arithmetic progressions with a common
step describe the rational normal scrolls through that curve.  Block sizes
determine the scroll type, the step divided by the gcd of the set gives the
fiber degree ell, and vanishing of the 2 x 2 minors of the associated
two-row matrix certifies a proposed structure (the tests hold every
structure found to that check).
"""

from __future__ import annotations

import math
from itertools import accumulate, product

from .chow import Ambient
from .semigroups import bitmask

# Most block splits (`split_count`) the scrolls command walks: a few seconds.
SPLIT_LIMIT = 1_000_000


class ScrollStructure:
    """A block partition of an exponent set realizing a scroll.

    blocks are tuples of set elements, each an arithmetic progression with
    the given step; kappa is the gcd of differences within the whole set,
    so ell = step / kappa is the degree the blocks sweep along a fiber.
    Immutable, with equality, hash and repr by step, blocks and kappa; a
    spare slot keeps the scroll type once it is first read.
    """

    __slots__ = ("step", "blocks", "kappa", "_scroll_type")

    def __init__(self, step: int, blocks: tuple[tuple[int, ...], ...], kappa: int) -> None:
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "kappa", kappa)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.step, self.blocks, self.kappa

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "ScrollStructure(step={!r}, blocks={!r}, kappa={!r})".format(*self._key())

    def __reduce__(self):
        return ScrollStructure, self._key()

    @property
    def ell(self) -> int:
        return self.step // self.kappa

    @property
    def scroll_type(self) -> Ambient:
        """The scroll the blocks span: one dimension per block, its size
        less one (an Ambient sorts them ascending), built once."""
        try:
            return self._scroll_type
        except AttributeError:
            built = Ambient(tuple(len(b) - 1 for b in self.blocks))
            object.__setattr__(self, "_scroll_type", built)
            return built

    @property
    def m_min(self) -> int:
        return min(len(b) - 1 for b in self.blocks)


def run_decomposition(values, step: int) -> tuple[tuple[int, ...], ...]:
    """Maximal arithmetic runs with the given step, ordered by minimum.

    A run starts at each value v with v - step absent and extends while
    the next term is present, so interleaved runs are still found:

    >>> run_decomposition((0, 2, 5, 6, 7, 8), 2)
    ((0, 2), (5, 7), (6, 8))
    """
    members = set(values)
    runs = []
    for v in sorted(members):
        if v - step not in members:
            run = [v]
            while run[-1] + step in members:
                run.append(run[-1] + step)
            runs.append(tuple(run))
    return tuple(runs)


def _compositions(total: int, caps: tuple[int, ...]):
    """Compositions of total into len(caps) positive parts, part i at most
    caps[i], in descending lexicographic order, trying no dead prefix: the
    open parts are filled with the largest values that leave the rest
    feasible (room[i] = sum(caps[i:])), then popped until one can drop."""
    k = len(caps)
    room = list(accumulate(reversed(caps), initial=0))[::-1]
    if not k <= total <= room[0]:
        return
    parts: list[int] = []
    left = total
    while True:
        for i in range(len(parts), k):
            parts.append(min(caps[i], left - (k - 1 - i)))
            left -= parts[-1]
        yield tuple(parts)
        while parts:
            part = parts.pop()
            left += part
            if part > max(1, left - room[len(parts) + 1]):
                parts.append(part - 1)
                left -= part - 1
                break
        else:
            return


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


def _block_values(values, d: int | None = None) -> tuple[int, ...]:
    """The sorted distinct values, checked to take d blocks if d is given."""
    vals = tuple(sorted(set(int(v) for v in values)))
    if not vals:
        raise ValueError("the exponent set is empty")
    if d is not None and (d < 1 or d > len(vals)):
        raise ValueError(f"block count {d} out of range for {len(vals)} elements")
    return vals


def scroll_structures(values, d: int | None = None) -> tuple[ScrollStructure, ...]:
    """All scroll structures with exactly d blocks on the given set; d
    defaults to the minimum scroll dimension, read from the same walk.

    Steps run over multiples of the set's gcd of differences up to the
    span (a block of two or more elements forces the step to be such a
    multiple; the all-singleton partition carries no step information and
    is reported once, at the base step).  Within one step, structures are
    identified by their multiset of block sizes; the representative split
    cuts each run in order, larger pieces first.

    A step yields a structure exactly when it has at most d runs, except
    that with d equal to the set size only the base step reports.  The
    steps and their run counts come from one pruned walk (`_run_counts`),
    so `run_decomposition` runs only for the steps that report.  A step
    with exactly d runs has one split, the runs themselves; only a step
    with fewer runs searches the ways to cut them (`split_count` counts
    the splits).
    """
    vals = _block_values(values, d)
    n = len(vals)
    if n == 1:
        return (ScrollStructure(1, ((vals[0],),), 1),)
    walk = list(_run_counts(vals, d))
    if d is None:
        d = min(count for _, count in walk)
    kappa = walk[0][0]
    out: list[ScrollStructure] = []
    for step, count in walk:
        if count > d or (d == n and step != kappa):
            continue
        runs = run_decomposition(vals, step)
        if count == d:
            out.append(ScrollStructure(step, runs, kappa))
            continue
        seen: set[tuple[int, ...]] = set()
        for pieces_per_run in _compositions(d, tuple(len(r) for r in runs)):
            split_menu = [
                list(_compositions(len(r), (len(r),) * k))
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


def split_count(values, d: int) -> int:
    """Number of block splits `scroll_structures(values, d)` walks before
    dropping repeated block sizes: over the steps it visits (only the base
    step when d = n), the sum over pieces per run of the product of
    C(|run| - 1, k - 1), which is C(n - r, d - r) for r runs, and 1 for a
    step with exactly d runs, which is split once, into its runs.  The run
    counts come from one walk of the steps, pruned at d.

    >>> split_count((0, 1, 2, 3), 2)
    4
    """
    vals = _block_values(values, d)
    n = len(vals)
    if d == n:
        return 1
    return sum(math.comb(n - r, d - r) for _, r in _run_counts(vals, d) if r <= d)


def min_scroll_dimension(values) -> int:
    """Fewest blocks any step allows: the minimum scroll dimension.

    This is the fewest maximal runs over the steps that are multiples of
    the gcd of differences, from the pruned walk of `_run_counts`; no run
    is built.
    """
    vals = _block_values(values)
    if len(vals) == 1:
        return 1
    return min(count for _, count in _run_counts(vals))


def _run_counts(vals: tuple[int, ...], limit: int | None = None):
    """(step, run count) for the steps of a sorted set of two or more
    values, the multiples of its gcd of differences up to its span, in
    increasing order, the base step (the gcd) first; the walk stops
    at the first step whose count is bound to exceed limit or, with no
    limit, the fewest runs so far.

    At step s every element of the top s of the set ends a run (adding s
    passes the largest value) and every element of the bottom s starts
    one, so the count is at least the larger of those two numbers; the
    bound never decreases in s, so no later step can come back under the
    limit.  The stop is strict: a step tied with the limit or the minimum
    is still yielded.  Each count is one popcount (see `_run_count`).
    """
    n = len(vals)
    lo, hi = vals[0], vals[-1]
    kappa = math.gcd(*(v - lo for v in vals))
    mask = bitmask(v - lo for v in vals)
    best = n
    bottom = top = 0
    for step in range(kappa, hi - lo + 1, kappa):
        while vals[bottom] < lo + step:
            bottom += 1
        while vals[n - 1 - top] > hi - step:
            top += 1
        if max(bottom, top) > (best if limit is None else limit):
            return
        count = _run_count(mask, n, step)
        best = min(best, count)
        yield step, count
