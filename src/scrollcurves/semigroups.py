"""Numerical semigroups and the exact set arithmetic built on them.

Everything here is integer arithmetic on tuples and int bitmasks; nothing
is floating point.  A numerical semigroup is a cofinite subset of the
nonnegative integers containing 0 and closed under addition.  Alongside the
semigroups themselves the module manipulates "value sets": cofinite integer
sets stored as a bitmask of a finite part plus an infinite tail.  That is
the shape taken by shifted semigroups, their unions and Minkowski sums, and
the dual set measuring how far a semigroup is from being symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BoundExceeded,
    EmptyGenerators,
    GcdNotOne,
    NotAValidKappaStar,
)

DEFAULT_GENUS_BOUND = 16


class ValueSet:
    """A set of integers written as a finite part plus an infinite tail.

    The set is the finite part together with every integer at or above
    ``tail_start``.  It is stored as a canonical triple ``(low, mask,
    tail_start)``: bit j of the int ``mask`` is set when ``low + j`` is a
    finite element, ``low`` is the smallest element (bit 0 is set unless
    the finite part is empty, and then ``low == tail_start``), no bit
    reaches the tail, and the integer immediately below the tail is absent
    (it would otherwise be absorbed into the tail).  Equality of triples is
    therefore equality of sets, and shifts, unions, Minkowski sums and
    difference counts are shifts, ors and popcounts of ``mask``.

    >>> ValueSet((3, 5, 6, 7), 8) == ValueSet((3,), 5)
    True
    >>> v = ValueSet((-2, 1), 4)
    >>> (v.low, bin(v.mask), v.tail_start)
    (-2, '0b1001', 4)
    """

    __slots__ = ("low", "mask", "tail_start")

    def __init__(self, finite_part, tail_start: int) -> None:
        finite = [x for x in finite_part if x < tail_start]
        low = min(finite, default=tail_start)
        self._store(*_canonical(low, bitmask(x - low for x in finite), tail_start))

    @classmethod
    def _from_mask(cls, low: int, mask: int, tail_start: int) -> ValueSet:
        """The set with bit j of mask for low + j plus the tail, in
        canonical form; bits at or past the tail are dropped."""
        out = object.__new__(cls)
        out._store(*_canonical(low, mask, tail_start))
        return out

    def _store(self, low: int, mask: int, tail_start: int) -> None:
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "tail_start", tail_start)

    def __setattr__(self, name, value):
        raise AttributeError(f"ValueSet is immutable; cannot set {name}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueSet):
            return NotImplemented
        return (self.low, self.mask, self.tail_start) == (
            other.low,
            other.mask,
            other.tail_start,
        )

    def __hash__(self) -> int:
        return hash((self.low, self.mask, self.tail_start))

    def __repr__(self) -> str:
        return f"ValueSet(finite_part={self.finite_part}, tail_start={self.tail_start})"

    def __contains__(self, x: int) -> bool:
        if x >= self.tail_start:
            return True
        return x >= self.low and (self.mask >> (x - self.low)) & 1 == 1

    @property
    def finite_part(self) -> tuple[int, ...]:
        """The finite elements, sorted: one pass over the binary digits of
        the mask, least significant first."""
        digits = bin(self.mask)[:1:-1]
        return tuple(self.low + j for j, bit in enumerate(digits) if bit == "1")

    @property
    def min_element(self) -> int:
        return self.low

    def window(self, lo: int, hi: int) -> int:
        """The members x with lo <= x < hi as a mask, bit j for lo + j."""
        width = hi - lo
        if width <= 0:
            return 0
        tail = max(self.tail_start - lo, 0)
        bits = ((1 << width) - 1) >> tail << tail
        offset = self.low - lo
        bits |= self.mask << offset if offset >= 0 else self.mask >> -offset
        return bits & ((1 << width) - 1)

    def shift(self, k: int) -> ValueSet:
        """Translate the whole set by the integer k."""
        return ValueSet._from_mask(self.low + k, self.mask, self.tail_start + k)

    def shifted_union(self, shifts) -> ValueSet:
        """The union of self + k over the given shifts, as one or of the
        shifted masks, normalized once."""
        ks = sorted(set(shifts))
        if not ks:
            raise ValueError("the union needs at least one shift")
        first = ks[0]
        mask = 0
        for k in ks:
            mask |= self.mask << (k - first)
        return ValueSet._from_mask(self.low + first, mask, self.tail_start + first)

    def union(self, other: ValueSet) -> ValueSet:
        low = min(self.low, other.low)
        mask = self.mask << (self.low - low) | other.mask << (other.low - low)
        return ValueSet._from_mask(low, mask, min(self.tail_start, other.tail_start))

    def minkowski(self, other: ValueSet) -> ValueSet:
        """Minkowski sum: every a + b with a in self and b in other.

        The sum of two tailed sets is again a tailed set.  Its tail starts
        no later than min element + other tail (in either order), and every
        sum below that threshold uses finite elements from both operands:
        the or of the other mask shifted by each set bit of this one.
        """
        tail = min(
            self.min_element + other.tail_start,
            other.min_element + self.tail_start,
        )
        few, many = self.mask, other.mask
        if few.bit_count() > many.bit_count():
            few, many = many, few
        sums = 0
        while few:
            sums |= many << ((few & -few).bit_length() - 1)
            few &= few - 1
        return ValueSet._from_mask(self.low + other.low, sums, tail)

    def elements_up_to(self, n: int) -> list[int]:
        """Sorted list of all members x with x <= n."""
        out = [x for x in self.finite_part if x <= n]
        out.extend(range(self.tail_start, n + 1))
        return out

    def count_difference(self, other: ValueSet) -> int:
        """Number of elements of self that are not in other (always finite):
        a popcount over [min low, max tail), past which both hold everything."""
        lo = min(self.low, other.low)
        hi = max(self.tail_start, other.tail_start)
        return (self.window(lo, hi) & ~other.window(lo, hi)).bit_count()


def _canonical(low: int, mask: int, tail: int) -> tuple[int, int, int]:
    """The canonical triple of the set {low + j : bit j of mask} plus
    [tail, infinity): bits at or past the tail dropped, the run of elements
    just below the tail absorbed into it, and low moved up to the smallest
    finite element (or to the tail when none is left)."""
    width = tail - low
    if width <= 0:
        return tail, 0, tail
    full = (1 << width) - 1
    mask &= full
    top = (full & ~mask).bit_length()
    tail = low + top
    mask &= (1 << top) - 1
    if not mask:
        return tail, 0, tail
    skip = (mask & -mask).bit_length() - 1
    return low + skip, mask >> skip, tail


def bitmask(offsets) -> int:
    """The int with bit k set for each k in a collection of nonnegative ints.

    One binary digit per integer up to the largest offset is written into a
    bytearray, most significant first, and parsed once, so the cost is
    linear in that offset (or-ing 1 << k per element would be quadratic).

    >>> bin(bitmask((0, 2, 3)))
    '0b1101'
    """
    offsets = tuple(offsets)
    if not offsets:
        return 0
    top = max(offsets)
    bits = bytearray(b"0") * (top + 1)
    for k in offsets:
        bits[top - k] = ord("1")
    return int(bits, 2)


def reverse_bits(mask: int, width: int) -> int:
    """The low width bits of mask in reverse order: bit j of the result is
    bit width - 1 - j of mask.  One string reversal, linear in width.

    >>> bin(reverse_bits(0b0011, 4))
    '0b1100'
    """
    if width <= 0:
        return 0
    return int(format(mask & ((1 << width) - 1), f"0{width}b")[::-1], 2)


class NumericalSemigroup:
    """A numerical semigroup stored through its finite gap set.

    Attributes
    ----------
    generators : tuple of int
        The generating set the object was built from; when reconstructed
        from gaps this is the minimal generating set.
    gaps : tuple of int
        The positive integers missing from the semigroup, sorted.
    alpha : int
        Multiplicity, the smallest nonzero element.
    gamma : int
        Frobenius number, the largest gap (-1 when there are no gaps).
    beta : int
        Conductor, gamma + 1.
    delta : int
        Genus, the number of gaps.
    elements_below_conductor : tuple of int
        Every element up to and including the conductor.
    gap_mask : int
        The gap set as a bitmask, bit g set exactly for each gap g; built
        on first use, in time linear in the conductor.
    """

    __slots__ = (
        "generators",
        "gaps",
        "alpha",
        "beta",
        "gamma",
        "delta",
        "elements_below_conductor",
        "_small",
        "_minimal",
        "_gap_mask",
    )

    def __init__(self, gaps, generators=None):
        gaps = tuple(sorted(gaps))
        gamma = gaps[-1] if gaps else -1
        beta = gamma + 1
        gap_set = frozenset(gaps)
        small = frozenset(x for x in range(beta + 1) if x not in gap_set)
        self.gaps = gaps
        self.gamma = gamma
        self.beta = beta
        self.delta = len(gaps)
        self._small = small
        self.elements_below_conductor = tuple(sorted(small))
        self.alpha = min((x for x in small if x > 0), default=1)
        self._minimal = None
        self._gap_mask = None
        if generators is None:
            generators = self.minimal_generators
        self.generators = tuple(generators)

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        return x >= self.beta or x in self._small

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.gaps == other.gaps

    def __hash__(self) -> int:
        return hash(self.gaps)

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators)
        return f"NumericalSemigroup<{inside}>"

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """Elements not expressible as a sum of two nonzero elements.

        Any decomposable element n splits as a + (n - a) with both parts at
        least the multiplicity, so candidates above beta + alpha - 1 never
        occur and the search window is finite.
        """
        if self._minimal is None:
            if self.delta == 0:
                self._minimal = (1,)
            else:
                found = []
                for n in range(self.alpha, self.beta + self.alpha):
                    if n not in self:
                        continue
                    decomposable = any(
                        a in self and (n - a) in self
                        for a in range(self.alpha, n - self.alpha + 1)
                    )
                    if not decomposable:
                        found.append(n)
                self._minimal = tuple(found)
        return self._minimal

    @property
    def gap_mask(self) -> int:
        if self._gap_mask is None:
            self._gap_mask = bitmask(self.gaps)
        return self._gap_mask

    def value_set(self) -> ValueSet:
        """The semigroup as a tailed set (tail starts at the conductor),
        its mask the complement of the gap mask below the conductor."""
        return ValueSet._from_mask(0, ~self.gap_mask & ((1 << self.beta) - 1), self.beta)


def make_semigroup(generators) -> NumericalSemigroup:
    """Build the numerical semigroup generated by the given integers.

    The generators must be positive with overall gcd 1.  Reachability is
    streamed upward from 0 (i is reachable when i - g is, for some generator
    g), and every unreachable integer is recorded as a gap as the stream
    passes it.  The stream stops at the first run of alpha consecutive
    reachable integers, alpha being the multiplicity: adding alpha repeatedly
    to that run reaches every larger integer, so the run certifies that the
    gap set is complete.  The buffer grows with the stream and never passes
    Schur's bound (alpha - 1)(max - 1) + alpha on where such a run must end;
    reaching the bound without one raises BoundExceeded.

    >>> make_semigroup((4, 5, 7)).gaps
    (1, 2, 3, 6)
    >>> make_semigroup((3, 1001)).gamma
    1999
    """
    gens = tuple(sorted({int(g) for g in generators}))
    if not gens:
        raise EmptyGenerators("at least one generator is required")
    if gens[0] <= 0:
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise GcdNotOne(f"generators {gens} have gcd {math.gcd(*gens)}")
    alpha = gens[0]
    cap = (alpha - 1) * (gens[-1] - 1) + alpha
    reach = bytearray(b"\x01")
    gaps = []
    run = 1
    while run < alpha:
        i = len(reach)
        if i >= cap:
            raise BoundExceeded("no run of alpha reachable integers within Schur's bound")
        if any(reach[i - g] for g in gens if g <= i):
            reach.append(1)
            run += 1
        else:
            reach.append(0)
            gaps.append(i)
            run = 0
    return NumericalSemigroup(gaps, gens)


def semigroup_from_gaps(gaps) -> NumericalSemigroup:
    """Rebuild a semigroup from its gap set, verifying additive closure.

    Raises ValueError when the complement of the proposed gap set is not
    closed under addition.
    """
    gap_list = sorted(set(gaps))
    if not gap_list:
        return NumericalSemigroup(())
    if gap_list[0] < 1:
        raise ValueError("gaps must be positive integers")
    gamma = gap_list[-1]
    gap_set = frozenset(gap_list)
    small = [x for x in range(1, gamma + 1) if x not in gap_set]
    for i, a in enumerate(small):
        for b in small[i:]:
            total = a + b
            if total > gamma:
                break
            if total in gap_set:
                raise ValueError(
                    f"complement is not additively closed: {a} + {b} = {total} is a gap"
                )
    return NumericalSemigroup(gap_list)


@dataclass(frozen=True)
class KappaSets:
    """The dual set of a semigroup relative to its Frobenius number.

    k is the full set {a >= 0 : gamma - a not in S} as a tailed set, k_star
    its finite part below the conductor, and s_star the semigroup elements
    up to the conductor.  k always contains the semigroup, and k_star has
    exactly genus-many elements.
    """

    k: ValueSet
    k_star: tuple[int, ...]
    s_star: tuple[int, ...]


def kappa_sets(s: NumericalSemigroup) -> KappaSets:
    """The dual sets of s; the mask of k is the gap mask reversed over
    [0, beta), since a is in k_star exactly when gamma - a is a gap."""
    k = ValueSet._from_mask(0, reverse_bits(s.gap_mask, s.beta), s.beta)
    return KappaSets(k, k.finite_part, s.elements_below_conductor)


def is_symmetric(s: NumericalSemigroup) -> bool:
    """Whether a is in S exactly when gamma - a is not, for 0 <= a <= gamma."""
    return all((a in s) != ((s.gamma - a) in s) for a in range(s.beta))


def eta_local(s: NumericalSemigroup) -> int:
    """Size of K minus S, zero exactly for symmetric semigroups."""
    return sum(1 for a in kappa_sets(s).k_star if a not in s)


def stable_minkowski_power(v: ValueSet, max_steps: int = 10000) -> ValueSet:
    """Limit of the increasing chain v, v+v, v+v+v, ...

    Requires 0 in v so the chain is increasing; the chain lives inside a
    fixed finite window plus tail, hence stabilizes.
    """
    if 0 not in v:
        raise ValueError("stabilization needs 0 in the value set")
    current = v
    for _ in range(max_steps):
        nxt = current.minkowski(v)
        if nxt == current:
            return current
        current = nxt
    raise BoundExceeded("Minkowski chain failed to stabilize")


def stabilizer(v: ValueSet) -> ValueSet:
    """All a >= 0 with a + v contained in v, as a tailed set.

    Every a at or past the tail start qualifies (v contains 0, so a itself
    must land in v, and larger shifts stay in the tail), which keeps the
    check finite.  Below the tail start, a qualifies when the finite mask
    shifted by a meets none of the holes of v, the integers between its
    min element and its tail that it misses: (mask << a) & holes == 0.
    """
    tail = max(0, v.tail_start)
    holes = ~v.mask & ((1 << (v.tail_start - v.low)) - 1)
    # distinct powers of two, so the sum is their or
    good = sum(1 << a for a in range(tail) if not (v.mask << a) & holes)
    return ValueSet._from_mask(0, good, tail)


@dataclass(frozen=True)
class MuData:
    """mu together with the two sets the computation passes through."""

    mu: int
    stabilizer: ValueSet
    stable_power: ValueSet


def mu_local(s: NumericalSemigroup) -> MuData:
    """The second symmetry defect: #(T \\ K) for T the stabilizer of the
    stable Minkowski power of K."""
    k = kappa_sets(s).k
    stable = stable_minkowski_power(k)
    t = stabilizer(stable)
    return MuData(t.count_difference(k), t, stable)


def recover_from_kappa_star(values) -> NumericalSemigroup:
    """Invert the map from a semigroup to its dual finite part.

    An empty input recovers the full nonnegative integers.  Otherwise the
    set must contain 0 and its mirror must leave an additively closed
    complement; anything else raises NotAValidKappaStar.

    >>> recover_from_kappa_star((0, 3, 4, 5)).generators
    (4, 5, 7)
    """
    vals = sorted(set(values))
    if not vals:
        return NumericalSemigroup(())
    if vals[0] != 0:
        raise NotAValidKappaStar("the finite dual part must contain 0")
    gamma = vals[-1] + 1
    gaps = sorted(gamma - a for a in vals)
    try:
        return semigroup_from_gaps(gaps)
    except ValueError as exc:
        raise NotAValidKappaStar(str(exc)) from exc


@dataclass(frozen=True)
class BlockDecomposition:
    """Maximal runs of consecutive semigroup elements strictly between 0
    and the conductor, plus their count."""

    blocks: tuple[tuple[int, ...], ...]
    b: int


def block_decomposition(s: NumericalSemigroup) -> BlockDecomposition:
    interior = [x for x in s.elements_below_conductor if 0 < x < s.beta]
    blocks: list[list[int]] = []
    for x in interior:
        if blocks and x == blocks[-1][-1] + 1:
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return BlockDecomposition(tuple(tuple(b) for b in blocks), len(blocks))


@lru_cache(maxsize=None)
def _genus_level(genus: int) -> tuple[tuple[int, ...], ...]:
    """Gap tuples of every numerical semigroup of the given genus, sorted.

    Children of a semigroup are obtained by removing one minimal generator
    larger than the Frobenius number; every semigroup of positive genus
    arises exactly once this way (restore the Frobenius number to find the
    unique parent).
    """
    if genus == 0:
        return ((),)
    level = []
    for gaps in _genus_level(genus - 1):
        parent = NumericalSemigroup(gaps)
        for n in parent.minimal_generators:
            if n > parent.gamma:
                level.append(tuple(sorted(gaps + (n,))))
    return tuple(sorted(level))


def enumerate_genus(genus: int, bound: int = DEFAULT_GENUS_BOUND) -> list[NumericalSemigroup]:
    """Every numerical semigroup with exactly `genus` gaps, in lexicographic
    order of gap tuples.

    The bound guards against accidental huge sweeps; pass a larger value
    deliberately to go beyond it.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if genus > bound:
        raise BoundExceeded(f"genus {genus} exceeds the configured bound {bound}")
    return [NumericalSemigroup(gaps) for gaps in _genus_level(genus)]
