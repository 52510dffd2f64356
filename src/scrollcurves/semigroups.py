"""Numerical semigroups and the exact set arithmetic built on them.

Everything here is integer arithmetic on tuples and int bitmasks; nothing
is floating point.  A numerical semigroup is a cofinite subset of the
nonnegative integers containing 0 and closed under addition, stored as the
bitmask of its gaps.  The dual set K*, read off the gap mask reversed,
measures how far a semigroup is from being symmetric.
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


def sumset(few: int, many: int) -> int:
    """The mask of every i + j with bit i of few and bit j of many: the or
    of many shifted by each set bit of few.

    >>> bin(sumset(0b101, 0b11))
    '0b1111'
    """
    sums = 0
    while few:
        sums |= many << ((few & -few).bit_length() - 1)
        few &= few - 1
    return sums


def set_bits(mask: int, low: int = 0) -> tuple[int, ...]:
    """low + j for each set bit j of a nonnegative mask, sorted: one pass
    over its binary digits, least significant first.

    >>> set_bits(0b1101, 10)
    (10, 12, 13)
    """
    digits = bin(mask)[:1:-1]
    return tuple(low + j for j, bit in enumerate(digits) if bit == "1")


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
    """A numerical semigroup stored as its gap mask.

    Attributes
    ----------
    gap_mask : int
        Bit g set exactly for each gap g, a positive integer not in S.
    alpha : int
        Multiplicity, the smallest nonzero element: the lowest clear bit
        above bit 0.
    beta : int
        Conductor, gamma + 1: the bit length of the mask.
    gamma : int
        Frobenius number, the largest gap (-1 when there are no gaps).
    delta : int
        Genus, the number of gaps: the popcount of the mask.
    generators : tuple of int
        The generating set the object was built from; when built from gaps
        alone this is the minimal generating set.
    gaps, elements_below_conductor : tuple of int
        Views of the mask, built on each use.
    """

    __slots__ = ("gap_mask", "alpha", "beta", "gamma", "delta", "_generators")

    def __init__(self, gaps, generators=None):
        self._store(bitmask(gaps), generators)

    @classmethod
    def from_gap_mask(cls, mask: int, generators=None) -> NumericalSemigroup:
        """The semigroup whose gaps are the set bits of mask (bit 0 clear)."""
        out = cls.__new__(cls)
        out._store(mask, generators)
        return out

    def _store(self, mask: int, generators) -> None:
        self.gap_mask = mask
        self.beta = mask.bit_length()
        self.gamma = self.beta - 1
        self.delta = mask.bit_count()
        # 1, ..., alpha - 1 are gaps, so adding 1 to mask | 1 carries to alpha
        low = mask | 1
        self.alpha = (~low & (low + 1)).bit_length() - 1
        self._generators = None if generators is None else tuple(generators)

    def __contains__(self, x: int) -> bool:
        return x >= 0 and not (self.gap_mask >> x) & 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.gap_mask == other.gap_mask

    def __hash__(self) -> int:
        return hash(self.gap_mask)

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators)
        return f"NumericalSemigroup<{inside}>"

    @property
    def generators(self) -> tuple[int, ...]:
        return self.minimal_generators if self._generators is None else self._generators

    @property
    def gaps(self) -> tuple[int, ...]:
        """The gaps, sorted."""
        return set_bits(self.gap_mask)

    @property
    def elements_below_conductor(self) -> tuple[int, ...]:
        """Every element up to and including the conductor, sorted."""
        return set_bits(~self.gap_mask & ((2 << self.beta) - 1))

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """Elements not expressible as a sum of two nonzero elements.

        Both parts of such a sum are at least alpha, so none passes beta +
        alpha (alpha + beta itself once beta > 0): the minimal generators
        are the nonzero elements in [1, beta + alpha] less their sumset.
        """
        elements = ~self.gap_mask & ((2 << (self.beta + self.alpha)) - 2)
        return set_bits(elements & ~sumset(elements, elements))


def make_semigroup(generators) -> NumericalSemigroup:
    """Build the numerical semigroup generated by the given integers.

    The generators must be positive with overall gcd 1.  Reachability is
    streamed upward from 0 (i is reachable when i - g is, for some generator
    g), and every unreachable integer is recorded as a gap as the stream
    passes it.  The last max(generators) reachability flags live in one int,
    newest in bit 0, and the generators in a tap mask with bit g - 1 for
    each g, so i is reachable exactly when the two masks meet.  The stream
    stops at the first run of alpha (the multiplicity) reachable integers,
    which certifies the gap set: adding alpha to it reaches every larger
    integer.  Reaching Schur's bound (alpha - 1)(max - 1) + alpha on where
    such a run ends, without one, raises BoundExceeded.

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
    taps = bitmask(g - 1 for g in gens)
    keep = (1 << gens[-1]) - 1
    recent, run, i = 1, 1, 0
    gaps = []
    while run < alpha:
        i += 1
        if i >= cap:
            raise BoundExceeded("no run of alpha reachable integers within Schur's bound")
        if recent & taps:
            recent = (recent << 1 | 1) & keep
            run += 1
        else:
            recent = recent << 1 & keep
            gaps.append(i)
            run = 0
    return NumericalSemigroup.from_gap_mask(bitmask(gaps), gens)


def semigroup_from_gaps(gaps) -> NumericalSemigroup:
    """Rebuild a semigroup from its gap set, verifying additive closure.

    Raises ValueError when the complement of the proposed gap set is not
    closed under addition, naming the smallest element a and then the
    smallest b >= a whose sum is a gap: the lowest gap met by the elements
    from a up, shifted by a.
    """
    gap_list = sorted(set(gaps))
    if gap_list and gap_list[0] < 1:
        raise ValueError("gaps must be positive integers")
    s = NumericalSemigroup(gap_list)
    elements = ~s.gap_mask & ((1 << s.beta) - 1) & -2
    for a in set_bits(elements):
        hit = elements >> a << 2 * a & s.gap_mask
        if hit:
            total = (hit & -hit).bit_length() - 1
            raise ValueError(
                f"complement is not additively closed: {a} + {total - a} = {total} is a gap"
            )
    return s


def kappa_sets(s: NumericalSemigroup) -> tuple[int, ...]:
    """The dual set K* of s relative to its Frobenius number.

    K* is the part below the conductor of K = {a >= 0 : gamma - a not in
    S}, which holds every integer from the conductor on.  K always contains
    the semigroup, and K* has exactly genus-many elements.  It is read off
    the gap mask reversed over [0, beta), since a is in K* exactly when
    gamma - a is a gap.
    """
    return set_bits(reverse_bits(s.gap_mask, s.beta))


def is_symmetric(s: NumericalSemigroup) -> bool:
    """Whether a is in S exactly when gamma - a is not, for 0 <= a <= gamma.

    a and gamma - a are never both in S, since gamma is a gap, so this
    holds exactly when S has as many elements below beta as gaps: 2 delta
    = beta.
    """
    return 2 * s.delta == s.beta


def eta_local(s: NumericalSemigroup) -> int:
    """Size of K minus S, zero exactly for symmetric semigroups: the a
    below the conductor with a and gamma - a both gaps, one popcount of the
    gap mask against its reversal over [0, beta)."""
    return (reverse_bits(s.gap_mask, s.beta) & s.gap_mask).bit_count()


@dataclass(frozen=True)
class MuData:
    """mu together with the semigroup that K generates."""

    mu: int
    closure: NumericalSemigroup


def mu_local(s: NumericalSemigroup) -> MuData:
    """The second symmetry defect #(<K> \\ K), and <K> itself.

    K contains 0, so the chain K, 2K, 3K, ... of Minkowski powers grows up
    to <K>, the semigroup K generates, and a semigroup is its own
    stabilizer: <K> is the stabilizer of the stable power.  Both K and <K>
    hold every integer from beta on, and K holds delta integers below it,
    so mu = (beta - delta) - delta(<K>).  <K> is sieved by `make_semigroup`
    from the nonzero elements of K below beta and beta, ..., beta + alpha
    - 1 (alpha lies in S, hence in K, and reaches the rest).  A symmetric
    semigroup (2 delta = beta) has K = S, so <K> = S and mu = 0 with no
    sieve.  <K> is returned by its gap mask alone, so it reports its minimal
    generators, not the ones it was sieved or given with.

    >>> data = mu_local(make_semigroup((4, 5, 7)))
    >>> data.mu, data.closure.gaps
    (1, (1, 2))
    """
    if 2 * s.delta == s.beta:
        mask = s.gap_mask
    else:
        nonzero = reverse_bits(s.gap_mask, s.beta) & -2
        mask = make_semigroup(set_bits(nonzero) + tuple(range(s.beta, s.beta + s.alpha))).gap_mask
    closure = NumericalSemigroup.from_gap_mask(mask)
    return MuData(s.beta - s.delta - closure.delta, closure)


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


@lru_cache(maxsize=None)
def _genus_level(genus: int) -> tuple[int, ...]:
    """Gap masks of every numerical semigroup of the given genus, in
    lexicographic order of their gap tuples.

    A child of a semigroup removes one minimal generator n above the
    Frobenius number, mask | 1 << n; every semigroup of positive genus
    arises once this way (restoring the Frobenius number gives the parent).
    Gap tuples of one length first differ at the lowest bit where the masks
    differ, and the earlier one has that gap: descending order of the masks
    reversed over [0, 2 genus), past the largest possible gap.
    """
    if genus == 0:
        return (0,)
    level = [
        mask | 1 << n
        for mask in _genus_level(genus - 1)
        for n in NumericalSemigroup.from_gap_mask(mask).minimal_generators
        if n >= mask.bit_length()
    ]
    return tuple(sorted(level, key=lambda m: reverse_bits(m, 2 * genus), reverse=True))


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
    return [NumericalSemigroup.from_gap_mask(mask) for mask in _genus_level(genus)]
