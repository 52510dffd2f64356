"""Rational monomial curves and their intrinsic invariants.

A curve here is the image of t -> (1 : t^a1 : ... : t^an) with strictly
increasing positive exponents of overall gcd 1.  Such a curve is rational
and has at most two points of interest: the one at t = 0 and the one at
t = infinity, each described by a numerical semigroup of local values.
Everything downstream (canonical sections, sheaf degrees, gonality pencils,
symmetry-defect flags) is computed exactly from those two semigroups.
The records returned (`SheafData`, `CurveAnalysis`) are named tuples:
immutable, compared field by field, and changed only by `_replace`; a
catalog row is the `CurveAnalysis` of its curve with `structures` filled.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    BoundExceeded,
    GcdNotOne,
    GenusZero,
    NotIncreasing,
    PathsDisagree,
)
from .semigroups import (
    NumericalSemigroup,
    eta_local,
    int_tuple,
    make_semigroup,
    mu_local,
    reverse_bits,
    schur_bound,
    set_bits,
)

NATURALS = NumericalSemigroup(0)


class MonomialCurve:
    """A monomial curve with its two branch semigroups.

    s_zero is generated by the exponents themselves (values of functions at
    t = 0), s_infinity by the drops from the top exponent (values at
    t = infinity, where 1/t is the local parameter); both are built with
    the curve, by `make_curve` or `representative_curve`.  The raw
    canonical sections are kept too, once `canonical_section_exponents`
    has computed them.
    """

    __slots__ = ("exponents", "s_zero", "s_infinity", "_canonical")

    def __init__(self, exponents: tuple[int, ...], s_zero, s_infinity):
        self.exponents = exponents
        self.s_zero = s_zero
        self.s_infinity = s_infinity
        self._canonical = None

    @property
    def genus(self) -> int:
        """Arithmetic genus: the two local gap counts add up."""
        return self.s_zero.delta + self.s_infinity.delta

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialCurve):
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"MonomialCurve{self.exponents}"

    def __str__(self) -> str:
        inside = ":".join(f"t^{a}" for a in self.exponents)
        return f"(1:{inside})"


# The input size limit of the command line: the largest Schur bound on a
# branch conductor it accepts.  (3, 200), bound 39,201, is analyzed in under
# a second, and the slowest rows under it, both branches near it, in seconds.
SCHUR_BOUND_LIMIT = 50_000


def make_curve(exponents, schur_limit: int | None = None) -> MonomialCurve:
    """Validate exponents and build the curve with both branches sieved;
    an exponent that is not an int is refused by `int_tuple`.

    Given a schur_limit, raise BoundExceeded, before either branch is
    sieved, when the `schur_bound` of a branch (past where the stream of
    `make_semigroup` stops) passes it; at infinity the generators are the
    drops from the top exponent.

    >>> make_curve((4, 5, 7, 8)).genus
    4
    """
    exps = int_tuple(exponents, "exponents")
    if not exps or exps[0] <= 0 or any(b <= a for a, b in zip(exps, exps[1:])):
        raise NotIncreasing(
            f"exponents must be strictly increasing positive integers, got {exps}"
        )
    if math.gcd(*exps) != 1:
        raise GcdNotOne(f"exponents {exps} have gcd {math.gcd(*exps)}")
    top = exps[-1]
    drops = [top - a for a in exps[:-1]] + [top]
    if schur_limit is not None:
        for name, alpha in (("at t = 0", exps[0]), ("at infinity", min(drops))):
            bound = schur_bound(alpha, top)
            if bound > schur_limit:
                raise BoundExceeded(
                    f"the branch {name} has Schur bound {bound} on its conductor, "
                    f"past the limit {schur_limit}"
                )
    return MonomialCurve(exps, make_semigroup(exps), make_semigroup(drops))


def representative_curve(s: NumericalSemigroup) -> MonomialCurve:
    """A monomial curve whose branch at t = 0 realizes the given semigroup
    and whose other point is smooth.

    Smoothness at infinity needs the top two exponents consecutive (the
    drops then generate everything).  Starting from the minimal generators,
    either the predecessor of the top generator already lies in the
    semigroup and is inserted, or successive semigroup elements above the
    top are appended until two consecutive ones appear.  The exponents are
    increasing and, as generators of s, of gcd 1, so the curve is built
    directly, carrying s at t = 0 and N at infinity: no branch is sieved.
    """
    # S != N has at least two minimal generators
    exps = list(s.minimal_generators) if s.delta else [1, 2]
    if exps[-2] != exps[-1] - 1 and exps[-1] - 1 in s:
        exps.insert(-1, exps[-1] - 1)
    while exps[-2] != exps[-1] - 1:
        x = exps[-1] + 1
        while x not in s:
            x += 1
        exps.append(x)
    return MonomialCurve(tuple(exps), s, NATURALS)


def canonical_section_exponents(curve: MonomialCurve) -> tuple[int, ...]:
    """Exponents c such that t^c dt is regular at both points, raw form.

    The form t^c dt has a pole-free expansion at t = 0 unless -c-1 is a
    local value there, and at infinity (parameter u = 1/t, where it reads
    -u^(-c-2) du up to sign) unless c+1 is a local value.  So c < 0 is
    -1 - g for a gap g at t = 0 (c = -1 fails at infinity, where 0 is a
    value) and c >= 0 is g - 1 for a gap g at infinity: both read off the
    gap masks, already sorted.  The count always equals the genus.  They
    are computed once and kept on the curve object.
    """
    if curve._canonical is None:
        s0, si = curve.s_zero, curve.s_infinity
        raw = set_bits(reverse_bits(s0.gap_mask, s0.beta), -s0.beta) + set_bits(
            si.gap_mask >> 1
        )
        if len(raw) != curve.genus:
            raise PathsDisagree(
                f"{curve} has {len(raw)} canonical sections but genus {curve.genus}"
            )
        curve._canonical = raw
    return curve._canonical


def equal_up_to_reversal(a, b) -> bool:
    """Equality of value sets translated so the smallest is 0, allowing
    the flip x -> max - x (an empty set equals only the empty set)."""
    left, right = (sorted(set(v)) for v in (a, b))
    left = [x - left[0] for x in left]
    right = [x - right[0] for x in right]
    return left == right or sorted(left[-1] - x for x in left) == right


def canonical_exponents(curve: MonomialCurve) -> tuple[int, ...]:
    """Normalized canonical exponents (smallest shifted to 0).

    For a curve with a smooth point at infinity this is exactly the finite
    dual part of the semigroup at the other point.  They are read from the
    raw sections the curve object keeps, so a catalog filter that reads
    them before `analyze` does not make `analyze` compute them again.
    """
    if curve.genus == 0:
        raise GenusZero(f"{curve} has genus 0, no canonical sections")
    raw = canonical_section_exponents(curve)
    return tuple(c - raw[0] for c in raw)


def format_exponents(exponents) -> str:
    """Parametrization string of an exponent tuple.

    A leading coordinate 1 is implied: curve exponents never contain 0,
    so one is prepended; canonical exponent sets contain 0 and that entry
    renders as the 1 itself.
    """
    exponents = tuple(exponents)
    parts = [] if 0 in exponents else ["1"]
    for a in exponents:
        parts.append("1" if a == 0 else "t" if a == 1 else f"t^{a}")
    return "(" + ":".join(parts) + ")"


class SheafData(NamedTuple):
    """Degree and number of global sections of a monomial sheaf."""

    degree: int
    h0: int


def sheaf_degree_h0(curve: MonomialCurve, generator_exponents) -> SheafData:
    """Invariants of the subsheaf of the function field spanned by the
    monomials t^b over the coordinate ring.

    The stalk at t = 0 is the union U0 of S0 + b, the stalk at infinity the
    union U_inf of S_inf - b; `_stalk` writes each, and its semigroup, as a
    mask over [lo, top), lo = min(b_min, 0) at t = 0 and min(-b_max, 0) at
    infinity.  The degree counts stalk gains minus losses against the
    semigroups, each a popcount, so negative shifts need no special case;
    h0 counts the c in U0 with -c in U_inf, one popcount against U_inf
    reversed.  This general route certifies the dualizing sheaf, re-derives
    the degree of every winning gonality pencil, and is the oracle of the
    pencils' closed form `_pencil`.  A generator exponent that is not an
    int is refused by `int_tuple`.
    """
    gens = int_tuple(generator_exponents, "generator exponents")
    if not gens:
        raise ValueError("at least one generator exponent is required")
    first, last = min(gens), max(gens)
    s0, si = curve.s_zero, curve.s_infinity
    lo0, loi = min(first, 0), min(-last, 0)
    top = max(s0.beta + max(last, 0), si.beta + max(-first, 0), 1 - lo0, 1 - loi)
    u0, own0 = _stalk(s0, gens, lo0, top)
    ui, owni = _stalk(si, [-b for b in gens], loi, top)
    degree = (u0 & ~own0).bit_count() - (own0 & ~u0).bit_count()
    degree += (ui & ~owni).bit_count() - (owni & ~ui).bit_count()
    h0 = (u0 & reverse_bits(ui, 1 - loi - lo0)).bit_count()
    return SheafData(degree, h0)


def _stalk(s: NumericalSemigroup, shifts, lo: int, top: int) -> tuple[int, int]:
    """The union of s + k over the shifts, and s, as masks with bit i for
    lo + i below top (past beta plus the largest shift): the finite part of
    s below beta shifted once per distinct shift, in increasing order so the
    union widens one shift at a time, and each tail filled once."""
    finite = ~s.gap_mask & ((1 << s.beta) - 1)
    ks = sorted(set(shifts))
    union = 0
    for k in ks:
        union |= finite << (k - lo)
    full = (1 << (top - lo)) - 1
    tail = s.beta + ks[0] - lo
    own = finite << -lo | full >> (s.beta - lo) << (s.beta - lo)
    return union | full >> tail << tail, own


def verify_dualizing_candidate(curve: MonomialCurve, generator_exponents) -> bool:
    """Whether the monomial sheaf has degree 2g-2 and exactly g sections."""
    data = sheaf_degree_h0(curve, generator_exponents)
    g = curve.genus
    return data == SheafData(2 * g - 2, g)


def _pencil(g0: int, gi: int, delta_i: int, n: int) -> int:
    """Degree of the sheaf spanned by 1 and t^n for n > 0, in closed form,
    from the gap masks G0 = g0 and G_inf = gi of the branches at 0 and
    infinity and the popcount delta_i of gi.

    The stalk at t = 0 is S0 together with S0 + n, which gains one value
    for each gap of S0 lying n above an element of S0.  The stalk at
    infinity is S_inf together with S_inf - n, which gains the n values
    below 0 less the gaps of S_inf below n, plus one value for each gap of
    S_inf lying n below an element of S_inf.  Neither stalk loses
    anything, so the degree is the sum of the three counts, each a
    popcount:

    * (G0 >> n) counts the gaps at least n, and (G0 & G0 << n) those whose
      predecessor by n is also a gap;
    * n - (G_inf & (2^n - 1)) counts the integers below n minus the gaps
      among them;
    * G_inf counts every gap (the genus of S_inf), and (G_inf & G_inf >> n)
      those whose successor by n is also a gap.

    The result equals `sheaf_degree_h0(curve, (0, n)).degree` without
    building either stalk; for n < 0 the two points trade roles under
    t -> 1/t.

    >>> c = make_curve((4, 5, 7, 8))
    >>> _pencil(c.s_zero.gap_mask, c.s_infinity.gap_mask, c.s_infinity.delta, 2)
    4
    """
    return (
        (g0 >> n).bit_count()
        - (g0 & g0 << n).bit_count()
        + n
        - (gi & ((1 << n) - 1)).bit_count()
        + delta_i
        - (gi & gi >> n).bit_count()
    )


def gonality_pencil(curve: MonomialCurve) -> tuple[int, int]:
    """Smallest pencil degree and the smallest positive exponent achieving it.

    Multiplying by t^-n maps the sheaf of <1, t^n> onto that of <1, t^-n>,
    so the two pencils have the same degree, and only n > 0 is scanned:
    the smallest |n| wins a tie, positive first, so a negative exponent
    never would.  The window ends where the pencils shift entirely past
    both conductors and can only do worse.  Degrees come from the closed
    form `_pencil`, with the gap masks read once per curve.  Its
    counts are nonnegative, so the degree at n is at least |S_inf cap
    [0, n)|, and by the symmetry at least |S0 cap [0, n)| too: the scan
    stops once the larger of the two, which never decreases with n,
    reaches the best degree.  The winner's degree is derived again through
    `sheaf_degree_h0`; PathsDisagree is raised if the routes differ.
    """
    s0, si = curve.s_zero, curve.s_infinity
    g0, gi, di = s0.gap_mask, si.gap_mask, si.delta
    window = 2 * (s0.beta + si.beta + 1)
    best = (_pencil(g0, gi, di, 1), 1)
    for n in range(2, window + 1):
        below = (1 << n) - 1
        if n - min((g0 & below).bit_count(), (gi & below).bit_count()) >= best[0]:
            break
        d = _pencil(g0, gi, di, n)
        if d < best[0]:
            best = (d, n)
    degree, n = best
    checked = sheaf_degree_h0(curve, (0, n)).degree
    if checked != degree:
        raise PathsDisagree(
            f"pencil <1, t^{n}> on {curve}: closed form gives degree {degree}, "
            f"the sheaf route {checked}"
        )
    return best


def gonality(curve: MonomialCurve) -> int:
    return gonality_pencil(curve)[0]


def image_curve(canonical) -> MonomialCurve:
    """The curve C' whose exponents are the nonzero canonical exponents
    divided by their gcd (the fold of the canonical morphism); g' is its
    genus.  The canonical set needs a nonzero entry, so genus 2 or more."""
    fold = math.gcd(*canonical)
    return make_curve(tuple(c // fold for c in canonical if c))


LABELS = (
    ("gorenstein", "Gor"),
    ("nearly_normal", "NN"),
    ("kunz", "K"),
    ("nearly_gorenstein", "NG"),
)


class CurveAnalysis(NamedTuple):
    """Everything the catalog records about one curve.

    flags maps each classification name to its truth value, in the order
    catalog JSON prints them: gorenstein, hyperelliptic, nearly_normal,
    kunz, almost_gorenstein, nearly_gorenstein.  structures holds the
    scroll structures of the canonical model on a catalog row and is None
    on a bare record from `analyze`, which therefore does not render.
    """

    exponents: tuple[int, ...]
    genus: int
    g_prime: int
    eta: int
    mu: int
    gonality: int
    canonical: tuple[int, ...]
    flags: dict
    eta_branches: tuple[int, int]
    structures: tuple | None = None

    @property
    def label(self) -> str:
        """The first of Gor, NN, K, NG whose flag holds, else --."""
        for key, text in LABELS:
            if self.flags[key]:
                return text
        return "--"

    def to_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "genus": self.genus,
            "gonality": self.gonality,
            "eta": self.eta,
            "mu": self.mu,
            "g_prime": self.g_prime,
            "flags": dict(self.flags),
            "canonical": list(self.canonical),
            "structures": [
                {"dims": list(s.scroll_type.dims), "step": s.step, "ell": s.ell}
                for s in self.structures
            ],
        }


def analyze(curve: MonomialCurve) -> CurveAnalysis:
    """Compute the full invariant record of a curve, without its scroll
    structures (`structures` is None; `catalog.row_for_curve` fills them).

    eta and mu are the sums of the local defects of the two branches, each
    read from `eta_local` and `mu_local` (which answers a symmetric branch
    without sieving).  The genus identity g = g' + eta + mu is asserted
    whenever the canonical morphism is birational (fold 1) and the genus is
    at least 2; a failure would mean two independent computation paths
    disagree.
    """
    g = curve.genus
    branches = (curve.s_zero, curve.s_infinity)
    eta_b = tuple(eta_local(s) for s in branches)
    mu_b = tuple(mu_local(s) for s in branches)
    eta, mu = sum(eta_b), sum(mu_b)
    if g == 0:
        canonical: tuple[int, ...] = ()
        g_prime = 0
        fold = 0
    else:
        canonical = canonical_exponents(curve)
        fold = math.gcd(*canonical)
        if g == 1:
            g_prime = 0
        else:
            g_prime = image_curve(canonical).genus
            if fold == 1 and g != g_prime + eta + mu:
                raise PathsDisagree(
                    f"genus split failed for {curve}: "
                    f"g={g}, g'={g_prime}, eta={eta}, mu={mu}"
                )
    flags = {
        "gorenstein": eta == 0,
        "hyperelliptic": g >= 2 and fold == 2,
        "nearly_normal": sum(s.beta - s.delta for s in branches) == 1,
        "kunz": all(e == 1 for e in eta_b if e > 0),
        "almost_gorenstein": all(m == 1 for m in mu_b if m > 0),
        "nearly_gorenstein": mu == 1,
    }
    return CurveAnalysis(
        exponents=curve.exponents,
        genus=g,
        g_prime=g_prime,
        eta=eta,
        mu=mu,
        gonality=gonality(curve),
        canonical=canonical,
        flags=flags,
        eta_branches=eta_b,
    )
