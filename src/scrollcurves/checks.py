"""Checks of the paper's statements on a curve record.

`check_scroll_correspondence` holds the gonality-scroll theorem on each
catalog row as it is built, and two report generators check a record
against the structural statements satisfied by curves whose canonical
models land on surface scrolls (`surface_scroll_report`) or on threefold
scrolls (`threefold_bundle_report`, given the bundle's first Chern class).
A report is a list of findings, each pass, fail or n/a, and never raises.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .curves import CurveAnalysis, gonality, image_curve
from .errors import PathsDisagree
from .scrolls import ScrollStructure, scroll_structures


def check_scroll_correspondence(exponents, genus: int, gon: int, msd: int) -> None:
    """Raise PathsDisagree unless the minimum scroll dimension msd of a
    curve's canonical model and its gonality gon agree with the theorem:
    from genus 4 on, msd <= 2 exactly when gon <= 3, and from genus 5 on,
    msd == 3 exactly when gon == 4."""
    if genus >= 4 and (msd <= 2) != (gon <= 3):
        raise PathsDisagree(
            f"{exponents}: scroll dimension {msd} and gonality {gon} "
            "break the trigonal correspondence"
        )
    if genus >= 5 and (msd == 3) != (gon == 4):
        raise PathsDisagree(
            f"{exponents}: scroll dimension {msd} and gonality {gon} "
            "break the tetragonal correspondence"
        )


class Finding(NamedTuple):
    """One checked statement: item name, pass/fail/n-a status, and a short
    human-readable detail line."""

    item: str
    status: str
    detail: str


def _finding(item: str, ok: bool, detail: str) -> Finding:
    return Finding(item, "pass" if ok else "fail", detail)


def _single_point(record: CurveAnalysis) -> bool:
    """Whether exactly one of the two points is non-Gorenstein."""
    return sum(e > 0 for e in record.eta_branches) == 1


def surface_scroll_report(record: CurveAnalysis) -> list[Finding]:
    """Check a non-Gorenstein curve record against the structural
    constraints that hold when its canonical model lies on a surface
    scroll.

    Every input is read off the record: g, g', eta, mu, the gonality and
    the Kunz and almost-Gorenstein flags; the curve is non-Gorenstein at a
    single point when exactly one branch has eta > 0.  The surface
    structures are `scroll_structures(record.canonical, 2)`, each taken as
    (m, ell), m the smaller scroll dimension (m = 0 means a cone) and ell
    the fiber degree of the canonical model; gon(C') is the gonality of
    `image_curve(record.canonical)`.  A Gorenstein record (eta == 0), a
    record of genus below 4, or one with no surface structure yields
    not-applicable findings throughout, never an error.
    """
    g, g_prime, eta, mu, gon = (
        record.genus, record.g_prime, record.eta, record.mu, record.gonality
    )
    if eta == 0 or g < 4:
        structures = []
    else:
        structures = [(s.m_min, s.ell) for s in scroll_structures(record.canonical, 2)]
    if not structures:
        reason = (
            "curve is Gorenstein"
            if eta == 0
            else ("genus below four" if g < 4 else "no surface structure")
        )
        items = (
            "fiber-degree-bound",
            "line-image-rational",
            "conic-nearly-gorenstein",
            "cubic-kunz-almost-gorenstein",
            "cubic-dimension-bound",
            "vertex-gonality",
            "gonality-descent",
            "directrix-gonality",
            "image-genus-identity",
            "fiber-degree-ceiling",
        )
        return [Finding(item, "n/a", reason) for item in items]

    kunz = record.flags["kunz"]
    almost_gorenstein = record.flags["almost_gorenstein"]
    gon_cprime = gonality(image_curve(record.canonical))
    smooth = [(m, ell) for m, ell in structures if m > 0]
    cones = [(m, ell) for m, ell in structures if m == 0]
    findings: list[Finding] = []

    ok = all(ell <= 3 for _, ell in smooth) and all(ell <= 2 for _, ell in cones)
    findings.append(
        _finding(
            "fiber-degree-bound",
            ok,
            "ell <= 3 on smooth scrolls and ell <= 2 on cones",
        )
    )

    lines = [s for s in smooth if s[1] == 1]
    if lines:
        findings.append(
            _finding(
                "line-image-rational",
                g_prime == 0,
                f"ell = 1 on a smooth scroll forces a rational image, g' = {g_prime}",
            )
        )
    else:
        findings.append(Finding("line-image-rational", "n/a", "no smooth structure with ell = 1"))

    conic_smooth = [s for s in smooth if s[1] == 2]
    conic_cone = [s for s in cones if s[1] == 2]
    if conic_smooth or conic_cone:
        ok = True
        parts = []
        if conic_smooth:
            ok = ok and mu == 1
            parts.append(f"smooth: mu = {mu}")
        if conic_cone:
            ok = ok and mu == 1 and g - g_prime <= 3
            parts.append(f"cone: mu = {mu}, g - g' = {g - g_prime}")
        findings.append(
            _finding("conic-nearly-gorenstein", ok, "; ".join(parts))
        )
    else:
        findings.append(Finding("conic-nearly-gorenstein", "n/a", "no structure with ell = 2"))

    cubics = [s for s in smooth if s[1] == 3]
    if cubics:
        findings.append(
            _finding(
                "cubic-kunz-almost-gorenstein",
                kunz == almost_gorenstein,
                f"kunz = {kunz}, almost Gorenstein = {almost_gorenstein}",
            )
        )
        attained = any(3 * m == g - 3 for m, _ in cubics)
        kunz_single = kunz and _single_point(record)
        findings.append(
            _finding(
                "cubic-dimension-bound",
                all(3 * m >= g - 3 for m, _ in cubics) and attained == kunz_single,
                f"3m >= g - 3 with equality iff Kunz at a single point; "
                f"equality {attained}, flags {kunz_single}",
            )
        )
    else:
        findings.append(Finding("cubic-kunz-almost-gorenstein", "n/a", "no structure with ell = 3"))
        findings.append(Finding("cubic-dimension-bound", "n/a", "no structure with ell = 3"))

    vertex = [s for s in cones if g - g_prime == 3]
    if vertex:
        findings.append(
            _finding(
                "vertex-gonality",
                gon <= 5,
                f"cone structure with g - g' = 3 bounds the gonality by 5, got {gon}",
            )
        )
    else:
        findings.append(Finding("vertex-gonality", "n/a", "no cone structure with g - g' = 3"))

    findings.append(
        _finding(
            "gonality-descent",
            gon <= gon_cprime + g - g_prime,
            f"gon(C) = {gon} <= gon(C') + g - g' = {gon_cprime + g - g_prime}",
        )
    )

    if smooth:
        ok = all(gon_cprime <= ell for _, ell in smooth)
        findings.append(
            _finding(
                "directrix-gonality",
                ok,
                f"gon(C') = {gon_cprime} is at most the fiber degree of every smooth structure",
            )
        )
        ok = True
        for _, ell in smooth:
            expected = (ell - 1) * ((1 - Fraction(g, 2)) * ell + 2 * g - eta - 3)
            ok = ok and expected == g_prime
        findings.append(
            _finding(
                "image-genus-identity",
                ok,
                "g' = (ell - 1)((1 - g/2) ell + 2g - eta - 3) for each smooth structure",
            )
        )
    else:
        findings.append(Finding("directrix-gonality", "n/a", "no smooth structure"))
        findings.append(Finding("image-genus-identity", "n/a", "no smooth structure"))

    if cones:
        ok = all(
            Fraction(ell) <= 1 + Fraction(g - eta, g - 2) for _, ell in cones
        )
        findings.append(
            _finding(
                "fiber-degree-ceiling",
                ok,
                "ell <= 1 + (g - eta)/(g - 2) on every cone structure",
            )
        )
    else:
        findings.append(Finding("fiber-degree-ceiling", "n/a", "no cone structure"))

    return findings


def threefold_bundle_report(
    record: CurveAnalysis, structure: ScrollStructure, u: int, v: int
) -> list[Finding]:
    """Check a non-Gorenstein curve record against the numerical
    constraints on the rank-2 bundle resolving its canonical model on the
    threefold scroll of `structure`, where c1 = uH + vF.

    g, g', eta, mu and the Kunz and nearly-Gorenstein flags are read off
    the record, and the single-point condition as in
    `surface_scroll_report`; the model meets a fiber ell = structure.ell
    times, and m = structure.m_min is the smallest scroll dimension.  A
    Gorenstein record or one of genus at most 4 yields not-applicable
    findings throughout.
    """
    g, g_prime, eta, mu = record.genus, record.g_prime, record.eta, record.mu
    if eta == 0 or g <= 4:
        reason = "curve is Gorenstein" if eta == 0 else "needs genus at least 5"
        return [Finding("chi-residual", "n/a", reason)]
    ell, m_min = structure.ell, structure.m_min
    kunz = record.flags["kunz"]
    nearly_gorenstein = record.flags["nearly_gorenstein"]
    kunz_single = kunz and _single_point(record)
    findings: list[Finding] = []

    residual = (u - 4) * (2 * g - 2 - eta) + eta + 2 * mu + ell * (v + g - 5)
    if residual == 0:
        detail = "(u - 4)(2g - 2 - eta) + eta + 2 mu + ell (v + g - 5) = 0"
    else:
        forced = -(g - 5) - Fraction((u - 4) * (2 * g - 2 - eta) + eta + 2 * mu, ell)
        detail = f"residual {residual}; the chi balance forces v = {forced}"
    findings.append(_finding("chi-residual", residual == 0, detail))

    if ell == 1:
        findings.append(
            _finding(
                "line-image-twist",
                u == 2 and v == mu + 1,
                f"ell = 1 needs u = 2 and v = mu + 1 = {mu + 1}, got u = {u}, v = {v}",
            )
        )
        findings.append(
            _finding(
                "line-image-rational",
                g_prime == 0,
                f"ell = 1 forces a rational image, g' = {g_prime}",
            )
        )
        findings.append(
            _finding(
                "nearly-gorenstein-twist",
                nearly_gorenstein == (v == 2),
                f"nearly Gorenstein iff v = 2; v = {v}",
            )
        )
    elif ell == 2:
        findings.append(
            _finding(
                "conic-image-twist",
                u == 3 and v == 4 - eta - mu,
                f"ell = 2 needs u = 3 and v = 4 - eta - mu = {4 - eta - mu}, got u = {u}, v = {v}",
            )
        )
        findings.append(
            _finding(
                "nearly-gorenstein-twist",
                nearly_gorenstein == (v == 3 - eta),
                f"nearly Gorenstein iff v = 3 - eta = {3 - eta}; v = {v}",
            )
        )
        findings.append(
            _finding(
                "kunz-twist",
                kunz == (v == 2),
                f"Kunz iff v = 2; v = {v}",
            )
        )
    elif ell == 3:
        expected = -(g - 5) - Fraction(eta + 2 * mu, 3)
        findings.append(
            _finding(
                "cubic-image-twist",
                u == 4 and expected == v,
                f"ell = 3 needs u = 4 and v = -(g - 5) - (eta + 2 mu)/3 = {expected}, got u = {u}, v = {v}",
            )
        )
        findings.append(
            _finding(
                "kunz-single-point-twist",
                kunz_single == (v == -(g - 4)),
                f"Kunz at a single point iff v = -(g - 4) = {-(g - 4)}; v = {v}",
            )
        )
    elif ell == 4:
        low = -(g - 5) - Fraction(eta + 2 * mu, 4)
        high = -(g - 5) - Fraction(g - 1 + mu, 2)
        findings.append(
            _finding(
                "quartic-image-twist",
                {4: low, 5: high}.get(u) == v,
                f"ell = 4 needs u in {{4, 5}} with v = {low} (u = 4) or v = {high} (u = 5), got u = {u}, v = {v}",
            )
        )
        if u == 4:
            findings.append(
                _finding(
                    "quartic-kunz-exclusion",
                    not kunz_single,
                    "a quartic image with u = 4 cannot be Kunz at a single point",
                )
            )
            bound = Fraction(4 * (g - 5) + eta + 2 * mu, 16)
            findings.append(
                _finding(
                    "quartic-dimension-bound",
                    m_min >= bound,
                    f"m >= (4(g - 5) + eta + 2 mu)/16 = {bound}, got m = {m_min}",
                )
            )
    else:
        # m >= [ell (g - 5) + (sqrt(2 ell) - 4)(2g - 2 - eta) + eta + 2 mu]
        #      / (ell (ell + 1)), compared exactly by squaring
        deg = 2 * g - 2 - eta
        lhs = m_min * ell * (ell + 1) - ell * (g - 5) + 4 * deg - eta - 2 * mu
        findings.append(
            _finding(
                "large-fiber-dimension-bound",
                lhs >= 0 and lhs * lhs >= 2 * ell * deg * deg,
                f"m (ell)(ell + 1) clears the square-root bound at ell = {ell}",
            )
        )
    return findings
