"""Canonical models of monomial curves.

Walks the genus-4 singular curves: computes the canonical exponents from
residues of rational differentials, verifies the dualizing degree test,
and prints the full invariant record behind each classification label.
"""

from __future__ import annotations

from scrollcurves import (
    analyze,
    canonical_section_exponents,
    format_exponents,
    make_curve,
    sheaf_degree_h0,
    verify_dualizing_candidate,
)

GENUS_FOUR = (
    (5, 6, 7, 8, 9),
    (4, 5, 7, 8),
    (4, 6, 7, 8, 9),
    (3, 7, 8),
)


def main() -> None:
    for exponents in GENUS_FOUR:
        curve = make_curve(exponents)
        record = analyze(curve)
        sections = canonical_section_exponents(curve)
        sheaf = sheaf_degree_h0(curve, sections)
        print(f"C  = {curve}")
        print(f"C' = {format_exponents(record.canonical)}")
        print(f"  genus {record.genus}, gonality {record.gonality}, label {record.label}")
        print(f"  eta={record.eta} mu={record.mu} g'={record.g_prime}")
        print(f"  dualizing sheaf: degree {sheaf.degree}, h0 {sheaf.h0}, "
              f"verified {verify_dualizing_candidate(curve, sections)}")
        print()


if __name__ == "__main__":
    main()
