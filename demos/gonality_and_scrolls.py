"""Gonality and the scroll geometry of canonical models.

Shows the monomial pencil realizing the gonality of a curve, the scroll
structures its canonical model admits, and then sweeps a genus range to
illustrate the two correspondences: scroll dimension at most 2 matches
gonality at most 3, and scroll dimension exactly 3 matches gonality 4.
"""

from __future__ import annotations

from collections import Counter

from scrollcurves import (
    analyze,
    enumerate_genus,
    gonality_pencil,
    make_curve,
    min_scroll_dimension,
    representative_curve,
    scroll_structures,
)


def show_curve(exponents) -> None:
    curve = make_curve(exponents)
    record = analyze(curve)
    degree, pencil_n = gonality_pencil(curve)
    canon = record.canonical
    print(f"C = {curve}: gonality {degree} via the pencil at n={pencil_n}")
    for d in range(min_scroll_dimension(canon), 4):
        for s in scroll_structures(canon, d):
            blocks = " | ".join(",".join(map(str, b)) for b in s.blocks)
            print(f"  d={d}: type {s.scroll_type.dims} step={s.step} "
                  f"ell={s.ell}  blocks {blocks}")
    print()


def sweep(low: int, high: int) -> None:
    tally: Counter[tuple[int, int]] = Counter()
    for genus in range(low, high + 1):
        for semigroup in enumerate_genus(genus):
            record = analyze(representative_curve(semigroup))
            tally[(min_scroll_dimension(record.canonical), record.gonality)] += 1
    print(f"(scroll dim, gonality) over genus {low}..{high}:")
    for key in sorted(tally):
        print(f"  {key}: {tally[key]}")


def main() -> None:
    show_curve((3, 7, 8))
    show_curve((4, 7, 8, 9))
    sweep(4, 9)


if __name__ == "__main__":
    main()
