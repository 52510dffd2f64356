"""A short tour of numerical semigroup invariants.

Builds a few semigroups, prints their gap-based invariants, and shows the
kappa value sets together with the recovery roundtrip that reconstructs a
semigroup from its dual set.
"""

from __future__ import annotations

from scrollcurves import (
    enumerate_genus,
    eta_local,
    is_symmetric,
    kappa_sets,
    make_semigroup,
    mu_local,
    recover_from_kappa_star,
)


def describe(generators) -> None:
    s = make_semigroup(generators)
    k_star = kappa_sets(s)
    print(f"S = <{', '.join(map(str, s.minimal_generators))}>")
    print(f"  gaps: {s.gaps}")
    print(f"  delta={s.delta} beta={s.beta} gamma={s.gamma} alpha={s.alpha}")
    print(f"  symmetric: {is_symmetric(s)}  eta: {eta_local(s)}  mu: {mu_local(s)}")
    print(f"  K* = {k_star}")
    back = recover_from_kappa_star(k_star)
    print(f"  recovered from K*: {back == s}")
    print()


def main() -> None:
    for generators in ((3, 7, 8), (4, 6, 7, 9), (5, 6, 7, 8, 9), (4, 5)):
        describe(generators)

    print("semigroups by genus:")
    for genus in range(1, 9):
        print(f"  genus {genus}: {len(enumerate_genus(genus))}")


if __name__ == "__main__":
    main()
