#!/usr/bin/env python3
"""Reproduce the six-cusp sextic computations: the Alexander polynomial is
t^2 - t + 1 or 1 depending on whether the cusps lie on a conic.

The third configuration is nine points off a conic, a set of positions
and not a curve.  A sextic with nine cusps is dual to a smooth cubic, and
its cusps are dual to the cubic's flexes; a real smooth cubic has only
three real flexes, so no sextic over Q has nine rational cusps.  The
formula still reads (t^2 - t + 1)^3 off these positions.

Run:  python scripts/run_zariski_sextics.py
"""

from fractions import Fraction

from alexinv.curves import (
    ProjectiveCurveSpec,
    cyclic_cover_h1,
    divisibility_check,
    global_alexander,
    superabundance,
)

CONFIGURATIONS = {
    "six cusps on the conic y = x^2": [
        ((x, x * x), "cusp") for x in [0, 1, -1, 2, -2, 3]
    ],
    "six cusps in general position": [
        ((0, 0), "cusp"), ((1, 0), "cusp"), ((0, 1), "cusp"),
        ((1, 1), "cusp"), ((2, 1), "cusp"), ((1, 2), "cusp"),
    ],
    "nine points off a conic (positions only: no sextic over Q has nine rational cusps)": [
        ((0, 0), "cusp"), ((1, 0), "cusp"), ((0, 1), "cusp"),
        ((1, 1), "cusp"), ((2, 1), "cusp"), ((1, 2), "cusp"),
        ((3, 1), "cusp"), ((1, 3), "cusp"), ((2, 3), "cusp"),
    ],
}


def main():
    for label, points in CONFIGURATIONS.items():
        spec = ProjectiveCurveSpec.build(6, points)
        s = superabundance(spec, Fraction(1, 6))
        fac = global_alexander(spec)
        print(f"{label}:")
        print(f"    superabundance at kappa = 1/6: {s}")
        print(f"    Alexander polynomial: {fac.full_polynomial()}")
        report = divisibility_check(spec)
        print(f"    divides local product {report.local_product}: yes")
        print(f"    divides infinity bound {report.infinity}: yes")
        rank, eigen = cyclic_cover_h1(fac, 6)
        irregularity = rank // 2
        print(f"    6-fold cyclic cover: b_1 = {rank}, irregularity q = {irregularity}")
        if eigen:
            pretty = ", ".join(f"exp(2 pi i {w}) x{m}" for w, m in eigen)
            print(f"    eigenvalues: {pretty}")
        print()


if __name__ == "__main__":
    main()
