"""Smooth solitary waves of the singular equation, next to its peakons.

The closed-form quadrature is explicit in a variable y >= 0; Newton in y
gives U(xi) with no further inversion, and direct integration of the
first-order ODE cross-checks it.  The first integrals of the H1 and
L2(m) currents that classify builds are evaluated along the profile
(they pin c2 = 2 - b^2, c1 = c2^2/4).
The solitary peak b*sqrt(2-b^2)/sqrt(c) always stays below the peakon
peak 1/sqrt(c) at equal speed.
"""

import numpy as np

from peakonlaws.twave import (
    peakon,
    quadrature_crosscheck,
    solitary_ode_residual,
    solitary_profile,
)


def main():
    xi = np.linspace(-15.0, 15.0, 3001)
    for b, c in ((0.3, 1.0), (0.5, 1.0), (0.9, 2.0)):
        p = solitary_profile(b, c, xi)
        r = solitary_ode_residual(p)
        q = quadrature_crosscheck(b, c)
        print(f"b={b}, c={c}:")
        print(f"  peak height        {p.peak_height:.12f}  (peakon at same speed: {1/np.sqrt(c):.12f})")
        print(f"  1st-order residual {r.first_order_max:.3e}")
        print(f"  quadrature check   {q:.3e}")
        print(f"  c2 = {r.c2:.12f} (2-b^2 = {2-b*b:.12f}),  c1 = {r.c1:.12f} (c2^2/4 = {(2-b*b)**2/4:.12f})")

    pk = peakon(1.0, xi)
    print(f"peakon a=1: speed c = {pk.c}, peak {pk.peak_height}")
    pk = peakon(2.0, xi)
    print(f"peakon a=2: speed c = {pk.c}, peak {pk.peak_height}")

    np.savetxt(
        "solitary_b05_c1.csv",
        np.column_stack([xi, solitary_profile(0.5, 1.0, xi).U]),
        delimiter=",", header="xi,U", comments="",
    )
    print("wrote solitary_b05_c1.csv")


if __name__ == "__main__":
    main()
