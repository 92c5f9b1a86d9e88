#!/usr/bin/env python3
"""The attractor / zero-pressure / full-dimension equivalence, numerically.

Three claims are equivalent for these systems: the dimension bound is
trivial (equals n), the pressure of the dissipation potential vanishes,
and the invariant set is an attractor.  When they hold, the equilibrium
measure satisfies the entropy formula h = sum of positive Lyapunov
exponents -- the SRB signature.  When they fail, the entropy inequality
is strict.

The toral automorphism [[2,1],[1,1]] and the doubling map sit on the
attractor side; every linear horseshoe sits strictly on the other.
"""

from hypdim import (
    bound_report,
    build_cat_map,
    build_doubling_map,
    build_linear_horseshoe,
)

for name, model in [
    ("cat map (whole torus hyperbolic)", build_cat_map()),
    ("doubling map (whole circle repeller)", build_doubling_map(2)),
    ("linear horseshoe lambda_u = 3", build_linear_horseshoe(3.0, 0.25)),
]:
    rep = bound_report(model, check_equivalences=True)
    print(f"== {name}")
    print(f"   pressure = {rep.pressure.value:+.3e},  bound = {rep.bound:.6f} (n = {rep.n}),"
          f"  classified {rep.classification}")
    for claim, passed, detail in rep.equivalence_checks:
        mark = "ok " if passed else "no "
        extras = ", ".join(f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in detail.items())
        print(f"   [{mark}] {claim}: {extras}")
    print()

print("For the horseshoe the strict inequality h = log 2 < log 3 = sum of")
print("positive exponents is exactly the entropy deficit that makes the")
print("stable set thinner than the plane.")
