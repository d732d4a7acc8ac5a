#!/usr/bin/env python3
"""Walk through the main constructions on small explicit inputs.

Prints the nontriviality generator and its residue, a level-0 bounding
surface, hyperbola witnesses for 0-cycles at levels 0 and 1, the Steinberg
witness curve and its boundary, and the residue realization of a
function-field symbol.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modcycles import (  # noqa: E402
    ClosedPoint,
    CoordModel,
    HypersurfaceCycle,
    ModulusDatum,
    RatFunc,
    UniPoly,
    VarSet,
    bounding_surface,
    curve_boundary,
    generator_cycle,
    make_field,
    parse_poly,
    rho,
    theta_map,
    totaro_steinberg_curve,
    total_delta,
    verify_certificate,
    xi_curve,
    zero_cycle_vanishing_witness,
)
from modcycles.milnor import verify_xi_curve  # noqa: E402


def main() -> None:
    F7 = make_field(7)
    D = ModulusDatum.monomial(F7, [1, 1])

    print("== a nontrivial class at level 1 ==")
    Z, cert = generator_cycle(F7.element(3), r=2)
    print(f"Z_3 = {Z!r}")
    print(f"rho(Z_3) = {rho(Z, D).to_text()},  certificate valid: {cert.valid}")

    print("\n== every level-0 cycle with modulus bounds ==")
    f = parse_poly("1 - t1*t2*(t1 + 3)", F7, VarSet(2, 0))
    Z0 = HypersurfaceCycle.from_poly(f, CoordModel.PSI)
    cert = bounding_surface(Z0, D)
    print(f"cycle V({f.to_text()}): certificate valid {cert.valid}, "
          f"re-verified {verify_certificate(cert)}")
    print(f"surface witness: {cert.witnesses[0]['terms'][0]['poly']}")

    print("\n== a rational point bounds on a hyperbola, at every level ==")
    z = ClosedPoint(F7, [F7.element(2), F7.element(3)], [])
    cert = zero_cycle_vanishing_witness(z, D)
    print(f"point (2, 3): certificate valid {cert.valid}, "
          f"re-verified {verify_certificate(cert)}")
    z1 = ClosedPoint(F7, [F7.element(2), F7.element(3)], [F7.element(4)])
    cert = zero_cycle_vanishing_witness(z1, D, n=1)
    curve = cert.witnesses[1]["components"]
    print(f"point (2, 3; 4) at level 1: curve ({', '.join(curve)}), "
          f"certificate valid {cert.valid}, re-verified {verify_certificate(cert)}")

    print("\n== the Steinberg relation bounds ==")
    curve = totaro_steinberg_curve(F7.element(3))
    print(f"curve components: "
          f"{', '.join(c.to_text() for c in curve.components)}")
    print(f"boundary: {curve_boundary(curve)!r}")

    print("\n== a residue symbol bounds on its graph ==")
    F5 = make_field(5)
    t = RatFunc.param(F5)
    pi = UniPoly(F5, [4, 1])  # t - 1
    fs = [t - RatFunc.const(F5, 2)]
    u = RatFunc.const(F5, 3)
    curve = xi_curve(fs, u, pi, 2)
    print("total residue:")
    for v, e in total_delta(theta_map(curve), include_infinity=False).items():
        print(f"  {v!r}: {e!r}")
    out = verify_xi_curve(curve)
    print(f"graph boundary matches (global sign {out.sign}): {out.ok}")
    print(f"boundary: {out.actual!r}")


if __name__ == "__main__":
    main()
