"""From the phase orbit to the metric: profiles, curvature, identities.

Quadrature of H and F along the bounded orbit rebuilds h and f, and the
curvatures follow algebraically.  The script checks the pinching
-1/4 < sec < 0, the soliton identities, the conserved quantity
Q = R + |grad f|^2 + f, and the asymptotic laws at both ends.
"""

import numpy as np

import cuspsoliton as cs


def main():
    traj = cs.shoot_separatrix()
    prof = cs.reconstruct_profiles(traj)
    print("profile anchors: h(0) = %.1f, f -> f0 = %.1f at the cusp end" %
          (prof.h_anchor, prof.f0))
    print("  tail of f below r = %.3f, exact on the cusp series: %.9e"
          % (traj.r_lo, prof.f_tail))
    print("  lim (h - r/2) = %.9f" % prof.cusp_h_offset)

    table = cs.curvatures(traj)
    print("\ncurvatures at selected r:")
    print("        r      sec_xy        sec_rx        R")
    for r in (-34.0, -10.0, 0.0, 100.0, 2000.0):
        i = np.searchsorted(traj.r, r)
        i = min(i, len(traj.r) - 1)
        print("  %7.1f  %12.5e  %12.5e  %12.5e" %
              (traj.r[i], table.sec_xy[i], table.sec_rx[i], table.scalar[i]))
    print("pinching: sec_xy in (%.6f, %.2e), sec_rx in (%.6f, %.2e)" %
          (table.sec_xy.min(), table.sec_xy.max(),
           table.sec_rx.min(), table.sec_rx.max()))

    res = cs.soliton_residuals(traj, prof)
    m = (traj.r >= -30) & (traj.r <= 100)
    print("\nidentity residuals over all samples:")
    print("  max |R + laplace f + 3/2|  = %.2e" % np.abs(res.identity_scalar).max())
    print("  max |R' - 2 Ric_rr F|      = %.2e" % np.abs(res.identity_gradient).max())
    print("  max |Q - Q(0)| on [-30,100] = %.2e   (Q = R + F^2 + f)" %
          np.abs(res.q_drift[m]).max())

    cusp, flat = cs.check_asymptotics(traj, prof)
    print("\ncusp end (r -> -inf):")
    for e in cusp.entries:
        print("  %-18s at r=%7.1f: measured %12.8f, target %12.8f" %
              (e.name, e.r_at, e.measured, e.target))
    print("flat end (r -> +inf):")
    for e in flat.entries:
        print("  %-22s at r=%7.1f: measured %12.8f, target %12.8f" %
              (e.name, e.r_at, e.measured, e.target))


if __name__ == "__main__":
    main()
