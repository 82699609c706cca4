"""Where does the scalar curvature grow along the flow?

The soliton flow is g(t) = (t+1) phi_t^*(g0).  The homothety pushes R
toward zero while the diffeomorphism drags points toward the cusp;
pointwise growth of R is decided by the sign of the polynomial C_t at the
orbit state.  Early on (t near -1) the zero set {C_t = 0} is a barrier and
R grows everywhere; later it cuts the orbit and regions of decay appear.
"""

import numpy as np

import cuspsoliton as cs


def main():
    traj = cs.shoot_separatrix()

    print("sign changes of C_t along the orbit:")
    for t in (-0.7, -0.2, -0.05, -0.02, 0.0, 1.0, 10.0):
        rep = cs.find_crossings(traj, t)
        where = ", ".join(f"r={r:.3f}" for r, _, _ in rep.crossings) or "none"
        print(f"  t = {t:6.2f}: {rep.count} crossing(s) [{where}]  "
              f"pattern {rep.sign_pattern}")

    print("\nbarrier scans of Psi_t over the curve branch:")
    for t in (-0.7, -0.45, -0.37, -0.2):
        scan = cs.scan_psi(t)
        print(f"  t = {t:5.2f}: verdict {scan.verdict:13s} "
              f"min {scan.min_value: .4e} at y = {scan.argmin_y:8.3f}, "
              f"tail sign {scan.tail_sign:+d}")
    print("  (as y -> -inf, Psi_t ~ t/(4y), positive exactly when t < 0)")

    ds = cs.scan_delta_threshold(traj)
    print("\nthresholds in t:")
    print("  first actual crossing:    t* = min A/|B| - 1 = %.10f at r = %.6f"
          % (ds.crossing_threshold, ds.crossing_r))
    print("                            (the certified minimum of s* = A/|B|)")
    print("  loss of the Psi barrier:  t in (%.14f, %.14f)"
          % ds.barrier_bracket)
    print("                            (the root of a discriminant factor, isolated exactly)")
    print("  the certificate is lost well before any crossing exists")

    print("\npointwise histories R(t) at two anchors:")
    t_grid = np.geomspace(0.02, 201.0, 200) - 1.0
    for F_anchor in (-1.0, -10.0):
        r0 = traj.r_at_F(F_anchor)
        h = cs.pointwise_R_history(r0, t_grid, traj)
        flip = h.last_sign_change
        print(f"  anchor F = {F_anchor:5.1f} (r0 = {r0:7.4f}): "
              f"R(0) = {np.interp(0.0, h.t, h.R): .5f}, "
              f"R({h.t[-1]:.0f}) = {h.R[-1]: .2e}, "
              f"last dR/dt sign change at t = "
              f"{'never' if flip is None else f'{flip:.3f}'}")
    print("  R stays negative and eventually creeps up to zero at every point")


if __name__ == "__main__":
    main()
