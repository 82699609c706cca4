"""Shooting for the bounded orbit and certifying its trapping region.

Among all orbits of the expanding system, exactly one (up to the central
symmetry) keeps H bounded: the unstable separatrix of the saddle (1/2, 0)
heading into {H < 1/2, F < 0}.  This script shoots it, shows the isocline
hyperbolas that fence it in, and evaluates the signed normal products that
certify each fence as a one-way barrier.
"""

import numpy as np

import cuspsoliton as cs


def main():
    traj = cs.shoot_separatrix()
    print(f"separatrix: r in [{traj.r_lo:.3f}, {traj.r_hi:.1f}] "
          f"(r = 0 where F = -1), {len(traj.r)} samples")
    print(f"  saddle end:   ({traj.H[0]:.12f}, {traj.F[0]:.3e})  "
          "~ the saddle limit, on the series")
    print(f"  forward end:  ({traj.H[-1]:.6e}, {traj.F[-1]:.4f})  "
          "~ the vertical asymptote H -> 0")

    print("\nstates at a few calibrated r:")
    for r in (-30.0, -10.0, 0.0, 10.0, 100.0, 1000.0):
        H, F = (float(v) for v in traj.state_at(r)[:2])
        print(f"  r = {r:8.1f}:  H = {H: .6g},  F = {F: .6g}")

    print("\nisocline slopes at the saddle:", cs.isocline_slopes_at_saddle())
    print("sample of the three isocline hyperbolas (F values at H):")
    for H in (0.45, 0.3, 0.15):
        print(f"  H = {H:.2f}: vertical {cs.isocline_F('vertical', H): .4f}, "
              f"horizontal {cs.isocline_F('horizontal', H): .4f}, "
              f"oblique {cs.isocline_F('oblique', H): .4f}")

    print("\nsigned normal products along the orbit (positive = barrier):")
    for rep in cs.certify_barriers(traj):
        print(f"  {rep.curve_id:20s} verdict {rep.verdict:8s} "
              f"min product {rep.min_product: .3e} at r = {rep.argmin_r:9.2f}, "
              f"min separation {rep.min_separation: .3e}")

    print("\nconsequences along the orbit:")
    dF = 2 * traj.H * traj.F - 2 * traj.H ** 2 + 0.5
    print(f"  F' < 0 everywhere: {bool(np.all(dF < 0))} "
          "(the horizontal isocline is a barrier)")
    print(f"  mixed curvature < 0 everywhere: {bool(np.all(traj.sigma < 0))} "
          "(the curve H^2 - HF - 1/2 = 0 is a barrier on the other side)")


if __name__ == "__main__":
    main()
