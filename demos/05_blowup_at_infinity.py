"""Exact resolution of the tangency between the orbit and {C_t = 0} at infinity.

Both the bounded orbit and the curvature-growth curve run into the same
point at infinity (the vertical asymptote).  After a projective chart
change the point sits at the origin, and iterated blow-ups x -> x*y peel
the two germs apart digit by digit, in exact rational arithmetic.  After
every blow-up the divisor carries exactly one critical point, a rational
one, so the point the orbit follows is forced and no orbit is shot.  The
number of blow-ups needed measures the order of contact.
"""

from fractions import Fraction

import cuspsoliton as cs


def walk(mode):
    print(f"\n--- mode: {mode} ---")
    st = cs.chart_to_infinity(None if mode == "generic" else Fraction(1))
    print("chart state:")
    print("  P =", st.P.text())
    print("  Q =", st.Q.text())
    print("  curve =", st.curve.text())
    cps = cs.divisor_critical_points(st)
    print("  critical points on the divisor:", [c.text() for c in cps])
    print("  (the two irrational ones are -1 -/+ sqrt(2)/2: the other "
          "asymptotic directions)")

    for step in range(1, 11):
        st = cs.blowup_once(st)
        cps = cs.divisor_critical_points(st)
        roots = cs.curve_divisor_intersection(st)
        rtxt = [r.text() if isinstance(r, cs.SRational) else str(r) for r in roots]
        print(f"  blow-up {step}: critical {[c.text() for c in cps]}, "
              f"curve meets divisor at {rtxt}")
        a = cps[0].value
        if any(r == a for r in roots):
            if a != 0:
                st = cs.translate(st, a)
                print(f"              still together; translate by {a}")
        else:
            print("              separated!")
            break


def main():
    walk("generic")
    walk("t0")

    print("\nfull engine runs (exact, no orbit needed):")
    for mode in ("generic", "t0"):
        rep = cs.run_sequence(mode)
        absc = (rep.curve_abscissa.text()
                if isinstance(rep.curve_abscissa, cs.SRational)
                else str(rep.curve_abscissa))
        print(f"  {mode:7s}: {rep.n_blowups} blow-ups, contact order "
              f"{rep.contact_order}, curve meets the divisor at x = {absc} "
              f"with the critical point at 0")
    print("\nwith s = t + 1, the generic abscissa (s - 1)/(8*s) vanishes at "
          "t = 0, which is why that case needs four more blow-ups")


if __name__ == "__main__":
    main()
