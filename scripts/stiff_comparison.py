#!/usr/bin/env python3
"""Stiff-solver comparison on y' = lam (y - cos t) - sin t with lam = -1e4.

Runs implicit Euler and the trapezoidal method at h = 0.2 from both the
smooth initial value (y0 = 1, exact solution cos t) and the perturbed one
(y0 = 1.5, fast transient).  The step size is three orders of magnitude
above the transient time scale, so only the strongly damping method stays
on the smooth solution after the perturbation.  Also demonstrates the
adaptive Euler/RK2 pair on the fast-start problem y' = 1/(y^2 + 0.01).
"""
import math
import sys

import odekit as ok


def trajectory_error(traj) -> float:
    return max(abs(traj.states[k, 0] - math.cos(traj.times[k]))
               for k in range(len(traj.times)))


def main() -> int:
    smooth = ok.get_problem("lambda_cos", lam=-1e4, y0=1.0, t_end=10.0)
    print("y0 = 1.0 (smooth solution), h = 0.2:")
    for method in ("ieuler", "trap"):
        traj = ok.march(smooth, method, 0.2)
        print(f"  {method:7s} inf-error {trajectory_error(traj):.3e}")

    perturbed = ok.get_problem("lambda_cos", lam=-1e4, y0=1.5, t_end=10.0)
    print("y0 = 1.5 (fast transient), h = 0.2, first five values vs cos t:")
    for method in ("ieuler", "trap"):
        traj = ok.march(perturbed, method, 0.2)
        values = "  ".join(f"{traj.states[k, 0]:+.3f}" for k in range(1, 6))
        print(f"  {method:7s} {values}")
        print(f"          cos t  " + "  ".join(f"{math.cos(traj.times[k]):+.3f}" for k in range(1, 6)))

    demo = ok.get_problem("adapt_demo")
    traj = ok.ode12_solve(demo, 1e-3)
    accepted = [r for r in traj.step_log if r.accepted]
    print(f"adaptive pair on y' = 1/(y^2+0.01): {len(accepted)} accepted / "
          f"{traj.stats.rejected_steps} rejected steps")
    print(f"  mean h in t<0.3: {sum(r.h for r in accepted if r.t < 0.3) / max(1, len([r for r in accepted if r.t < 0.3])):.4f}")
    print(f"  mean h in t>2.0: {sum(r.h for r in accepted if r.t >= 2.0) / max(1, len([r for r in accepted if r.t >= 2.0])):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
