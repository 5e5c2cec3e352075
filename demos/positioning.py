"""Pseudorange positioning with a RIS-relayed fourth anchor.

Three satellites are direct anchors; the fourth path arrives reflected,
so its pseudorange carries the known extra RIS leg, which the model
subtracts.  A Gauss-Newton least-squares solver recovers position and
receiver clock bias.  The script solves the bundled default scene
noiseless, shows the noise sensitivity through the DOP factors, then
ties ranging noise back to the link through the accuracy sweep.
"""

import numpy as np

from inaclink import (
    PseudorangeSet,
    ScenarioConfig,
    default_scene,
    dilution_of_precision,
    lsm_solve,
    synthesize_pseudoranges,
)
from inaclink.navigation import SPEED_OF_LIGHT, predicted_pseudoranges
from inaclink.sweeps import run_sweep


def main() -> None:
    scene = default_scene()
    truth = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)

    gdop, pdop = dilution_of_precision(scene)
    print(f"default scene: GDOP {gdop:.4f}  PDOP {pdop:.4f}")

    clean = PseudorangeSet(rho=predicted_pseudoranges(scene, truth))
    fix = lsm_solve(clean, scene)  # from the origin, to the 1e-6 m^2 stop
    err = np.linalg.norm(fix.position - scene.true_user)
    print(f"noiseless solve: position error {err:.2e} m, "
          f"clock error {abs(fix.clock_bias_s - scene.clock_bias):.2e} s, "
          f"{fix.iterations_used} iterations")
    print()

    sigma = 0.1  # small enough for the first-order DOP picture to hold
    rng = np.random.default_rng(2024)
    errs = []
    for _ in range(200):
        pr = synthesize_pseudoranges(scene, sigma, rng)
        errs.append(np.linalg.norm(lsm_solve(pr, scene).position - scene.true_user))
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    print(f"with {sigma:.1f} m ranging noise over 200 repetitions:")
    print(f"  position RMSE {rmse:.3f} m vs PDOP * sigma = {pdop * sigma:.3f} m")
    print()

    print("ranging noise from the link itself (accuracy sweep, both modes):")
    rep = run_sweep(ScenarioConfig(), "nav-accuracy")
    print(f"  {'L':>6}  {'CO sigma m':>11}  {'CO rmse m':>11}  {'NO sigma m':>11}  {'NO rmse m':>11}")
    for i, L in enumerate(rep.x):
        row = [rep.columns[c][i] for c in ("co_sigma_m", "co_rmse_m", "no_sigma_m", "no_rmse_m")]
        print(f"  {L:>6}  " + "  ".join(f"{v:>11.4f}" for v in row))
    print("  (no RIS means no usable ranging signal; past a few hundred")
    print("  elements the receiver bandwidth floor takes over)")


if __name__ == "__main__":
    main()
