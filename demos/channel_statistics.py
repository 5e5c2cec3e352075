"""Effective-channel statistics of the RIS-combined satellite link.

The co-phased sum of L cascaded Rician amplitudes concentrates, by the CLT,
around a Gaussian with moments (m3, v3); the squared sum (the effective
power gain) then follows a folded-normal-in-amplitude law.  This script
prints the moment chain, checks the sampled distribution against the
closed-form CDF, and shows the channel-hardening collapse of the relative
spread as the array grows.
"""

import math

import numpy as np

from inaclink import (
    McConfig,
    RicianParams,
    RisArray,
    cascaded_moments,
    effective_gain_cdf,
    ks_distance,
    sample_cascaded_gains,
)


def main() -> None:
    rician = RicianParams(k_r=1.0, k_g=0.0)
    ris = RisArray(num_elements=64, amplitude=1.0)
    cm = cascaded_moments(ris, rician)

    print("per-link amplitude moments (unit power):")
    print(f"  satellite->RIS  mean {cm.m1:.6f}  variance {cm.v1:.6f}")
    print(f"  RIS->user       mean {cm.m2:.6f}  variance {cm.v2:.6f}")
    print(f"combined sum over L={ris.num_elements}: m3 {cm.m3:.4f}  v3 {cm.v3:.4f}")
    print()

    mc = McConfig(trials=100_000, master_seed=12345)
    gains = sample_cascaded_gains(ris, rician, mc)
    print(f"{mc.trials} sampled squared gains vs the closed-form law:")
    print(f"  sample mean {np.mean(gains):.2f}  analytic m3^2 + v3 {cm.m3**2 + cm.v3:.2f}")
    print("  quantile check (empirical CDF at analytic quantile levels):")
    for q in (0.05, 0.25, 0.5, 0.75, 0.95):
        x = float(np.quantile(gains, q))
        print(f"    P[X <= {x:10.2f}] analytic {effective_gain_cdf(x, cm):.4f}  target {q:.2f}")
    d = ks_distance(ris, rician, mc)
    print(f"  Kolmogorov-Smirnov distance {d:.5f}")
    print()

    print("channel hardening: relative spread of the gain vs array size")
    print(f"  {'L':>6}  {'std/mean':>10}  {'2 sqrt(v3)/m3':>14}")
    small = McConfig(trials=20_000, master_seed=12345)
    for L in (16, 64, 256, 1024, 4096):
        r = RisArray(num_elements=L, amplitude=1.0)
        g = sample_cascaded_gains(r, rician, small)
        c = cascaded_moments(r, rician)
        print(
            f"  {L:>6}  {np.std(g) / np.mean(g):>10.5f}  {2.0 * math.sqrt(c.v3) / c.m3:>14.5f}"
        )


if __name__ == "__main__":
    main()
