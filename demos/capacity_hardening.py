"""Ergodic capacity against array size, and where the two modes cross.

A signal decoded in the presence of the other superposed signal saturates
at log2(1 + split ratio) no matter how strong the channel gets; a signal
decoded after interference cancellation keeps gaining with L.  As the
array grows the communication-oriented mode therefore overtakes the
navigation-oriented one on the uni-cast stream.
"""

import math
from dataclasses import replace

from inaclink import McConfig, ScenarioConfig, capacity_hardened, mc_capacity, sample_cascaded_gains


def main() -> None:
    cfg = ScenarioConfig()
    mc = McConfig(trials=2_000, master_seed=12345)

    print("hardened uni-cast capacity (bps/Hz) vs number of RIS elements")
    print(f"  {'L':>6}  {'CO mode':>9}  {'NO mode':>9}  {'CO - NO':>9}  {'NO mc':>9}")
    for L in cfg.sweep_elements_cap:
        at_l = replace(cfg, elements=L)
        co = capacity_hardened(at_l.scenario(), "unicast")
        sc = replace(at_l, mode="NO").scenario()
        no = capacity_hardened(sc, "unicast")
        est = mc_capacity(sample_cascaded_gains(sc.ris, sc.rician, mc), sc, "unicast")
        print(f"  {L:>6}  {co:>9.4f}  {no:>9.4f}  {co - no:>+9.4f}  {est.mean:>9.4f}")
    print()

    print("interference-limited ceilings (independent of power and L):")
    co_m = cfg.scenario()
    no_u = replace(cfg, mode="NO").scenario()
    print(f"  CO multi-cast: log2(1 + {co_m.split.alpha_m_sq:.1f}/{co_m.split.alpha_u_sq:.1f})"
          f" = {math.log2(1.0 + co_m.split.alpha_m_sq / co_m.split.alpha_u_sq):.4f}")
    print(f"  NO uni-cast:   log2(1 + {no_u.split.alpha_u_sq:.1f}/{no_u.split.alpha_m_sq:.1f})"
          f" = {math.log2(1.0 + no_u.split.alpha_u_sq / no_u.split.alpha_m_sq):.4f}")
    big = McConfig(trials=20_000, master_seed=12345)
    at_1024 = replace(cfg, elements=1024, tx_power_dbm=100.0)  # 1e7 W
    strong = at_1024.scenario()
    strong_no = replace(at_1024, mode="NO").scenario()
    # the mode changes the SINR, not the channel: one draw serves both
    gains = sample_cascaded_gains(strong.ris, strong.rician, big)
    print("  Monte Carlo at L=1024 and extreme power:"
          f" CO multi-cast {mc_capacity(gains, strong, 'multicast').mean:.4f},"
          f" NO uni-cast {mc_capacity(gains, strong_no, 'unicast').mean:.4f}")


if __name__ == "__main__":
    main()
