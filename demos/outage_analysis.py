"""Outage probability across transmit power, three ways.

For each decoding mode the two superposed signals have closed-form outage
probabilities, and a Monte Carlo run over raw channel draws cross-checks
them; the sweep below walks the whole waterfall from certain outage to
negligible.  Near zero outage threshold a polynomial series approximates
the exact expression; the last section shows it inside its validity
region and the report it gives outside.
"""

import math
from dataclasses import replace

from inaclink import (
    McConfig,
    ScenarioConfig,
    mc_outage,
    outage_asymptotic,
    outage_closed_form,
    outage_threshold,
    sample_cascaded_gains,
)
from inaclink.errors import RegionError
from inaclink.noma import first_decoded


def main() -> None:
    cfg = ScenarioConfig()
    mc = McConfig(trials=50_000, master_seed=12345)

    # each signal's waterfall sits in its own power band
    bands = {
        ("CO", "multicast"): (38, 40, 41, 42, 43, 44),
        ("CO", "unicast"): (44, 45, 46, 47, 48),
        ("NO", "multicast"): (47, 48, 49, 50, 51),
        ("NO", "unicast"): (38, 40, 41, 42, 43, 44),
    }
    for mode in ("CO", "NO"):
        sc0 = replace(cfg, mode=mode).scenario()
        # transmit power scales the SINR, not the channel: one draw serves the band
        gains = sample_cascaded_gains(sc0.ris, sc0.rician, mc)
        print(f"mode {mode}: decodes the {first_decoded(mode)} signal first "
              f"(split {sc0.split.alpha_m_sq:.1f}/{sc0.split.alpha_u_sq:.1f})")
        for signal in ("multicast", "unicast"):
            print(f"  {signal} outage vs transmit power, L={cfg.elements}")
            print(f"    {'dBm':>5}  {'closed form':>12}  {'monte carlo':>12}")
            for dbm in bands[(mode, signal)]:
                sc = replace(cfg, mode=mode, tx_power_dbm=dbm).scenario()
                cf = outage_closed_form(sc, signal).value
                est = mc_outage(gains, sc, signal)
                print(f"    {dbm:>5}  {cf:>12.4e}  {est.mean:>12.4e}")
        print()

    print("series expansion near zero threshold (single element, no LoS):")
    cfg1 = ScenarioConfig(elements=1, k_r=0.0, k_g=0.0)
    base = outage_threshold(cfg1.scenario(), "multicast")
    print(f"    {'threshold':>10}  {'closed form':>12}  {'series':>12}")
    for omega in (1e-3, 1e-4, 1e-5):
        # the threshold falls as the power rises: base / omega more power puts it at omega
        sc = replace(cfg1, tx_power_dbm=cfg1.tx_power_dbm + 10.0 * math.log10(base / omega)).scenario()
        cf = outage_closed_form(sc, "multicast").value
        series = outage_asymptotic(sc, "multicast").value
        print(f"    {omega:>10.0e}  {cf:>12.4e}  {series:>12.4e}")
    try:
        outage_asymptotic(cfg.scenario(), "multicast")
    except RegionError as err:
        print(f"  at L={cfg.elements} the expansion point is out of reach: {err}")


if __name__ == "__main__":
    main()
