"""Output checks against the references recorded from the seed commit.

Two kinds of value:

* exact: values that use no random stream (closed forms, asymptotic OP,
  hardened capacity, sigma, constellation counts, nav RMSE, whose noise has
  its own Philox stream).  They must agree to a relative 1e-9.  The
  coordinates of a position fix are compared at the scale of the fix, 1e-9
  of the position's norm, since a sub-metre coordinate is the difference of
  ranges of some 2e7 m and carries their rounding.
* Monte Carlo: a `*_mc` value with its `*_mc_half_width`.  It must lie
  within MC_SIGMAS times the combined half-width sqrt(hw^2 + hw_ref^2) of
  the reference, so a new sampler stream passes and a wrong estimator fails.

A reference cell that reads NA (the seed could not evaluate it) is checked
only for validity: NA again, or a finite number.
"""

from __future__ import annotations

import csv
import io
import math

#: relative tolerance of exact values, far below any modelling error
EXACT_RTOL = 1e-9
#: combined 95% half-widths an MC cell may move before it fails
MC_SIGMAS = 3.0
#: criterion 1 of the acceptance suite: KS bound everywhere, and at one cell
KS_BOUND = 0.02
KS_TIGHT_CELL, KS_TIGHT_BOUND = (64, 1.0, 0.0), 0.01


def exact_close(value: float, ref: float) -> bool:
    """Agreement to EXACT_RTOL of the value."""
    if value == ref:
        return True
    if not (math.isfinite(value) and math.isfinite(ref)):
        return False
    return abs(value - ref) <= EXACT_RTOL * max(abs(value), abs(ref))


def fix_close(state, ref_state) -> bool:
    """Agreement of a fix state (x, y, z, clock in metres) to EXACT_RTOL of the position's norm."""
    tol = EXACT_RTOL * math.hypot(*ref_state[:3])
    return all(math.isfinite(v) and abs(v - r) <= tol for v, r in zip(state, ref_state, strict=True))


def mc_close(value: float, hw: float, ref: float, ref_hw: float) -> bool:
    """Two-sample agreement of MC estimates built from both half-widths."""
    if not (math.isfinite(value) and math.isfinite(hw) and hw >= 0.0):
        return False
    return abs(value - ref) <= MC_SIGMAS * math.hypot(hw, ref_hw)


def ks_passes(cell: tuple[int, float, float], distance: float) -> bool:
    """Criterion 1's bounds, as the acceptance suite states them."""
    bound = KS_TIGHT_BOUND if cell == KS_TIGHT_CELL else KS_BOUND
    return math.isfinite(distance) and distance <= bound


def csv_cells(text: str) -> dict[str, str]:
    """Cells of a CLI CSV keyed "<row>:<name>".

    A `quantity,value` table keys each value by its quantity; a sweep
    table keys each cell by its row index and column name.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    if header == ["quantity", "value"]:
        return {f"0:{name}": value for name, value in body}
    cells = {}
    for i, row in enumerate(body):
        for name, value in zip(header, row):
            cells[f"{i}:{name}"] = value
    return cells


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(text: str, ref_text: str) -> list[str]:
    """Keys of the cells of `text` that fail their check against `ref_text`."""
    out, ref = csv_cells(text), csv_cells(ref_text)
    bad = sorted(set(ref) ^ set(out))
    for key in sorted(set(ref) & set(out)):
        value, expected = out[key], ref[key]
        if key.endswith("_mc_half_width"):
            hw = _number(value)
            if hw is None or not (hw >= 0.0 and math.isfinite(hw)):
                bad.append(key)
            continue
        v, r = _number(value), _number(expected)
        if r is None:
            if expected == "NA":
                ok = value == "NA" or (v is not None and math.isfinite(v))
            else:
                ok = value == expected
        elif v is None:
            ok = False
        elif key.endswith("_mc"):
            hw_key = key + "_half_width"
            hw, ref_hw = _number(out.get(hw_key, "")), _number(ref.get(hw_key, ""))
            ok = hw is not None and ref_hw is not None and mc_close(v, hw, r, ref_hw)
        else:
            ok = exact_close(v, r)
        if not ok:
            bad.append(key)
    return bad
