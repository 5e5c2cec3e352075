"""The demo scripts run to completion against the library's current API.

Each script is run in process as ``__main__``, with its stdout captured.
channel_statistics is left out: it takes ~12 s and calls nothing that the
other demos and the unit tests do not already reach.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("outage_analysis", "series expansion near zero threshold"),
    ("capacity_hardening", "interference-limited ceilings"),
    ("positioning", "noiseless solve: position error"),
    ("constellation_sizing", "minimum satellites for whole-sphere single coverage"),
])
def test_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert expected in out
