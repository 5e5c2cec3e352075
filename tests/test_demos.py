"""The positioning demo and the README's recipes run against the library's
current API.

The demo is run in process as ``__main__``, with its stdout captured.
channel_statistics is left out: it takes ~12 s and calls nothing that the
unit tests do not already reach.

A recipe is an ``ini`` block of README.md whose first line is ``# inaclink
<command>`` and whose second is ``# columns: <name> ...``; the block itself is
the config file the command runs with.
"""

import re
import runpy
import shlex
from pathlib import Path

import pytest

from inaclink import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
RECIPE = re.compile(r"^```ini\n(# inaclink (.*)\n# columns: (.*)\n(?:.*\n)*?)```$", re.MULTILINE)


@pytest.mark.parametrize("name, expected", [
    ("positioning", "noiseless solve: position error"),
])
def test_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert expected in out


def test_readme_recipes_run(tmp_path):
    recipes = RECIPE.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert recipes, "README.md has no recipe block"
    cfg, out = tmp_path / "recipe.cfg", tmp_path / "recipe.csv"
    for block, command, columns in recipes:
        cfg.write_text(block, encoding="utf-8")
        assert cli.main([*shlex.split(command), "--config", str(cfg), "--out", str(out)]) == 0, block
        lines = out.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        names = [ln.split(",", 1)[0] for ln in lines[1:]] if header == ["quantity", "value"] else header
        missing = set(columns.split()) - set(names)
        assert not missing, f"{command}: no column {sorted(missing)}"
