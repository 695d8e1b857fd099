"""The README's INI examples run through the commands they document."""

import re
from pathlib import Path

import pytest

from qtraj.cli import main
from qtraj.runner import parse_csv

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```ini\n(.*?)^```$", README.read_text(), flags=re.M | re.S)

# each block in README order, with the command that reads it and small overrides;
# the full file keeps its t_max, which its sample times reach
COMMANDS = [
    ("jump", ["--n-traj", "4"]),
    ("diffusive", ["--n-traj", "2", "--t-max", "0.01"]),
]


def test_every_ini_block_has_a_command():
    assert len(BLOCKS) == len(COMMANDS)


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_ini_example_runs(tmp_path, capsys, index):
    command, overrides = COMMANDS[index]
    config, out = tmp_path / "example.ini", tmp_path / "example.csv"
    config.write_text(BLOCKS[index])
    argv = [command, "--config", str(config), *overrides, "--workers", "1", "--output", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    assert len(parse_csv(out)["time"]) > 1
