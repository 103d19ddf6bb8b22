"""Every demo script, and every ```python block of README.md, runs to
completion against the sources in src/."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.M | re.S)


def _run(args):
    env = dict(os.environ)
    env.pop("NONCOH_FAULT_INJECT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)


def test_demos_found():
    assert DEMOS and README_BLOCKS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo):
    res = _run([str(demo)])
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"README-{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_exits_0(block):
    res = _run(["-c", block])
    assert res.returncode == 0, res.stderr


def test_capacity_sweep_csv_is_noncoh_sweeps(tmp_path):
    # the demo writes its CSV through noncoh sweep on its own grid
    flags = ["--from-db", "-10", "--to-db", "30", "--step-db", "2"]
    demo, cli = tmp_path / "demo.csv", tmp_path / "cli.csv"
    for res in (_run([str(ROOT / "demos" / "capacity_sweep.py"), str(demo)]),
                _run(["-m", "noncoh.cli", "sweep", *flags, "--out", str(cli)])):
        assert res.returncode == 0, res.stderr
    assert demo.read_bytes() == cli.read_bytes()
