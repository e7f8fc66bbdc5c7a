"""Each script in demos/ runs to completion and prints its walkthrough, byte for byte."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_number_triangles": "95a630b6e7521f5128f24dbece61af4f2350ae58b7cb26250927bc589d23476f",
    "02_lah_bell_polynomials": "b67dfffa9e01b4863dbfaf2fcb865aaaf6523ec2296db0dcfb2be33d41b1d4d7",
    "03_degenerate_random_variables": "fd5ecb5106808282fc6626245db2ddb53218d154f70e17bfc1807af5431480e5",
    "04_monte_carlo_verification": "4cf1d2c4475fb2134305a9ee503d53b7acf065b0ccf58eadc4b28c0b58207226",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.strip()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
