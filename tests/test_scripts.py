"""Golden output of the experiment scripts: the tables they print."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CROSSING = """\
scenario     association                   IDSW    IDF1    HOTA    MOTA
identical    adaptive (default)               0  1.0000  1.0000  1.0000
identical    frozen w_aaw=2 (appearance)     17  0.7750  0.7014  0.8875
identical    frozen w_aaw=1 (balanced)        0  1.0000  1.0000  1.0000
identical    frozen w_aaw=0 (motion)          0  1.0000  1.0000  1.0000
swapped      adaptive (default)               4  0.5667  0.5825  0.9750
swapped      frozen w_aaw=2 (appearance)      4  0.5667  0.5825  0.9750
swapped      frozen w_aaw=1 (balanced)        4  0.5667  0.5825  0.9750
swapped      frozen w_aaw=0 (motion)          0  1.0000  1.0000  1.0000
"""

THETA_SWEEP = """
theta         HOTA    MOTA    IDF1   IDSW
22.5        0.9165  0.9100  0.9558     24
45.0        0.9600  0.9600  0.9796      0
67.5        0.9600  0.9600  0.9796      0
80.0        0.9600  0.9600  0.9796      0

lambda        HOTA    MOTA    IDF1   IDSW
0.0         0.9600  0.9600  0.9796      0
0.1         0.9600  0.9600  0.9796      0
0.2         0.9600  0.9600  0.9796      0
0.4         0.9600  0.9600  0.9796      0
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_crossing_stress_table():
    assert _run("crossing_stress.py") == CROSSING


def test_theta_sweep_table():
    assert _run("theta_sweep.py", "--seeds", "1", "--lambdas") == THETA_SWEEP
