"""Start-up cost: importing the package and its CLI loads no scipy module and no thread pool."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import hypdim, hypdim.cli
print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
print("concurrent.futures" in sys.modules)
import numpy as np
from hypdim.dimension import minkowski_content_curve
from hypdim.pressure import ProductCloud
column = np.array([[0.5]])
minkowski_content_curve(ProductCloud((column, column), ((0,), (1,))), 1.0, [0.1, 0.05], grid_resolution=128)
print("scipy.spatial" in sys.modules)
minkowski_content_curve(np.array([[0.5, 0.5]]), 1.0, [0.1, 0.05], grid_resolution=128)
print("scipy.spatial" in sys.modules)
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    code = hypdim.cli.main(["pressure", "--model", "horseshoe:3,0.25", "--method", "volume",
                            "--grid", "64", "--kmax", "4", "--threads", "2"])
print(code, "concurrent.futures" in sys.modules)
"""


def test_scipy_loads_only_for_the_minkowski_curve():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    # a product of one-column factors skips the k-d tree; any other cloud loads it;
    # only a volume grid stepped by more than one thread loads the thread pool
    assert done.stdout.split("\n")[:5] == ["[]", "False", "False", "True", "0 True"]
