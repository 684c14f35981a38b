"""Import cost: the package and the config parser load no heavy scipy parts."""

import os
import subprocess
import sys

import starkchain

_HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.sparse.csgraph",
          "scipy.sparse.linalg")

_PROBE = f"""
import sys
import starkchain
from starkchain.config import parse_config
print(" ".join(m for m in {_HEAVY!r} if m in sys.modules))
"""


def test_import_leaves_sparse_linalg_and_optimize_unloaded():
    # scipy.sparse.linalg and scipy.optimize add about 0.14 s and 0.27 s to a
    # cold import; the propagators reach sparse.linalg, scipy.linalg and
    # sparse.csgraph lazily, at call time
    src = os.path.dirname(os.path.dirname(starkchain.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""
