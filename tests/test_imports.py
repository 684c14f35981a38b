"""Import cost: the package and the config parser load no heavy scipy parts."""

import os
import subprocess
import sys

import pytest

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


def _scipy_modules_after(code, *argv):
    """scipy modules loaded by a fresh interpreter once code has run."""
    src = os.path.dirname(os.path.dirname(starkchain.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys\n" + code + "\nprint('scipy:', *sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()[1:]


_CLI = "from starkchain.cli import main\nassert main(sys.argv[1:]) == 0"


@pytest.mark.parametrize("code", [
    "import starkchain",
    "from starkchain.config import parse_config\n"
    "parse_config({'experiment': 'thermal_transport', 'noise': 'lindblad'})",
    "import starkchain.cli",
], ids=["package", "parse_config", "cli"])
def test_start_up_loads_no_scipy(code):
    assert _scipy_modules_after(code) == []


def test_fock_space_builders_load_no_scipy():
    # the bosonic chain and its densities come from the same entry builder
    # as every other operator
    code = ("from starkchain import (PotentialSpec, build_bose_hubbard_hamiltonian,\n"
            "                        build_observable, paper_device)\n"
            "dev = paper_device()\n"
            "build_bose_hubbard_hamiltonian(dev, PotentialSpec.linear(-15.0), fock_cutoff=3)\n"
            "build_observable('density', 2, dev, fock_cutoff=3)")
    assert _scipy_modules_after(code) == []


@pytest.mark.parametrize("command", ["validate", "spin_transport",
                                     "thermal_transport", "spin_current",
                                     "wsl_scan"])
def test_ideal_cli_runs_load_no_scipy(tmp_path, command):
    # validate and the ideal, shot-free routes need numpy alone: the dense
    # eigh and the entry gather of the operators
    config = tmp_path / "c.yaml"
    experiment = "spin_transport" if command == "validate" else command
    config.write_text(f"experiment: {experiment}\nt_max: 60\ndt_sample: 2\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(config)]
    if command != "validate":
        argv += ["--out", str(out)]
    assert _scipy_modules_after(_CLI, *argv) == []
    assert (out / "summary.json").is_file() == (command != "validate")


def test_lindblad_run_loads_scipy_on_first_use(tmp_path):
    # the probe sees a lazily loaded scipy: decoherence_check evolves the
    # master equation
    config = tmp_path / "c.yaml"
    config.write_text("experiment: decoherence_check\nt_max: 20\ndt_sample: 2\n")
    loaded = _scipy_modules_after(_CLI, "decoherence_check", "--config",
                                  str(config), "--out", str(tmp_path / "out"))
    assert {"scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"} <= set(loaded)
