"""Import cost and public surface: the package loads its submodules on first
use, the config parser needs neither numpy nor PyYAML, the ideal and the
noisy paper runs need no scipy, nothing loads the heavy scipy parts
before it needs them, and a run starts no thread."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

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
    # cold import; the expm_multiply routes reach sparse.linalg lazily, at
    # call time
    src = os.path.dirname(os.path.dirname(starkchain.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def _modules_after(code, *argv):
    """Modules a fresh interpreter holds once code has run, sorted."""
    src = os.path.dirname(os.path.dirname(starkchain.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys\n" + code + "\nprint('modules:', *sorted(sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()[1:]


def _scipy_modules_after(code, *argv):
    """scipy modules loaded by a fresh interpreter once code has run."""
    return [m for m in _modules_after(code, *argv) if m.split(".")[0] == "scipy"]


def _starkchain_modules(loaded):
    return [m for m in loaded if m.split(".")[0] == "starkchain"]


_CLI = "from starkchain.cli import main\nassert main(sys.argv[1:]) == 0"


@pytest.mark.parametrize("code", [
    "import starkchain",
    "from starkchain.config import parse_config\n"
    "parse_config({'experiment': 'thermal_transport', 'noise': 'lindblad'})",
    "import starkchain.cli",
    # resolves every public name, so loads every submodule
    "from starkchain import *",
], ids=["package", "parse_config", "cli", "star"])
def test_start_up_loads_no_scipy(code):
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


@pytest.mark.parametrize("cap", [None, 400], ids=["default_cap", "cap_400"])
def test_unitary_blocks_under_the_cap_load_no_scipy(tmp_path, cap):
    # X+ on 11 qubits spans all 2048 states, which split into excitation
    # sectors of at most 462 states: under the default DENSE_BLOCK_CAP each
    # is diagonalized with numpy; with the cap at 400 the two sectors of
    # 462 states go to expm_multiply
    config = tmp_path / "c.yaml"
    config.write_text(json.dumps({
        "experiment": "spin_transport", "initial_state": "X+" * 11,
        "device": {"n_qubits": 11, "coupling_mhz": [14.4] * 10}}))
    code = _CLI if cap is None else (
        f"from starkchain import dynamics\ndynamics.DENSE_BLOCK_CAP = {cap}\n" + _CLI)
    loaded = _scipy_modules_after(code, "spin_transport", "--config",
                                  str(config), "--out", str(tmp_path / "out"))
    if cap is None:
        assert loaded == []
    else:
        assert "scipy.sparse.linalg" in loaded


@pytest.mark.parametrize("code", ["import starkchain.cli", _CLI],
                         ids=["import", "wsl_scan"])
def test_cli_loads_no_free_fermion_module(tmp_path, code):
    # the CLI's wsl_scan is the one scan route: its theory mode reads P5 off
    # the same evolution as spin_transport, and freefermion stays the tests'
    # and the benchmark checker's oracle
    config = tmp_path / "c.yaml"
    config.write_text("experiment: wsl_scan\n")
    loaded = _modules_after(code, "wsl_scan", "--config", str(config),
                            "--out", str(tmp_path / "out"))
    assert "starkchain.cli" in loaded
    assert "starkchain.freefermion" not in loaded


@pytest.mark.parametrize("experiment, grid", [
    ("thermal_transport", ""), ("decoherence_check", ""),
    ("thermal_transport", "dt_sample: 0.1\n")],
    ids=["thermal_transport", "decoherence_check", "dt_sample_0.1"])
def test_noisy_paper_runs_load_no_scipy(tmp_path, experiment, grid):
    # at paper settings every Lindblad block is dense, so every propagator
    # is dynamics._expm, numpy alone, on any grid: at dt_sample 0.1 the
    # rounded steps take 13 distinct values, one of them once;
    # thermal_transport samples the paper shots from X+X+000
    config = tmp_path / "c.yaml"
    config.write_text(f"experiment: {experiment}\nnoise: lindblad\n{grid}")
    out = tmp_path / "out"
    assert _scipy_modules_after(_CLI, experiment, "--config", str(config),
                                "--out", str(out)) == []
    assert (out / "summary.json").is_file()


_THREAD_COUNT_RUN = """
import threading
before = threading.active_count()
""" + _CLI + """
assert threading.active_count() == before, threading.enumerate()
"""


def test_noisy_shot_run_starts_no_thread(tmp_path):
    # every stage, the keyed shot draws included, runs on the calling
    # thread: a noisy shot run leaves the thread count as it found it and
    # never loads a thread pool
    config = tmp_path / "c.yaml"
    config.write_text("experiment: thermal_transport\nt_max: 20\n"
                      "noise: lindblad\nshots: paper\n")
    out = tmp_path / "out"
    loaded = _modules_after(_THREAD_COUNT_RUN, "thermal_transport",
                            "--config", str(config), "--out", str(out))
    assert "concurrent.futures" not in loaded
    assert (out / "summary.json").is_file()


_EXPM_MULTIPLY_RUN = """
from starkchain import dynamics
from starkchain import (DeviceParams, PotentialSpec, build_xy_hamiltonian,
                        evolve_lindblad, make_collapse_ops,
                        prepare_initial_state)
dev = DeviceParams.uniform(3, t1_us=20.0, t2star_us=2.0)
h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0))
state = prepare_initial_state("X+X+0", 3)
dynamics.DENSE_BLOCK_CAP = int(sys.argv[1])
assert 'scipy' not in sys.modules
evolve_lindblad(h, state, [float(t) for t in sys.argv[2:]], make_collapse_ops(dev))
"""


@pytest.mark.parametrize("cap, times", [(4, ["0", "2", "4"])],
                         ids=["block_above_the_cap"])
def test_expm_multiply_routes_load_scipy_on_first_use(cap, times):
    # a block above DENSE_BLOCK_CAP steps with expm_multiply, the one
    # Lindblad route on scipy
    assert "scipy.sparse.linalg" in _scipy_modules_after(
        _EXPM_MULTIPLY_RUN, str(cap), *times)


def test_steps_taken_once_load_no_scipy():
    # the block size alone picks the propagator: steps of 1 and 2 ns, each
    # taken once, take the dense expm of every block
    assert _scipy_modules_after(_EXPM_MULTIPLY_RUN, "512", "0", "1", "3") == []


def test_package_import_loads_no_submodule_and_no_numpy():
    # each public name loads its submodule on first use; dir() lists them all
    loaded = _modules_after(
        "import starkchain\n"
        "assert set(starkchain.__all__) <= set(dir(starkchain))")
    assert "numpy" not in loaded
    assert _starkchain_modules(loaded) == ["starkchain"]


def test_parse_config_loads_no_numerics_module_and_no_yaml():
    # a noisy thermal run with corrected table-s1 readout, and one with a
    # corrected readout list on a custom device, touch every branch of the
    # parser that once needed dynamics (the state grammar) or measurement
    # (the confusion matrix)
    loaded = _modules_after(
        "from starkchain.config import parse_config\n"
        "parse_config({'experiment': 'thermal_transport', 'noise': 'lindblad',\n"
        "              'readout': 'table-s1', 'readout_correction': True})\n"
        "parse_config({'experiment': 'thermal_transport', 'noise': 'lindblad',\n"
        "              'readout': [{'f0': 0.95, 'f1': 0.9}] * 5,\n"
        "              'readout_correction': True,\n"
        "              'initial_state': 'X+0000',\n"
        "              'device': {'n_qubits': 5, 'coupling_mhz': [14.4] * 4}})")
    assert _starkchain_modules(loaded) == [
        "starkchain", "starkchain.config", "starkchain.device",
        "starkchain.errors"]
    assert "yaml" not in loaded
    assert "numpy" not in loaded


def test_cli_import_loads_no_package_metadata():
    # summary.json's version is starkchain.__version__; importlib.metadata
    # took 17-22 ms to import for that one string
    assert "importlib.metadata" not in _modules_after("import starkchain.cli")


def test_load_config_loads_yaml_on_first_read(tmp_path):
    config = tmp_path / "c.yaml"
    config.write_text("experiment: spin_transport\n")
    loaded = _modules_after(
        "from starkchain.config import load_config\n"
        "assert 'yaml' not in sys.modules\n"
        "assert load_config(sys.argv[1]).experiment == 'spin_transport'",
        str(config))
    assert "yaml" in loaded
    assert "numpy" not in loaded


# the package's 49 public names, by defining module
_PUBLIC = {
    "analysis": [
        "FitResult", "boundary_peak", "detect_first_wavefront",
        "first_wavefront_peak", "gaussian_fit_wavefront", "linear_fit",
        "moving_average3", "wsl_length_from_boundary"],
    "config": ["ExperimentConfig", "ShotPlan", "load_config", "parse_config"],
    "device": [
        "ANGULAR_PER_MHZ", "ConfusionMatrix", "DeviceParams", "PotentialSpec",
        "device_preset", "paper_device"],
    "dynamics": [
        "CollapseOperatorSet", "QuantumState", "evolve_lindblad",
        "evolve_unitary", "make_collapse_ops", "prepare_initial_state"],
    "errors": [
        "ConfigError", "DomainError", "FitDomainError", "NoWavefrontError",
        "NumericalConsistencyError", "StarkchainError", "StateSpecError"],
    "freefermion": [
        "SingleParticleHamiltonian", "fit_localization_length",
        "propagate_single_particle", "single_particle_matrix",
        "time_averaged_profile", "two_excitation_slater"],
    "measurement": [
        "CountRecord", "group_means", "sample_shots"],
    "model": [
        "OperatorMatrix", "SectorBasis", "build_observable",
        "build_sector_basis", "build_xy_hamiltonian", "full_tag", "sector_tag"],
    "observables": ["expectation", "trajectory"],
}


class TestPublicSurface:
    def test_all_is_unchanged(self):
        assert len(starkchain.__all__) == 49
        assert starkchain.__all__ == sorted(
            name for names in _PUBLIC.values() for name in names)

    @pytest.mark.parametrize("module, name", [
        (module, name) for module, names in _PUBLIC.items() for name in names])
    def test_name_is_the_defining_modules_object(self, module, name):
        defining = importlib.import_module(f"starkchain.{module}")
        value = getattr(starkchain, name)
        assert value is getattr(defining, name)
        assert getattr(value, "__module__", defining.__name__) == defining.__name__

    def test_star_import(self):
        namespace = {}
        exec("from starkchain import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(starkchain.__all__)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            starkchain.no_such_name

    def test_confusion_matrix_has_one_class(self):
        import starkchain.device
        import starkchain.measurement
        assert (starkchain.measurement.ConfusionMatrix
                is starkchain.device.ConfusionMatrix)


_README = Path(__file__).resolve().parents[1] / "README.md"
# backticked dotted names in the README that are config field paths
_FIELD_PATHS = {"device.n_qubits", "device.coupling_mhz"}


def test_readme_cites_only_names_that_exist():
    # every backticked `module.attr` of the package the README cites, and
    # every `starkchain.attr`, is there to be found
    modules = {m.name for m in pkgutil.iter_modules(starkchain.__path__)}
    cited = set(re.findall(r"`((\w+)\.(\w+))`", _README.read_text()))
    missing, checked = [], 0
    for path, module, attr in sorted(cited):
        if path in _FIELD_PATHS or module not in modules | {"starkchain"}:
            continue
        checked += 1
        if module == "starkchain":
            found = attr in modules or hasattr(starkchain, attr)
        else:
            found = hasattr(importlib.import_module(f"starkchain.{module}"), attr)
        if not found:
            missing.append(path)
    assert checked >= 12  # the pattern still finds the citations
    assert missing == []


_README_CODE = re.findall(r"^```python\n(.*?)^```", _README.read_text(),
                          re.M | re.S)


@pytest.mark.parametrize("k", range(len(_README_CODE)))
def test_readme_python_blocks_run(k, tmp_path):
    # each quick start runs on its own in a fresh interpreter, under the
    # suite's rule that a RuntimeWarning is an error
    assert len(_README_CODE) >= 2  # the pattern still finds the blocks
    src = os.path.dirname(os.path.dirname(starkchain.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _README_CODE[k]],
        env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


_README_YAML = re.findall(r"^```yaml\n(.*?)^```", _README.read_text(),
                          re.M | re.S)


@pytest.mark.parametrize("k", range(len(_README_YAML)))
def test_readme_yaml_blocks_validate(k, tmp_path):
    # each config example reads as a file and validates, so the README
    # documents no key the parser refuses
    from starkchain.config import parse_config, read_config

    assert len(_README_YAML) >= 2  # the pattern still finds the blocks
    path = tmp_path / "c.yaml"
    path.write_text(_README_YAML[k])
    parse_config(read_config(path), default_experiment="spin_transport")
