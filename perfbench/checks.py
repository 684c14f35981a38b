"""Output checks applied to every run the benchmark makes.

A run whose outputs fail a check counts as failed, like a run that raised.
The references come from routes other than the CLI's: the one-excitation
densities of an ideal run are the free-fermion propagation, which is exact
unitary evolution restricted to that sector.
"""

import json
import math

import numpy as np

from starkchain.device import PotentialSpec
from starkchain.freefermion import propagate_single_particle, single_particle_matrix

from loop import CheckFailed

DENSITY_TOL = 1e-8
# the Lindblad integrator itself lets trace and eigenvalues drift by 1e-6
LINDBLAD_TOL = 1e-6


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def parse_csv(data):
    """(column name -> float array) from a CSV the CLI wrote."""
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    _require(rows.ndim == 2 and rows.shape[1] == len(header),
             f"ragged CSV with header {header}")
    return {name: rows[:, k] for k, name in enumerate(header)}


def _one_excitation_site(spec):
    """Site (1-based) of the single excitation in a 0/1 spec, else None."""
    if set(spec) <= {"0", "1"} and spec.count("1") == 1:
        return spec.index("1") + 1
    return None


def _exact_densities(config, f, times):
    # the CLI's descending ramp; occupations from a basis state do not depend
    # on its orientation
    h = single_particle_matrix(config.device, PotentialSpec.linear(-abs(f)))
    return propagate_single_particle(h, _one_excitation_site(config.initial_state),
                                     times)


def _check_grid(config, cols):
    expect = np.arange(0.0, config.t_max_ns + 1e-9, config.dt_sample_ns)
    t = cols["t_ns"]
    _require(t.shape == expect.shape and np.allclose(t, expect, atol=1e-6),
             "t_ns column does not match the configured time grid")


def _check_finite_with_errors(cols):
    for name, v in cols.items():
        _require(np.all(np.isfinite(v)), f"column {name} is not finite")
        if name.endswith("_err"):
            _require(np.all(v >= 0.0), f"column {name} has negative entries")


def _check_bounded(cols, bounds):
    for name, limit in bounds.items():
        _require(np.all(np.abs(cols[name]) <= limit * (1 + 1e-9)),
                 f"column {name} exceeds its bound {limit:g}")


def _check_trajectory(config, f, cols):
    n = config.device.n_qubits
    _check_grid(config, cols)
    _check_finite_with_errors(cols)
    exp = config.experiment
    g = config.device.coupling_mhz
    if exp == "spin_transport":
        dens = np.column_stack([cols[f"P{j}"] for j in range(1, n + 1)])
        _require(np.all((dens >= 0.0) & (dens <= 1.0)), "densities outside [0, 1]")
        if config.shots is None and _one_excitation_site(config.initial_state):
            ref = _exact_densities(config, f, cols["t_ns"])
            err = float(np.max(np.abs(dens - ref)))
            _require(err <= DENSITY_TOL,
                     f"densities differ from free fermions by {err:.3e}")
            drift = float(np.max(np.abs(dens.sum(axis=1) - 1.0)))
            _require(drift <= DENSITY_TOL, f"densities sum to 1 +- {drift:.3e}")
    elif exp == "thermal_transport":
        # K_b = (g_b/2)<XX + YY> in MHz, so |K_b| <= g_b
        _check_bounded(cols, {"K1": g[0], f"K{n - 1}": g[n - 2]})
    elif exp == "spin_current":
        _check_bounded(cols, {f"J{b}": 1.0 for b in range(1, n)})
    elif exp == "decoherence_check":
        ideal = np.column_stack([cols[f"P{j}_ideal"] for j in range(1, n + 1)])
        lind = np.column_stack([cols[f"P{j}_lindblad"] for j in range(1, n + 1)])
        if _one_excitation_site(config.initial_state):
            err = float(np.max(np.abs(ideal - _exact_densities(config, f, cols["t_ns"]))))
            _require(err <= DENSITY_TOL,
                     f"_ideal columns differ from unitary evolution by {err:.3e}")
        _require(np.all((lind >= -LINDBLAD_TOL) & (lind <= 1.0 + LINDBLAD_TOL)),
                 "_lindblad populations outside [0, 1]")
        _require(np.all(lind.sum(axis=1) <= 1.0 + LINDBLAD_TOL),
                 "_lindblad populations sum above 1")


def _check_scan(config, cols):
    f = cols["F_mhz"]
    _require(np.allclose(f, config.gradients_mhz), "F_mhz rows do not match the config")
    _check_finite_with_errors(cols)
    p5 = cols["p5max"]
    _require(np.all((p5 > 0.0) & (p5 <= 1.0)), "p5max outside (0, 1]")
    _require(np.allclose(cols["ln_p5max"], np.log(p5), rtol=1e-7, atol=1e-8),
             "ln_p5max is not ln(p5max)")
    if config.shots is None and config.noise == "ideal":
        # the wavefront peak is one of the exact samples of P_n(t)
        n = config.device.n_qubits
        times = np.arange(0.0, config.t_max_ns + 1e-9, config.dt_sample_ns)
        for fk, peak in zip(f, p5):
            exact = _exact_densities(config, fk, times)[:, n - 1]
            err = float(np.min(np.abs(exact - peak)))
            _require(err <= DENSITY_TOL,
                     f"p5max at F={fk:g} is no sample of the exact P{n}(t)")


def check_outputs(config, files):
    """Raise CheckFailed unless the files of one finished run are right."""
    _require("summary.json" in files, "summary.json missing")
    summary = json.loads(files["summary.json"])
    csvs = sorted(name for name in files if name != "summary.json")
    _require(summary["outputs"] == csvs,
             f"summary lists {summary['outputs']}, directory holds {csvs}")
    _require(summary["experiment"] == config.experiment, "summary names another experiment")
    if config.experiment == "wsl_scan":
        _require(csvs == ["wsl_scan.csv"], f"unexpected outputs {csvs}")
        _check_scan(config, parse_csv(files["wsl_scan.csv"]))
        slope = summary["fits"].get("ln_p5max_vs_F", {}).get("slope")
        _require(slope is None or math.isfinite(slope), "fit slope is not finite")
        return
    _require(len(csvs) == len(config.gradients_mhz),
             f"{len(csvs)} CSVs for {len(config.gradients_mhz)} gradients")
    for f in config.gradients_mhz:
        label = ("%g" % float(f)).replace(".", "p").replace("-", "m")
        name = f"{config.experiment}_F{label}.csv"
        _require(name in files, f"{name} missing")
        _check_trajectory(config, f, parse_csv(files[name]))
