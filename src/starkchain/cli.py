"""Experiment runner: config in, deterministic CSV/JSON artifacts out.

Ramp orientation: the device's work-point ladder descends along the qubit
labeling (the chain is labeled in order of decreasing frequency), so every
experiment here builds the linear potential with a negative gradient,
h_j = -F * j up to a gauge constant. Occupation and current observables from
computational-basis initial states are provably identical under either
orientation (the test suite asserts this); the edge-coherent thermal initial
state is the one case that resolves it, and the descending ramp is the one
that reproduces the observed edge localization.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from importlib import metadata

import numpy as np

from .analysis import (
    first_wavefront_peak,
    gaussian_fit_wavefront,
    linear_fit,
    wsl_length_from_boundary,
)
from .config import EXPERIMENTS, ShotPlan, parse_config, read_config
from .device import ANGULAR_PER_MHZ, PotentialSpec
from .dynamics import (
    evolve_lindblad,
    evolve_unitary,
    make_collapse_ops,
    prepare_initial_state,
    QuantumState,
)
from .errors import ConfigError, StarkchainError
from .measurement import ConfusionMatrix, group_means, sample_shots
from .model import build_observable, build_sector_basis, build_xy_hamiltonian
from .observables import trajectory

CSV_FORMAT = "%.9g"


def _version():
    try:
        return metadata.version("starkchain")
    except metadata.PackageNotFoundError:
        return "0+unknown"


def _potential_for(f_mhz):
    # descending ramp; see the module docstring
    return PotentialSpec.linear(-abs(float(f_mhz)))


def _derive_seed(base, *key):
    seq = np.random.SeedSequence(
        entropy=int(base), spawn_key=tuple(int(k) for k in key)
    )
    return int(seq.generate_state(1, np.uint64)[0])


def _f_label(f):
    return ("%g" % float(f)).replace(".", "p").replace("-", "m")


def _write_atomic(path, text):
    # the output directory is made with its first file, so a run that fails
    # before writing anything leaves no directory behind
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(times, columns, errors=None):
    """Header 't_ns' + names; an error column directly follows its value."""
    errors = errors or {}
    header = ["t_ns"]
    for name in columns:
        header.append(name)
        if name in errors:
            header.append(name + "_err")
    lines = [",".join(header)]
    for i, t in enumerate(times):
        row = [CSV_FORMAT % t]
        for name in columns:
            row.append(CSV_FORMAT % columns[name][i])
            if name in errors:
                row.append(CSV_FORMAT % errors[name][i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _confusion_list(config):
    if config.readout is None:
        return [ConfusionMatrix.perfect() for _ in range(config.device.n_qubits)]
    return [ConfusionMatrix(f0=f0, f1=f1) for f0, f1 in config.readout]


def _times(config):
    return np.arange(0.0, config.t_max_ns + 1e-9, config.dt_sample_ns)


def _route(config, potential, noise):
    """The one place that picks a solver space for a run.

    Ideal, shot-free runs from a 0/1 product state evolve in that state's
    excitation sector: the XY chain conserves excitation number, and for one
    excitation the block is the single-particle matrix. Everything else
    (Lindblad runs, shot runs, whose sampler reads full-space states, and
    X+/X- product states) uses the full 2^n space.
    Returns (hamiltonian, initial state, sector basis or None, collapse set or
    None).
    """
    params = config.device
    n = params.n_qubits
    spec = config.initial_state
    basis = None
    if noise == "ideal" and config.shots is None and set(spec) <= {"0", "1"}:
        basis = build_sector_basis(n, spec.count("1"))
    h = build_xy_hamiltonian(params, potential, basis=basis)
    state = prepare_initial_state(spec, n, basis=basis)
    collapse = None
    if noise == "lindblad":
        collapse = make_collapse_ops(params, dephasing=config.dephasing)
    return h, state, basis, collapse


def _exact(config, potential, noise, kind, indices):
    """Exact columns {name: values} of one observable kind; indices maps
    column name -> site or bond index."""
    h, state, basis, collapse = _route(config, potential, noise)
    ops = {
        name: build_observable(kind, j, config.device, basis=basis)
        for name, j in indices.items()
    }
    return trajectory(h, state, _times(config), ops, collapse=collapse).columns


def _sampled(config, potential, f_index, settings):
    """Group means (nt, n_groups) per estimator, one dict per setting.

    settings: (measurement basis, estimator names, shots) triples, sampled on
    the same full-space snapshots; the shots of each snapshot are drawn from
    a seed keyed by (seed, gradient, snapshot, setting). One sample_shots
    call per setting covers every snapshot; its record's groups run
    snapshot by snapshot, so each estimator's group means reshape to
    (nt, n_groups).
    """
    h, state, _, collapse = _route(config, potential, config.noise)
    times = _times(config)
    if collapse is None:
        data = evolve_unitary(h, state, times)
    else:
        data = evolve_lindblad(h, state, times, collapse)
    states = [QuantumState(d, h.basis_tag) for d in data]
    confusion = _confusion_list(config)
    correct = confusion if config.readout_correction else None
    plan = config.shots
    shape = (len(states), plan.n_groups)
    out = []
    for setting, (meas_basis, estimators, n_shots) in enumerate(settings):
        seeds = [_derive_seed(plan.seed, f_index, k, setting)
                 for k in range(len(states))]
        rec = sample_shots(states, confusion, meas_basis, n_shots, seeds,
                           n_groups=plan.n_groups)
        out.append({name: group_means(rec, name, confusion=correct)
                    .reshape(shape) for name in estimators})
    return out


def _mean_err(per_group):
    """Columns and error bars from per-group estimates (nt, n_groups)."""
    cols = {k: v.mean(axis=1) for k, v in per_group.items()}
    errs = {k: v.std(axis=1, ddof=1) for k, v in per_group.items()}
    return cols, errs


def _per_gradient(config, out_dir, columns):
    """One CSV per gradient; columns(config, f_index, potential) -> (cols, errs)."""
    times = _times(config)
    outputs = []
    for i, f in enumerate(config.gradients_mhz):
        cols, errs = columns(config, i, _potential_for(f))
        name = f"{config.experiment}_F{_f_label(f)}.csv"
        _write_atomic(os.path.join(out_dir, name), _csv_text(times, cols, errs))
        outputs.append(name)
    return outputs


def _densities(config, f_index, potential, sites):
    """Site-density columns; sites maps column name -> site."""
    if config.shots is None:
        return _exact(config, potential, config.noise, "density", sites), {}
    n = config.device.n_qubits
    (per_site,) = _sampled(config, potential, f_index,
                           [("Z" * n, list(sites), config.shots.n_shots)])
    return _mean_err(per_site)


def _all_sites(config):
    return {f"P{j}": j for j in range(1, config.device.n_qubits + 1)}


def _spin_transport(config, f_index, potential):
    return _densities(config, f_index, potential, _all_sites(config))


def _thermal_transport(config, f_index, potential):
    n = config.device.n_qubits
    bonds = (1, n - 1)
    if config.shots is None:
        raw = _exact(config, potential, config.noise, "kinetic",
                     {f"K{b}": b for b in bonds})
        # rad/ns -> ordinary-frequency MHz units (value of K/2pi)
        return {k: v / ANGULAR_PER_MHZ for k, v in raw.items()}, {}
    half = config.shots.n_shots // 2
    xx, yy = _sampled(config, potential, f_index, [
        ("X" * n, [f"XX{b}" for b in bonds], half),
        ("Y" * n, [f"YY{b}" for b in bonds], half),
    ])
    g_mhz = config.device.coupling_mhz
    return _mean_err({
        f"K{b}": 0.5 * g_mhz[b - 1] * (xx[f"XX{b}"] + yy[f"YY{b}"])
        for b in bonds
    })


def _spin_current(config, f_index, potential):
    n = config.device.n_qubits
    bonds = range(1, n)
    if config.shots is None:
        return _exact(config, potential, config.noise, "spin_current",
                      {f"J{b}": b for b in bonds}), {}
    half = config.shots.n_shots // 2
    # setting A: XYXY...; setting B: YXYX...
    basis_a = "".join("X" if q % 2 == 0 else "Y" for q in range(n))
    basis_b = "".join("Y" if q % 2 == 0 else "X" for q in range(n))
    est_a = [("XY" if b % 2 == 1 else "YX") + str(b) for b in bonds]
    est_b = [("YX" if b % 2 == 1 else "XY") + str(b) for b in bonds]
    got_a, got_b = _sampled(config, potential, f_index,
                            [(basis_a, est_a, half), (basis_b, est_b, half)])
    per_group = {}
    for b in bonds:
        if b % 2 == 1:
            xy, yx = got_a[f"XY{b}"], got_b[f"YX{b}"]
        else:
            xy, yx = got_b[f"XY{b}"], got_a[f"YX{b}"]
        per_group[f"J{b}"] = 0.5 * (xy - yx)
    return _mean_err(per_group)


def _decoherence_check(config, f_index, potential):
    sites = _all_sites(config)
    ideal = _exact(config, potential, "ideal", "density", sites)
    lind = _exact(config, potential, "lindblad", "density", sites)
    cols = {}
    for name in sites:
        cols[f"{name}_ideal"] = ideal[name]
        cols[f"{name}_lindblad"] = lind[name]
    return cols, {}


def _run_wsl_scan(config, out_dir):
    n = config.device.n_qubits
    theory_mode = config.noise == "ideal" and config.shots is None
    times = _times(config)
    rows = []
    for f_index, f in enumerate(config.gradients_mhz):
        # the boundary column of spin_transport: same seeds, same values
        cols, _ = _densities(config, f_index, _potential_for(f), {f"P{n}": n})
        p5 = cols[f"P{n}"]
        if theory_mode:
            peak = first_wavefront_peak(p5)
        else:
            peak = gaussian_fit_wavefront(times, np.clip(p5, 0.0, 1.0)) \
                .parameters["amplitude"]
        xi_est = wsl_length_from_boundary(peak, n - 1)
        rows.append((f, peak, np.log(peak), xi_est))
    header = "F_mhz,p5max,ln_p5max,xi_boundary"
    lines = [header]
    for row in rows:
        lines.append(",".join(CSV_FORMAT % v for v in row))
    name = "wsl_scan.csv"
    _write_atomic(os.path.join(out_dir, name), "\n".join(lines) + "\n")
    fits = {}
    if len(rows) >= 2:
        fit = linear_fit([r[0] for r in rows], [r[2] for r in rows])
        fits["ln_p5max_vs_F"] = {
            "slope": fit.parameters["slope"],
            "intercept": fit.parameters["intercept"],
            "slope_stderr": fit.stderr["slope"],
            "r_squared": fit.r_squared,
            "extraction": "wavefront" if theory_mode else "gaussian",
        }
    return [name], fits


# per-gradient experiments: their columns; wsl_scan writes one scan table
_COLUMNS = {
    "spin_transport": _spin_transport,
    "thermal_transport": _thermal_transport,
    "spin_current": _spin_current,
    "decoherence_check": _decoherence_check,
}


def run(config, out_dir=None):
    """Execute one experiment; returns the summary dict it also writes."""
    out_dir = out_dir or config.output_dir
    if config.experiment == "wsl_scan":
        outputs, fits = _run_wsl_scan(config, out_dir)
    else:
        outputs = _per_gradient(config, out_dir, _COLUMNS[config.experiment])
        fits = {}
    normalized = config.normalized()
    # provenance of the physics: where the files go does not change the hash
    physics = {k: v for k, v in normalized.items() if k != "output_dir"}
    canonical = json.dumps(physics, sort_keys=True, separators=(",", ":"))
    summary = {
        "experiment": config.experiment,
        "config": normalized,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": None if config.shots is None else config.shots.seed,
        "outputs": sorted(outputs),
        "fits": fits,
        "versions": {
            "starkchain": _version(),
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    _write_atomic(os.path.join(out_dir, "summary.json"), text)
    return summary


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="starkchain",
        description="Tilted-chain transport experiments: simulate, sample, fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS + ("validate",):
        p = sub.add_parser(name, help=f"run the {name} experiment"
                           if name != "validate" else "check a config file")
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="shot seed (overrides config)")
        p.add_argument("--preset", help="device preset name, e.g. paper-device")
    return parser


def _load(args, default_experiment):
    raw = read_config(args.config) if args.config else None
    if raw is None:
        raw = {}
    if isinstance(raw, dict):
        # flags act on the raw mapping, so the preset's readout table and
        # every other device-derived default follow the new device
        raw = dict(raw)
        if args.preset:
            raw["device"] = args.preset
        if args.out:
            raw["output_dir"] = args.out
    config = parse_config(raw, default_experiment=default_experiment)
    if default_experiment and config.experiment != default_experiment:
        raise ConfigError(
            f"config names experiment {config.experiment!r} but the "
            f"subcommand is {default_experiment!r}"
        )
    if args.seed is not None:
        if config.shots is None:
            raise ConfigError("--seed: this run samples no shots (shots: none)")
        config = dataclasses.replace(
            config, shots=ShotPlan(
                n_shots=config.shots.n_shots,
                n_groups=config.shots.n_groups,
                seed=args.seed,
            )
        )
    return config


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            if not args.config:
                parser.error("validate requires --config")
            config = _load(args, None)
            print(json.dumps(config.normalized(), sort_keys=True, indent=2))
            return 0
        config = _load(args, args.command)
        summary = run(config)
        print(f"wrote {len(summary['outputs'])} file(s) + summary.json to "
              f"{config.output_dir}")
        return 0
    except StarkchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
