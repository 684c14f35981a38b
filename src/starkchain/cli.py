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

import numpy as np

from . import __version__
from .analysis import boundary_peak, linear_fit, wsl_length_from_boundary
from .config import (EXPERIMENTS, _excitation_range, _f_label, _time_points,
                     parse_config, read_config)
from .device import ANGULAR_PER_MHZ, PotentialSpec
from .dynamics import (evolve_lindblad, evolve_unitary, make_collapse_ops,
                       prepare_initial_state)
from .errors import (ConfigError, DomainError, FitDomainError,
                     NoWavefrontError, StarkchainError)
from .measurement import ConfusionMatrix, group_means, sample_shots
from .model import (_basis_states, build_observable, build_sector_basis,
                    build_xy_hamiltonian)
from .observables import trajectory

CSV_FORMAT = "%.9g"


def _potential_for(f_mhz):
    # descending ramp; see the module docstring
    return PotentialSpec.linear(-abs(float(f_mhz)))


def _derive_seeds(base, f_index, n_snapshots, setting):
    """The Philox key of each snapshot of one gradient and setting: key k is
    word k of SeedSequence(entropy=base, spawn_key=(f_index, setting))
    .generate_state(n_snapshots, np.uint64), a word that does not depend on
    n_snapshots. Returns a uint64 array."""
    seq = np.random.SeedSequence(base, spawn_key=(f_index, setting))
    return seq.generate_state(n_snapshots, np.uint64)


def _write_atomic(path, text):
    # the output directory is made with its first file, so a run that fails
    # before writing anything leaves no directory behind
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(key, keys, columns, errors=None):
    """Header key + names, one row per entry of keys; an error column
    directly follows its value. The whole table is formatted in one
    operation, as CSV_FORMAT % v of each value would format it."""
    errors = errors or {}
    header, table = [key], [keys]
    for name in columns:
        header.append(name)
        table.append(columns[name])
        if name in errors:
            header.append(name + "_err")
            table.append(errors[name])
    row = ",".join([CSV_FORMAT] * len(table)) + "\n"
    values = np.column_stack(table).ravel().tolist()
    return ",".join(header) + "\n" + (row * len(keys)) % tuple(values)


def _confusion_list(config):
    return config.readout or (ConfusionMatrix.perfect(),) * config.device.n_qubits


def _times(config):
    dt = config.dt_sample_ns
    return dt * np.arange(_time_points(config.t_max_ns, dt))


def _route(config, potential, noise):
    """The one place that picks a solver space for a run: the product states
    whose excitation count lies in the range its start reaches
    (config._excitation_range), which holds the exact dynamics. For one
    excitation, ideal, the block is the single-particle matrix.
    Returns (hamiltonian, initial state, basis, collapse set or None).
    """
    params = config.device
    n = params.n_qubits
    spec = config.initial_state
    basis = build_sector_basis(n, _excitation_range(spec, noise))
    h = build_xy_hamiltonian(params, potential, basis=basis)
    state = prepare_initial_state(spec, n, basis=basis)
    collapse = None
    if noise == "lindblad":
        collapse = make_collapse_ops(params, config.dephasing, basis)
    return h, state, basis, collapse


def _exact(config, potential, noise, kind, indices):
    """Exact columns {name: values} of one observable kind; indices maps
    column name -> site or bond index."""
    h, state, basis, collapse = _route(config, potential, noise)
    ops = {
        name: build_observable(kind, j, config.device, basis=basis)
        for name, j in indices.items()
    }
    return trajectory(h, state, _times(config), ops, collapse=collapse)


def _sampled(config, potential, f_index, settings):
    """Group means (nt, n_groups) per estimator name, over every setting.

    settings: (measurement basis, estimator names) pairs, sampled on the
    same snapshots, which the sampler reads as the solver returns them,
    with the full-space index of each basis state in basis order; each
    setting takes an equal share of the plan's shots, and the groups of
    snapshot k are drawn from key k of the (seed, gradient, setting)
    sequence. One sample_shots call per setting covers every snapshot, and
    one group_means call estimates all its names; the record's groups run
    snapshot by snapshot, so each estimator's group means reshape to
    (nt, n_groups).
    """
    h, state, basis, collapse = _route(config, potential, config.noise)
    support = _basis_states(basis, basis.n_sites)[0]
    if collapse is None:
        data = evolve_unitary(h, state, _times(config))
    else:
        data = evolve_lindblad(h, state, _times(config), collapse)
    confusion = _confusion_list(config)
    correct = confusion if config.readout_correction else None
    plan = config.shots
    n_shots = plan.n_shots // len(settings)
    shape = (len(data), plan.n_groups)
    out = {}
    for setting, (meas_basis, estimators) in enumerate(settings):
        seeds = _derive_seeds(plan.seed, f_index, len(data), setting)
        rec = sample_shots(data, confusion, meas_basis, n_shots, seeds,
                           n_groups=plan.n_groups, support=support)
        means = group_means(rec, estimators, confusion=correct)
        out.update({name: means[:, k].reshape(shape)
                    for k, name in enumerate(estimators)})
    return out


def _bond_setting(basis, bonds):
    """A measurement basis and its bond estimators, each named by the basis
    letters on the bond plus the bond index ('XY1', 'YX2', ...)."""
    return basis, [basis[b - 1:b + 1] + str(b) for b in bonds]


def _mean_err(per_group):
    """Columns and error bars from per-group estimates (nt, n_groups); one
    group has no spread, so no error bars (only wsl_scan accepts one)."""
    cols = {k: v.mean(axis=1) for k, v in per_group.items()}
    errs = {k: v.std(axis=1, ddof=1) for k, v in per_group.items()
            if v.shape[1] > 1}
    return cols, errs


def _per_gradient(config, out_dir, columns):
    """One CSV per gradient; columns(config, f_index, potential) -> (cols, errs)."""
    times = _times(config)
    outputs = []
    for i, f in enumerate(config.gradients_mhz):
        cols, errs = columns(config, i, _potential_for(f))
        name = f"{config.experiment}_F{_f_label(f)}.csv"
        _write_atomic(os.path.join(out_dir, name),
                      _csv_text("t_ns", times, cols, errs))
        outputs.append(name)
    return outputs


def _densities(config, f_index, potential, sites):
    """Site-density columns; sites maps column name -> site."""
    if config.shots is None:
        return _exact(config, potential, config.noise, "density", sites), {}
    n = config.device.n_qubits
    return _mean_err(_sampled(config, potential, f_index,
                              [("Z" * n, list(sites))]))


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
    got = _sampled(config, potential, f_index,
                   [_bond_setting(axis * n, bonds) for axis in "XY"])
    g_mhz = config.device.coupling_mhz
    return _mean_err({
        f"K{b}": 0.5 * g_mhz[b - 1] * (got[f"XX{b}"] + got[f"YY{b}"])
        for b in bonds
    })


def _spin_current(config, f_index, potential):
    n = config.device.n_qubits
    bonds = range(1, n)
    if config.shots is None:
        return _exact(config, potential, config.noise, "spin_current",
                      {f"J{b}": b for b in bonds}), {}
    # the two settings XYXY... and YXYX... measure XY and YX on every bond
    got = _sampled(config, potential, f_index, [
        _bond_setting("".join(a if q % 2 == 0 else b for q in range(n)), bonds)
        for a, b in ("XY", "YX")])
    return _mean_err({f"J{b}": 0.5 * (got[f"XY{b}"] - got[f"YX{b}"])
                      for b in bonds})


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
        try:
            peak = boundary_peak(times, cols[f"P{n}"],
                                 "wavefront" if theory_mode else "gaussian")
            xi = wsl_length_from_boundary(peak, n - 1)
        except NoWavefrontError as exc:
            raise NoWavefrontError(
                f"{exc} at F[{f_index}] = {f:g} MHz; t_max = "
                f"{config.t_max_ns:g} ns may be too short for it") from exc
        except (DomainError, FitDomainError) as exc:  # a series, fit or peak
            raise type(exc)(f"{exc} at F[{f_index}] = {f:g} MHz") from exc
        rows.append((peak, np.log(peak), xi))
    scan = dict(zip(("p5max", "ln_p5max", "xi_boundary"), zip(*rows)))
    name = "wsl_scan.csv"
    _write_atomic(os.path.join(out_dir, name),
                  _csv_text("F_mhz", config.gradients_mhz, scan))
    fits = {}
    if len(rows) >= 2:
        fit = linear_fit(config.gradients_mhz, scan["ln_p5max"])
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
    # the directory is made with the first file; its nearest existing
    # ancestor must be a directory, checked before anything is computed
    base = os.path.abspath(out_dir)
    while not os.path.lexists(base):
        base = os.path.dirname(base)
    if not os.path.isdir(base):
        raise ConfigError(f"output_dir: {base} exists and is not a directory")
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
            "starkchain": __version__,
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
        # flags act on the raw mapping, so every device-derived default,
        # such as the initial state, follows the new device
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
            config, shots=dataclasses.replace(config.shots, seed=args.seed))
    return config


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            if not args.config:
                # one error line, as every refused run ends, not the usage
                parser.exit(2, "error: --config: validate needs a config file\n")
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
