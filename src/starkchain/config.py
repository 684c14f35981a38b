"""Experiment configuration: YAML in, validated ExperimentConfig out.

The file format is nested key-value YAML. Unknown keys anywhere are
rejected with their full field path so typos never silently fall back to a
default.
"""

import math
from dataclasses import dataclass, field

import yaml

from .device import DeviceParams, device_preset
from .dynamics import _tokenize_state_spec
from .errors import ConfigError, DomainError, StateSpecError
from .measurement import ConfusionMatrix

EXPERIMENTS = (
    "spin_transport",
    "wsl_scan",
    "thermal_transport",
    "spin_current",
    "decoherence_check",
)

# Methods convention: single-qubit observables average 6 groups x 100 shots;
# the two-setting correlator experiments use 10 groups x 200 shots total.
PAPER_SHOTS_SINGLE = (600, 6)
PAPER_SHOTS_TWO_SETTING = (2000, 10)

DEFAULT_SCAN_GRID_MHZ = (5.0, 7.5, 10.0, 12.5, 15.0)

MAX_TIME_POINTS = 100_000  # cap on the time grid; the paper's has 151 points

MAX_QUBITS = 62  # a chain state is held as the bits of one int64

_TWO_SETTING = {"thermal_transport", "spin_current"}
# experiments whose CSVs carry an _err column next to each sampled value
_ERROR_BARS = _TWO_SETTING | {"spin_transport"}


def _default_initial(experiment, n_qubits):
    """One excitation on site 1 ("10000"); the thermal run starts from the
    edge-coherent state ("X+X+000")."""
    if experiment == "thermal_transport":
        return "X+X+" + "0" * (n_qubits - 2)
    return "1" + "0" * (n_qubits - 1)


@dataclass(frozen=True)
class ShotPlan:
    n_shots: int
    n_groups: int
    seed: int

    def __post_init__(self):
        if self.n_shots < 1 or self.n_groups < 1:
            raise ConfigError("shots: counts must be positive")
        if self.n_shots % self.n_groups != 0:
            raise ConfigError(
                f"shots: {self.n_shots} not divisible by {self.n_groups} groups"
            )
        # checked here so a --seed override is held to it too
        if self.seed < 0:
            raise ConfigError(f"shots.seed: must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    device: DeviceParams
    gradients_mhz: tuple
    initial_state: str
    t_max_ns: float
    dt_sample_ns: float
    noise: str
    dephasing: str
    shots: ShotPlan | None
    readout: tuple | None  # per-qubit (f0, f1), None = perfect
    readout_correction: bool
    output_dir: str
    preset_name: str | None = field(default=None)

    def normalized(self):
        """Plain-dict echo of the effective configuration (summary record)."""
        return {
            "experiment": self.experiment,
            "device": {
                "preset": self.preset_name,
                "n_qubits": self.device.n_qubits,
                "coupling_mhz": list(self.device.coupling_mhz),
                "anharmonicity_mhz": list(self.device.anharmonicity_mhz),
                "t1_us": list(self.device.t1_us),
                "t2star_us": list(self.device.t2star_us),
            },
            "F": list(self.gradients_mhz),
            "initial_state": self.initial_state,
            "t_max": self.t_max_ns,
            "dt_sample": self.dt_sample_ns,
            "noise": self.noise,
            "dephasing": self.dephasing,
            "shots": None if self.shots is None else {
                "n_shots": self.shots.n_shots,
                "n_groups": self.shots.n_groups,
                "seed": self.shots.seed,
            },
            "readout": "perfect" if self.readout is None else [
                {"f0": f0, "f1": f1} for f0, f1 in self.readout
            ],
            "readout_correction": self.readout_correction,
            "output_dir": self.output_dir,
        }


def _reject_unknown(mapping, allowed, path):
    unknown = sorted(set(mapping) - set(allowed), key=str)
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys {unknown}; allowed: {sorted(allowed)}"
        )


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _as_number(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{path}: must be finite, got {v}")
    if positive and v <= 0:
        raise ConfigError(f"{path}: must be positive, got {v}")
    return v


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _parse_device(raw, path="device"):
    """A preset or a uniform chain of n_qubits, then the listed overrides."""
    if raw is None:
        raw = "paper-device"
    if isinstance(raw, str):
        raw = {"preset": raw}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a preset name or a mapping")
    allowed = {
        "preset", "n_qubits", "coupling_mhz", "anharmonicity_mhz",
        "t1_us", "t2star_us", "readout_f0", "readout_f1",
    }
    _reject_unknown(raw, allowed, path)
    overrides = dict(raw)
    preset = overrides.pop("preset", None)
    if preset is not None:
        _require(isinstance(preset, str), f"{path}.preset",
                 f"expected a preset name, got {preset!r}")
        try:
            base = device_preset(preset)
        except DomainError as exc:
            raise ConfigError(f"{path}.preset: {exc}") from None
        _require("n_qubits" not in overrides, f"{path}.n_qubits",
                 "fixed by the preset")
    else:
        _require("n_qubits" in raw, path, "needs n_qubits (or a preset)")
        _require("coupling_mhz" in raw, path, "needs coupling_mhz (or a preset)")
        n = _as_int(overrides.pop("n_qubits"), f"{path}.n_qubits")
        _require(2 <= n <= MAX_QUBITS, f"{path}.n_qubits",
                 f"must be in 2..{MAX_QUBITS}, got {n}")
        base = DeviceParams.uniform(n)
    try:
        return base.replace(**overrides), preset
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_shots(raw, experiment, path="shots"):
    if raw is None or raw == "none":
        return None
    if raw == "paper":
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected 'none', 'paper', or a mapping")
    _reject_unknown(raw, {"n_shots", "n_groups", "seed"}, path)
    defaults = (PAPER_SHOTS_TWO_SETTING if experiment in _TWO_SETTING
                else PAPER_SHOTS_SINGLE) + (0,)
    n, groups, seed = (_as_int(raw.get(name, v), f"{path}.{name}")
                       for name, v in zip(("n_shots", "n_groups", "seed"), defaults))
    plan = ShotPlan(n_shots=n, n_groups=groups, seed=seed)
    # each of the two settings takes half the shots, grouped on its own
    half = n // 2
    _require(experiment not in _TWO_SETTING or (half and half % groups == 0),
             f"{path}.n_shots", f"{experiment} splits {n} shots into two "
             f"settings of {half}, which do not divide into {groups} groups")
    # an error bar is the spread of the group means
    _require(experiment not in _ERROR_BARS or groups >= 2, f"{path}.n_groups",
             f"{experiment} writes error bars, which need >= 2 groups, "
             f"got {groups}")
    return plan


def _parse_readout(raw, device, correction, path="readout"):
    if raw is None or raw == "perfect":
        return None
    if raw == "table-s1":
        _require(device.n_qubits == 5, path,
                 "the tabulated readout set is for the 5-qubit device")
        table = tuple(zip(device.readout_f0, device.readout_f1))
    elif isinstance(raw, list):
        _require(len(raw) == device.n_qubits, path,
                 f"need {device.n_qubits} per-qubit entries")
        out = []
        for q, entry in enumerate(raw):
            p = f"{path}[{q}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{p}: expected a mapping with f0, f1")
            _reject_unknown(entry, {"f0", "f1"}, p)
            _require("f0" in entry and "f1" in entry, p, "needs f0 and f1")
            f0 = _as_number(entry["f0"], f"{p}.f0")
            f1 = _as_number(entry["f1"], f"{p}.f1")
            for name, v in (("f0", f0), ("f1", f1)):
                _require(0.0 <= v <= 1.0, f"{p}.{name}", f"must be in [0, 1], got {v}")
            out.append((f0, f1))
        table = tuple(out)
    else:
        raise ConfigError(f"{path}: expected 'perfect', 'table-s1', or a list")
    for q, (f0, f1) in enumerate(table):
        _require(not (correction and ConfusionMatrix(f0=f0, f1=f1).is_singular),
                 f"{path}[{q}]", f"f0 + f1 = 1 gives a singular confusion "
                 f"matrix, which readout_correction cannot invert")
    return table


_TOP_KEYS = {
    "experiment", "device", "F", "initial_state", "t_max", "dt_sample",
    "noise", "dephasing", "shots", "readout", "readout_correction",
    "output_dir",
}


def parse_config(raw, default_experiment=None):
    """Validate a raw mapping into an ExperimentConfig with defaults filled."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown(raw, _TOP_KEYS, "config")
    experiment = raw.get("experiment", default_experiment)
    _require(experiment is not None, "experiment", "missing (no subcommand default)")
    _require(experiment in EXPERIMENTS, "experiment",
             f"unknown {experiment!r}; one of {list(EXPERIMENTS)}")
    device, preset_name = _parse_device(raw.get("device"))

    f_raw = raw.get("F")
    if f_raw is None:
        gradients = (DEFAULT_SCAN_GRID_MHZ if experiment == "wsl_scan"
                     else (15.0,))
    elif isinstance(f_raw, (int, float)) and not isinstance(f_raw, bool):
        gradients = (_as_number(f_raw, "F"),)
    elif isinstance(f_raw, list) and f_raw:
        gradients = tuple(_as_number(v, f"F[{i}]") for i, v in enumerate(f_raw))
    else:
        raise ConfigError("F: expected a number or a non-empty list of MHz values")
    for i, f in enumerate(gradients):
        _require(f >= 0, f"F[{i}]", "gradient magnitudes must be >= 0")
        # the scan fits ln(P5max) against F and reads a length off each F
        _require(f > 0 or experiment != "wsl_scan", f"F[{i}]",
                 "wsl_scan needs gradient magnitudes > 0")

    initial = raw.get("initial_state",
                      _default_initial(experiment, device.n_qubits))
    _require(isinstance(initial, str), "initial_state", "expected a string")
    try:
        sites = len(_tokenize_state_spec(initial))
    except StateSpecError as exc:
        raise ConfigError(f"initial_state: {exc}") from None
    _require(sites == device.n_qubits, "initial_state",
             f"{initial!r} describes {sites} sites, the device has "
             f"{device.n_qubits} qubits")

    t_max = _as_number(raw.get("t_max", 300.0), "t_max", positive=True)
    dt = _as_number(raw.get("dt_sample", 2.0), "dt_sample", positive=True)
    _require(dt <= t_max, "dt_sample", "must not exceed t_max")
    _require(t_max / dt < MAX_TIME_POINTS, "t_max",
             f"{t_max:g} ns at dt_sample {dt:g} ns gives more than "
             f"{MAX_TIME_POINTS} time points")

    noise = raw.get("noise", "ideal")
    _require(noise in ("ideal", "lindblad"), "noise",
             f"expected 'ideal' or 'lindblad', got {noise!r}")
    dephasing = raw.get("dephasing", "as-given")
    _require(dephasing in ("as-given", "pure"), "dephasing",
             f"expected 'as-given' or 'pure', got {dephasing!r}")

    shots_raw = raw.get("shots", "none" if noise == "ideal" else "paper")
    shots = _parse_shots(shots_raw, experiment)
    if experiment == "decoherence_check" and shots is not None:
        raise ConfigError(
            "shots: decoherence_check compares exact expectations; set 'none'"
        )

    correction = raw.get("readout_correction", False)
    if not isinstance(correction, bool):
        raise ConfigError("readout_correction: expected true/false")
    readout = _parse_readout(raw.get("readout"), device, correction)
    output_dir = raw.get("output_dir", "runs")
    _require(isinstance(output_dir, str) and output_dir, "output_dir",
             "expected a non-empty path")

    return ExperimentConfig(
        experiment=experiment,
        device=device,
        gradients_mhz=gradients,
        initial_state=initial,
        t_max_ns=t_max,
        dt_sample_ns=dt,
        noise=noise,
        dephasing=dephasing,
        shots=shots,
        readout=readout,
        readout_correction=correction,
        output_dir=output_dir,
        preset_name=preset_name,
    )


def read_config(path):
    """The raw YAML mapping of a config file, before validation."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc


def load_config(path, default_experiment=None):
    return parse_config(read_config(path), default_experiment=default_experiment)
