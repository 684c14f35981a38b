"""Experiment configuration: YAML in, validated ExperimentConfig out.

The file format is nested key-value YAML. Unknown keys anywhere are
rejected with their full field path so typos never silently fall back to a
default.
"""

import math
from dataclasses import dataclass, field
from functools import partial

from .device import (_FIDELITY, _POSITIVE, ANGULAR_PER_MHZ, TABLE_S1,
                     ConfusionMatrix, DeviceParams, _integer, _real,
                     device_preset)
from .errors import ConfigError, DomainError, StateSpecError

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

# cap on shots.n_shots: far above the paper's 600 and 2000, and low enough
# that every count and every sum of counts stays an exact int64 and float64
MAX_SHOTS = 10 ** 9

# cap on the outcome counts a shot run holds at once (_count_entries): 2^26
# int64 entries are 512 MiB. The paper's runs hold 151 x 10 x 2^5; an ideal
# spin_transport with paper shots fits up to 16 qubits on the paper grid.
# A run's snapshot stack is held to it too, 2^26 complex entries being
# 1 GiB: snapshots x s for an ideal run on s basis states, "X+" on up to 18
# qubits on the paper grid, and snapshots x s^2 for a Lindblad run, up to
# 666 states on the paper grid.
MAX_COUNT_ENTRIES = 1 << 26
# basis states of a Lindblad run, ten qubits' worth: the bound on its generator
LINDBLAD_SUPPORT_CAP = 1024

_TWO_SETTING = {"thermal_transport", "spin_current"}
# experiments whose CSVs carry an _err column next to each sampled value
_ERROR_BARS = _TWO_SETTING | {"spin_transport"}


def _f_label(f):
    """A gradient's tag in the name of its CSV: 15 -> '15', 7.5 -> '7p5'."""
    return ("%g" % float(f)).replace(".", "p").replace("-", "m")


def _default_initial(experiment, n_qubits):
    """One excitation on site 1 ("10000"); the thermal run starts from the
    edge-coherent state ("X+X+000")."""
    if experiment == "thermal_transport":
        return "X+X+" + "0" * (n_qubits - 2)
    return "1" + "0" * (n_qubits - 1)


def _tokenize_state_spec(spec):
    """The per-site tokens of a product-state spec ('0', '1', 'X+', 'X-'):
    the one grammar of parse_config and prepare_initial_state."""
    if not isinstance(spec, str):
        raise StateSpecError(f"state spec must be a string, got {spec!r}")
    tokens = []
    i = 0
    while i < len(spec):
        ch = spec[i]
        if ch in "01":
            tokens.append(ch)
            i += 1
        elif ch == "X":
            if i + 1 >= len(spec) or spec[i + 1] not in "+-":
                raise StateSpecError(f"dangling 'X' at position {i} in {spec!r}")
            tokens.append(spec[i:i + 2])
            i += 2
        else:
            raise StateSpecError(f"unknown token {ch!r} at position {i} in {spec!r}")
    return tokens


@dataclass(frozen=True)
class ShotPlan:
    n_shots: int
    n_groups: int
    seed: int

    def __post_init__(self):
        # checked here so a --seed override is held to them too
        if self.n_shots < 1:
            raise ConfigError(f"shots.n_shots: must be >= 1, got {self.n_shots}")
        if self.n_shots > MAX_SHOTS:
            raise ConfigError(f"shots.n_shots: must be <= {MAX_SHOTS}, "
                              f"got {self.n_shots}")
        if self.n_groups < 1:
            raise ConfigError(f"shots.n_groups: must be >= 1, got {self.n_groups}")
        if self.n_shots % self.n_groups != 0:
            raise ConfigError(f"shots.n_shots: {self.n_shots} not divisible "
                              f"by n_groups {self.n_groups}")
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
    readout: tuple | None  # a ConfusionMatrix per qubit, None = perfect
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
                **{name: list(getattr(self.device, name)) for name in (
                    "coupling_mhz", "anharmonicity_mhz", "t1_us", "t2star_us")},
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
                {"f0": c.f0, "f1": c.f1} for c in self.readout
            ],
            "readout_correction": self.readout_correction,
            "output_dir": self.output_dir,
        }


def _excitation_range(spec, noise):
    """The excitation counts (lo, hi) a run from spec reaches: the XY chain
    keeps the count, the Lindblad jumps (s-, n) only lower or keep it."""
    ones = spec.count("1")
    return 0 if noise == "lindblad" else ones, ones + spec.count("X")


def _basis_size(n_qubits, counts):
    return sum(math.comb(n_qubits, k) for k in range(counts[0], counts[1] + 1))


def _time_points(t_max_ns, dt_sample_ns):
    """Points of the time grid dt_sample * arange(points) up to t_max, and
    past it by at most 1e-9 dt_sample, a rounding; inf past the float range."""
    ratio = t_max_ns / dt_sample_ns + 1e-9
    return math.floor(ratio) + 1 if ratio < math.inf else math.inf


def _count_entries(n_qubits, t_max_ns, dt_sample_ns, n_groups):
    """Outcome counts one measurement setting of a shot run holds: one per
    point of the time grid, group and outcome of n_qubits qubits."""
    return _time_points(t_max_ns, dt_sample_ns) * n_groups << n_qubits


def _reject_unknown(mapping, allowed, path):
    unknown = sorted(set(mapping) - set(allowed), key=str)
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys {unknown}; allowed: {sorted(allowed)}"
        )


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


# _as_number(value, path, rule=None): a float under the device's number rule
_as_number = partial(_real, error=ConfigError)
# _as_int(value, path): an int under the device's count rule
_as_int = partial(_integer, error=ConfigError)


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
        "t1_us", "t2star_us",
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
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
        table = tuple(ConfusionMatrix(f0, f1) for f0, f1 in TABLE_S1)
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
            out.append(ConfusionMatrix(*(
                _as_number(entry[name], f"{p}.{name}", _FIDELITY)
                for name in ("f0", "f1"))))
        table = tuple(out)
    else:
        raise ConfigError(f"{path}: expected 'perfect', 'table-s1', or a list")
    for q, matrix in enumerate(table):
        _require(not (correction and matrix.is_singular),
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
    labels = [_f_label(f) for f in gradients]
    for i, (f, label) in enumerate(zip(gradients, labels)):
        _require(f >= 0, f"F[{i}]", "gradient magnitudes must be >= 0")
        # the scan fits ln(P5max) against F and reads a length off each F
        _require(f > 0 or experiment != "wsl_scan", f"F[{i}]",
                 "wsl_scan needs gradient magnitudes > 0")
        # each other experiment writes one CSV per gradient, named by label
        _require(experiment == "wsl_scan" or label not in labels[:i],
                 f"F[{i}]", f"{f!r} shares the file label F{label} with "
                 f"F[{labels.index(label)}]")
        _require(experiment != "wsl_scan" or f not in gradients[:i], f"F[{i}]",
                 f"{f!r} repeats F[{gradients.index(f)}]; wsl_scan fits "
                 f"ln(P5max) against distinct gradients")

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

    t_max = _as_number(raw.get("t_max", 300.0), "t_max", _POSITIVE)
    dt = _as_number(raw.get("dt_sample", 2.0), "dt_sample", _POSITIVE)
    _require(dt <= t_max, "dt_sample", "must not exceed t_max")
    _require(_time_points(t_max, dt) <= MAX_TIME_POINTS, "t_max",
             f"{t_max:g} ns at dt_sample {dt:g} ns gives more than "
             f"{MAX_TIME_POINTS} time points")

    noise = raw.get("noise", "ideal")
    _require(noise in ("ideal", "lindblad"), "noise",
             f"expected 'ideal' or 'lindblad', got {noise!r}")
    dephasing = raw.get("dephasing", "as-given")
    _require(dephasing in ("as-given", "pure"), "dephasing",
             f"expected 'as-given' or 'pure', got {dephasing!r}")
    # the precision rule: a phase lambda t is held to about |lambda| t 2^-53,
    # so the largest |H| entry times t_max is kept to 1e6 rad, and phases to
    # about 1e-10 rad. That entry is a coupling, or a gradient times the sum
    # of the site indices 1..n of the `top` highest sites, top the most
    # excitations the run holds; the field that sets the largest is named
    top = _excitation_range(initial, noise)[1]
    sites = top * (2 * device.n_qubits - top + 1) / 2
    entry, name = max([(max(map(abs, device.coupling_mhz)), "device.coupling_mhz")]
                      + [(abs(f) * sites, f"F[{i}]") for i, f in enumerate(gradients)],
                      key=lambda item: item[0])
    _require(entry * ANGULAR_PER_MHZ <= 1e6 / t_max, name,
             f"an |H| entry of {entry * ANGULAR_PER_MHZ:.3g} rad/ns times t_max "
             f"= {t_max:g} ns exceeds the 1e6 rad that keeps phases accurate "
             f"to about 1e-10 rad")

    paper = noise == "lindblad" and experiment != "decoherence_check"
    shots_raw = raw.get("shots", "paper" if paper else "none")
    shots = _parse_shots(shots_raw, experiment)
    if experiment == "decoherence_check" and shots is not None:
        raise ConfigError(
            "shots: decoherence_check compares exact expectations; set 'none'"
        )
    if shots is not None:
        entries = _count_entries(device.n_qubits, t_max, dt, shots.n_groups)
        _require(entries <= MAX_COUNT_ENTRIES, "device.n_qubits",
                 f"a shot run on {device.n_qubits} qubits holds {entries} "
                 f"outcome counts (snapshots x n_groups x 2^n), above the "
                 f"budget of {MAX_COUNT_ENTRIES}")
    # the basis and the snapshot stack of each noise model the run evolves
    # under: state vectors, or density matrices, whose generator is capped
    # on the basis
    for model in (("ideal", "lindblad") if experiment == "decoherence_check"
                  else (noise,)):
        size = _basis_size(device.n_qubits, _excitation_range(initial, model))
        holds = (f"the {model} run on {device.n_qubits} qubits from this "
                 f"initial_state holds")
        lindblad = model == "lindblad"
        _require(not lindblad or size <= LINDBLAD_SUPPORT_CAP, "device.n_qubits",
                 f"{holds} {size} basis states, above the budget of "
                 f"{LINDBLAD_SUPPORT_CAP}")
        held = _count_entries(0, t_max, dt, 1) * size ** (1 + lindblad)
        _require(held <= MAX_COUNT_ENTRIES, "device.n_qubits",
                 f"{holds} {held} entries (snapshots x basis states"
                 f"{'^2' if lindblad else ''}), above the budget of "
                 f"{MAX_COUNT_ENTRIES}")

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


def _refuse_repeated_keys(node, path="", seen=None):
    """ConfigError naming the first key a YAML mapping gives twice, at any
    depth of the composed node tree, with the lines of both."""
    seen = set() if seen is None else seen
    if id(node) in seen:  # an alias of a node already walked
        return
    seen.add(id(node))
    if node.id == "sequence":
        for i, item in enumerate(node.value):
            _refuse_repeated_keys(item, f"{path}[{i}]", seen)
    elif node.id == "mapping":
        lines = {}
        for key, value in node.value:
            if key.id != "scalar":  # the constructor refuses it as unhashable
                continue
            field_path = f"{path}.{key.value}" if path else key.value
            line = key.start_mark.line + 1
            if (key.tag, key.value) in lines:
                raise ConfigError(f"{field_path}: repeated key (lines "
                                  f"{lines[key.tag, key.value]} and {line})")
            lines[key.tag, key.value] = line
            _refuse_repeated_keys(value, field_path, seen)


def read_config(path):
    """The raw YAML mapping of a config file, before validation."""
    import re

    import yaml  # only a file read needs the parser

    class Loader(yaml.SafeLoader):
        def construct_document(self, node):
            _refuse_repeated_keys(node)
            return super().construct_document(node)

    # YAML 1.2's exponent floats (3e2, 1e-1): PyYAML's YAML 1.1 rule wants
    # a dot and a signed exponent, and reads these as strings
    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))

    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.load(fh, Loader=Loader)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8, ...
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {path}: {reason}") from None
    except yaml.YAMLError as exc:
        # one line: yaml's own text spreads the problem, its context and
        # their marks over several
        def at(mark):
            return f"line {mark.line + 1}, column {mark.column + 1}"

        mark = getattr(exc, "problem_mark", None)
        where = "" if mark is None else f" at {at(mark)}"
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        context = getattr(exc, "context", None)
        if context:
            opened = getattr(exc, "context_mark", None)
            if opened is not None and (mark is None or at(opened) != at(mark)):
                context += f" ({at(opened)})"
            problem = f"{context}: {problem}"
        raise ConfigError(
            f"config parse error in {path}{where}: {problem}") from exc
    except RecursionError:  # yaml composes one nesting level per call
        raise ConfigError(
            f"config parse error in {path}: nested too deeply") from None


def load_config(path, default_experiment=None):
    return parse_config(read_config(path), default_experiment=default_experiment)
