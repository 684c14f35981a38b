"""Config parsing: defaults, overrides and rejection paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starkchain import (
    ConfigError,
    ExperimentConfig,
    ShotPlan,
    load_config,
    parse_config,
)
from starkchain.config import EXPERIMENTS


class TestDefaults:
    def test_minimal_spin_transport(self):
        cfg = parse_config({"experiment": "spin_transport"})
        assert cfg.experiment == "spin_transport"
        assert cfg.preset_name == "paper-device"
        assert cfg.device.n_qubits == 5
        assert cfg.gradients_mhz == (15.0,)
        assert cfg.initial_state == "10000"
        assert cfg.t_max_ns == 300.0
        assert cfg.dt_sample_ns == 2.0
        assert cfg.noise == "ideal"
        assert cfg.shots is None  # ideal runs default to exact expectations
        assert cfg.readout is None
        assert cfg.readout_correction is False

    def test_wsl_scan_grid_default(self):
        cfg = parse_config({"experiment": "wsl_scan"})
        assert cfg.gradients_mhz == (5.0, 7.5, 10.0, 12.5, 15.0)

    def test_thermal_defaults(self):
        cfg = parse_config({"experiment": "thermal_transport"})
        assert cfg.initial_state == "X+X+000"

    def test_lindblad_defaults_to_paper_shots(self):
        cfg = parse_config({"experiment": "spin_transport", "noise": "lindblad"})
        assert cfg.shots == ShotPlan(n_shots=600, n_groups=6, seed=0)
        cfg2 = parse_config({"experiment": "thermal_transport", "noise": "lindblad"})
        # two-setting correlator experiments get the larger budget
        assert cfg2.shots == ShotPlan(n_shots=2000, n_groups=10, seed=0)

    def test_subcommand_default_experiment(self):
        cfg = parse_config({}, default_experiment="spin_current")
        assert cfg.experiment == "spin_current"
        with pytest.raises(ConfigError):
            parse_config({})


class TestGradients:
    def test_scalar_and_list(self):
        assert parse_config({"experiment": "spin_transport", "F": 10}).gradients_mhz == (10.0,)
        cfg = parse_config({"experiment": "wsl_scan", "F": [5, 10, 15]})
        assert cfg.gradients_mhz == (5.0, 10.0, 15.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match=r"F\[0\]"):
            parse_config({"experiment": "spin_transport", "F": -5})

    def test_bad_types(self):
        with pytest.raises(ConfigError):
            parse_config({"experiment": "spin_transport", "F": "fast"})
        with pytest.raises(ConfigError):
            parse_config({"experiment": "spin_transport", "F": []})
        with pytest.raises(ConfigError, match=r"F\[1\]"):
            parse_config({"experiment": "spin_transport", "F": [5, "x"]})


class TestUnknownKeys:
    def test_top_level_path(self):
        with pytest.raises(ConfigError, match="config: unknown keys"):
            parse_config({"experiment": "spin_transport", "gradient": 15})

    def test_nested_paths(self):
        with pytest.raises(ConfigError, match="device"):
            parse_config({"experiment": "spin_transport",
                          "device": {"preset": "paper-device", "temp_mk": 20}})
        with pytest.raises(ConfigError, match="shots"):
            parse_config({"experiment": "spin_transport", "noise": "lindblad",
                          "shots": {"count": 600}})
        with pytest.raises(ConfigError, match=r"readout\[0\]"):
            parse_config({"experiment": "spin_transport",
                          "readout": [{"f0": 0.9, "f1": 0.9, "f2": 0.9}] * 5})


class TestDevice:
    def test_preset_string(self):
        cfg = parse_config({"experiment": "spin_transport", "device": "paper-device"})
        assert cfg.preset_name == "paper-device"
        with pytest.raises(ConfigError):
            parse_config({"experiment": "spin_transport", "device": "other"})

    def test_preset_with_override(self):
        cfg = parse_config({
            "experiment": "spin_transport",
            "device": {"preset": "paper-device", "t1_us": [9, 9, 9, 9, 9]},
        })
        np.testing.assert_allclose(cfg.device.t1_us, 9.0)
        np.testing.assert_allclose(cfg.device.coupling_mhz, [14.60, 14.65, 14.17, 14.26])

    def test_preset_qubit_count_fixed(self):
        with pytest.raises(ConfigError, match="n_qubits"):
            parse_config({"experiment": "spin_transport",
                          "device": {"preset": "paper-device", "n_qubits": 7}})

    def test_explicit_chain(self):
        cfg = parse_config({
            "experiment": "spin_transport",
            "device": {"n_qubits": 3, "coupling_mhz": [5.0, 5.0]},
        })
        assert cfg.preset_name is None
        assert cfg.device.n_qubits == 3
        np.testing.assert_allclose(cfg.device.coupling_mhz, 5.0)

    def test_explicit_chain_needs_coupling(self):
        with pytest.raises(ConfigError, match="coupling_mhz"):
            parse_config({"experiment": "spin_transport", "device": {"n_qubits": 3}})

    @pytest.mark.parametrize("n_qubits", [2.5, "5", [], 1, True, 63, 2**63])
    def test_chain_length_is_a_yaml_integer(self, n_qubits):
        device = {"n_qubits": n_qubits, "coupling_mhz": [5.0]}
        with pytest.raises(ConfigError, match=r"^device\.n_qubits: "):
            parse_config({"experiment": "spin_transport", "device": device})

    @pytest.mark.parametrize("preset", [[], 5, {"a": 1}])
    def test_preset_name_is_a_string(self, preset):
        with pytest.raises(ConfigError, match=r"^device\.preset: "):
            parse_config({"experiment": "spin_transport",
                          "device": {"preset": preset}})

    def test_default_initial_state_follows_chain_length(self):
        device = {"n_qubits": 3, "coupling_mhz": [5.0, 5.0]}
        cfg = parse_config({"experiment": "spin_transport", "device": device})
        assert cfg.initial_state == "100"
        cfg = parse_config({"experiment": "thermal_transport", "device": device})
        assert cfg.initial_state == "X+X+0"


class TestInitialState:
    @pytest.mark.parametrize("spec, msg", [
        ("1002", "unknown token '2'"),
        ("100", "describes 3 sites, the device has 5"),
        ("X+X+0000", "describes 6 sites"),
        ("X1000", "dangling 'X'"),
    ])
    def test_checked_against_device(self, spec, msg):
        with pytest.raises(ConfigError, match=r"^initial_state: .*" + msg):
            parse_config({"experiment": "spin_transport", "initial_state": spec})


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ConfigError, match="t_max"):
            parse_config({"experiment": "spin_transport", "t_max": -10})
        with pytest.raises(ConfigError, match="t_max"):
            parse_config({"experiment": "spin_transport", "t_max": 0})
        with pytest.raises(ConfigError, match="dt_sample"):
            parse_config({"experiment": "spin_transport", "t_max": 10, "dt_sample": 20})
        with pytest.raises(ConfigError, match="t_max"):
            parse_config({"experiment": "spin_transport", "t_max": True})

    def test_time_point_cap(self):
        with pytest.raises(ConfigError, match=r"^t_max: .* more than 100000 time points"):
            parse_config({"experiment": "spin_transport", "t_max": 1.0e300})
        with pytest.raises(ConfigError, match="^t_max: "):
            parse_config({"experiment": "spin_transport", "t_max": 300.0,
                          "dt_sample": 1.0e-3})
        cfg = parse_config({"experiment": "spin_transport", "t_max": 300.0,
                            "dt_sample": 0.01})
        assert cfg.t_max_ns / cfg.dt_sample_ns == pytest.approx(30000)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(["F", "F[1]", "t_max", "dt_sample"]),
       value=st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]),
                       st.floats(), st.integers(), st.booleans(), st.text(),
                       st.none()))
def test_numbers_are_finite_or_refused(field, value):
    raw = {"experiment": "spin_transport"}
    if field == "F[1]":
        raw["F"] = [5.0, value]
    else:
        raw[field] = value
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    numbers = cfg.gradients_mhz + (cfg.t_max_ns, cfg.dt_sample_ns)
    assert all(math.isfinite(v) for v in numbers)


# any value a YAML document can hold; mapping keys are YAML scalars. Integers
# are small or far beyond any array size: mid-sized ones add no case, and an
# unchecked chain length of 1e9 would build gigabytes of device arrays
_INTEGERS = st.integers(-2**20, 2**20) | st.sampled_from([2**63, -2**63, 10**400])
_YAML_KEYS = st.one_of(st.none(), st.booleans(), _INTEGERS,
                       st.floats(allow_nan=False), st.text(max_size=8))
_YAML = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTEGERS, st.floats(),
              st.text(max_size=8)),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(_YAML_KEYS, inner, max_size=4),
    max_leaves=12)


def _mapping(fields, required=()):
    """Mappings over the known keys: the required ones always, with a
    plausible value; the others now and then, with a plausible value or any
    YAML value; one in four also has a stray key."""
    def value(v):
        return st.one_of(v, v, v, _YAML)
    known = st.fixed_dictionaries(
        {k: fields[k] for k in required},
        optional={k: value(v) for k, v in fields.items() if k not in required})
    stray = st.one_of(st.just({}), st.just({}), st.just({}),
                      st.dictionaries(_YAML_KEYS, _YAML, min_size=1, max_size=1))
    return st.builds(lambda a, b: {**b, **a}, known, stray)


def _floats(lo, hi, size=8):
    return st.lists(st.floats(lo, hi) | st.integers(-2, 2), max_size=size)


_DEVICE = _mapping({
    "preset": st.sampled_from(["paper-device", "other"]),
    "n_qubits": st.integers(-1, 8),
    "coupling_mhz": _floats(-50, 50),
    "anharmonicity_mhz": _floats(-300, 0),
    "t1_us": _floats(-1, 50),
    "t2star_us": _floats(-1, 5),
    "readout_f0": _floats(-0.5, 1.5),
    "readout_f1": _floats(-0.5, 1.5),
}) | st.sampled_from(["paper-device", "other"])
_SHOTS = _mapping({
    "n_shots": st.integers(-2, 3000),
    "n_groups": st.integers(-1, 12),
    "seed": st.integers(-2, 10),
}) | st.sampled_from(["none", "paper"])
_READOUT = st.lists(_mapping({"f0": st.floats(-0.5, 1.5),
                              "f1": st.floats(-0.5, 1.5)}), max_size=6) \
    | st.sampled_from(["perfect", "table-s1"])
_CONFIG = _mapping({
    "experiment": st.sampled_from(EXPERIMENTS),
    "device": _DEVICE,
    "F": st.floats(-5, 20) | _floats(-5, 20, size=4),
    "initial_state": st.sampled_from(["10000", "X+X+000", "100", "X+X+0", "1002"]),
    "t_max": st.floats(-10, 400),
    "dt_sample": st.floats(-1, 50),
    "noise": st.sampled_from(["ideal", "lindblad"]),
    "dephasing": st.sampled_from(["as-given", "pure"]),
    "shots": _SHOTS,
    "readout": _READOUT,
    "readout_correction": st.booleans(),
    "output_dir": st.text(max_size=8),
}, required=("experiment",))


@settings(max_examples=300, deadline=None)
@given(raw=_CONFIG | _YAML)
@example(raw={"experiment": "spin_transport",
              "device": {"n_qubits": 2.5, "coupling_mhz": [5.0]}})
@example(raw={"experiment": "spin_transport",
              "device": {"n_qubits": "5", "coupling_mhz": [5.0] * 4}})
@example(raw={"experiment": "spin_transport",
              "device": {"n_qubits": [], "coupling_mhz": [5.0]}})
@example(raw={"experiment": "spin_transport",
              "device": {"n_qubits": 1, "coupling_mhz": []}})
@example(raw={"experiment": "spin_transport",
              "device": {"n_qubits": True, "coupling_mhz": []}})
@example(raw={"experiment": "spin_transport", "device": {"preset": []}})
@example(raw={"experiment": "spin_transport", 1: 2, "a": 3})
def test_any_mapping_parses_or_is_refused(raw):
    """A raw mapping either gives a config or a ConfigError, never another
    exception; an accepted integer field is the integer given."""
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    device, shots = raw.get("device"), raw.get("shots")
    if isinstance(device, dict) and "n_qubits" in device:
        assert type(device["n_qubits"]) is int
        assert cfg.device.n_qubits == device["n_qubits"]
    if isinstance(shots, dict):
        for name, value in shots.items():
            assert type(value) is int and getattr(cfg.shots, name) == value


class TestShots:
    def test_explicit_plan(self):
        cfg = parse_config({"experiment": "spin_transport",
                            "shots": {"n_shots": 1200, "n_groups": 6, "seed": 4}})
        assert cfg.shots == ShotPlan(1200, 6, 4)

    def test_partial_plan_fills_defaults(self):
        cfg = parse_config({"experiment": "spin_transport", "shots": {"seed": 9}})
        assert cfg.shots == ShotPlan(600, 6, 9)

    def test_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            parse_config({"experiment": "spin_transport",
                          "shots": {"n_shots": 100, "n_groups": 7}})

    @pytest.mark.parametrize("experiment", ["thermal_transport", "spin_current"])
    @pytest.mark.parametrize("n_shots, n_groups", [(30, 10), (1, 1), (3, 1)])
    def test_two_setting_split(self, experiment, n_shots, n_groups):
        # each measurement setting takes n_shots // 2 shots in n_groups
        # groups; the split is checked first, then the two groups an error
        # bar needs
        plan = {"n_shots": n_shots, "n_groups": n_groups}
        half = n_shots // 2
        field = "n_shots" if not half or half % n_groups else "n_groups"
        with pytest.raises(ConfigError, match=rf"^shots\.{field}: "):
            parse_config({"experiment": experiment, "shots": plan})
        # one setting takes every shot, so only the group count can fail there
        single = {"experiment": "spin_transport", "shots": plan}
        if n_groups >= 2:
            assert parse_config(single).shots == ShotPlan(n_shots, n_groups, 0)
        else:
            with pytest.raises(ConfigError, match=r"^shots\.n_groups: "):
                parse_config(single)

    @pytest.mark.parametrize("experiment",
                             ["spin_transport", "thermal_transport", "spin_current"])
    def test_error_bars_need_two_groups(self, experiment):
        # one group has no spread, so every _err column would be nan
        with pytest.raises(ConfigError, match=r"^shots\.n_groups: .*>= 2 groups"):
            parse_config({"experiment": experiment,
                          "shots": {"n_shots": 100, "n_groups": 1}})
        plan = {"n_shots": 100, "n_groups": 2}
        assert parse_config({"experiment": experiment, "shots": plan}).shots \
            == ShotPlan(100, 2, 0)

    def test_scan_keeps_one_group(self):
        # wsl_scan reads only the mean of its boundary density
        cfg = parse_config({"experiment": "wsl_scan",
                            "shots": {"n_shots": 100, "n_groups": 1}})
        assert cfg.shots == ShotPlan(100, 1, 0)

    def test_decoherence_check_rejects_shots(self):
        with pytest.raises(ConfigError, match="decoherence_check"):
            parse_config({"experiment": "decoherence_check", "shots": "paper"})
        cfg = parse_config({"experiment": "decoherence_check"})
        assert cfg.shots is None

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match=r"shots\.seed: must be >= 0"):
            parse_config({"experiment": "spin_transport", "shots": {"seed": -1}})

    def test_string_forms(self):
        assert parse_config({"experiment": "spin_transport", "shots": "none"}).shots is None
        cfg = parse_config({"experiment": "spin_transport", "shots": "paper"})
        assert cfg.shots == ShotPlan(600, 6, 0)


class TestReadout:
    def test_table_requires_five_qubits(self):
        with pytest.raises(ConfigError, match="5-qubit"):
            parse_config({
                "experiment": "spin_transport",
                "device": {"n_qubits": 3, "coupling_mhz": [5.0, 5.0]},
                "readout": "table-s1",
            })

    def test_table_values(self):
        cfg = parse_config({"experiment": "spin_transport", "readout": "table-s1"})
        assert cfg.readout[0] == (0.981, 0.853)
        assert cfg.readout[4] == (0.971, 0.917)

    def test_explicit_list(self):
        entries = [{"f0": 0.95, "f1": 0.9}] * 5
        cfg = parse_config({"experiment": "spin_transport", "readout": entries})
        assert cfg.readout == ((0.95, 0.9),) * 5

    def test_range_check(self):
        entries = [{"f0": 1.5, "f1": 0.9}] * 5
        with pytest.raises(ConfigError, match=r"readout\[0\].f0"):
            parse_config({"experiment": "spin_transport", "readout": entries})

    def test_correction_needs_invertible_entries(self):
        entries = [{"f0": 0.95, "f1": 0.9}] * 4 + [{"f0": 0.6, "f1": 0.4}]
        raw = {"experiment": "spin_transport", "readout": entries}
        assert parse_config(raw).readout[4] == (0.6, 0.4)
        with pytest.raises(ConfigError, match=r"^readout\[4\]: .*singular"):
            parse_config(dict(raw, readout_correction=True))

    def test_correction_checks_the_device_table(self):
        # table-s1 reads the device's own fidelities
        device = {"n_qubits": 5, "coupling_mhz": [10.0] * 4,
                  "readout_f0": [0.5] * 5, "readout_f1": [0.5] * 5}
        raw = {"experiment": "spin_transport", "device": device,
               "readout": "table-s1", "readout_correction": True}
        with pytest.raises(ConfigError, match=r"^readout\[0\]: .*singular"):
            parse_config(raw)


class TestNormalizedEcho:
    def test_roundtrip_fields(self):
        cfg = parse_config({"experiment": "wsl_scan", "F": [5, 15],
                            "noise": "lindblad", "readout": "table-s1"})
        d = cfg.normalized()
        assert d["experiment"] == "wsl_scan"
        assert d["F"] == [5.0, 15.0]
        assert d["noise"] == "lindblad"
        assert d["readout"][0] == {"f0": 0.981, "f1": 0.853}
        assert d["shots"] == {"n_shots": 600, "n_groups": 6, "seed": 0}
        assert d["device"]["preset"] == "paper-device"


class TestLoadConfig:
    def test_yaml_file(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text("experiment: spin_transport\nF: 12.5\nt_max: 120\n")
        cfg = load_config(p)
        assert cfg.gradients_mhz == (12.5,)
        assert cfg.t_max_ns == 120.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("experiment: [unclosed\n")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(p)
