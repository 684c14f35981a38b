"""Config parsing: defaults, overrides and rejection paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starkchain import (
    ConfigError,
    ConfusionMatrix,
    ExperimentConfig,
    ShotPlan,
    load_config,
    parse_config,
)
from starkchain import cli
from starkchain.config import (EXPERIMENTS, MAX_COUNT_ENTRIES, _count_entries,
                               _time_points)


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

    @pytest.mark.parametrize("grid, index", [
        ([15, 15.0], 1), ([5, 10, 5], 2), ([7.5, 10, 12.5, 10.0], 3)])
    def test_scan_refuses_a_repeated_gradient(self, grid, index):
        # the scan fits ln(P5max) against F: a repeat adds no point, and two
        # equal gradients alone leave no slope to fit
        with pytest.raises(ConfigError,
                           match=rf"^F\[{index}\]: .* repeats F\[\d\]; wsl_scan"):
            parse_config({"experiment": "wsl_scan", "F": grid})
        assert parse_config({"experiment": "wsl_scan",
                             "F": [5, 15.0000001, 15]}).gradients_mhz[1:] \
            == (15.0000001, 15.0)


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

    @pytest.mark.parametrize("override, message", [
        ({"t1_us": [17, 30, "42", 17, 36]},
         r"t1_us\[2\]: expected a number, got '42'"),
        ({"readout_f0": [True] * 5}, r"readout_f0\[0\]: expected a number, got True"),
        ({"coupling_mhz": "14.4"},
         r"coupling_mhz: expected a list of 4 numbers, got '14.4'"),
        ({"coupling_mhz": [14.4, {"g": 14.4}, 14.4, 14.4]},
         r"coupling_mhz\[1\]: expected a number, got \{'g': 14.4\}"),
        ({"t2star_us": [1.0, 1.0, 1.0, 1.0, 10 ** 400]},
         r"t2star_us\[4\]: must be finite, got inf"),
        ({"t1_us": [17.0, 0, 42.0, 17.0, 36.0]},
         r"t1_us\[1\]: must be positive, got 0.0"),
        ({"readout_f1": [0.9, 0.9, 0.9, 1.5, 0.9]},
         r"readout_f1\[3\]: must be in \[0, 1\], got 1.5"),
    ])
    def test_device_values_keep_the_number_rule(self, override, message):
        # one line under device naming the field and index, by the rule
        # every scalar field keeps: no strings, bools or mappings for numbers
        device = dict({"preset": "paper-device"}, **override)
        with pytest.raises(ConfigError, match=r"^device: " + message + "$"):
            parse_config({"experiment": "spin_transport", "device": device})

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

    def test_cap_counts_the_grid(self):
        # 99999 ns at 1 ns is 100000 points, the cap exactly; one ulp short
        # of 100000 ns rounds up to a point at 100000 ns, one past the cap
        base = {"experiment": "spin_transport", "dt_sample": 1.0}
        assert parse_config(dict(base, t_max=99999.0)).t_max_ns == 99999.0
        assert _time_points(99999.99999999999, 1.0) == 100001
        with pytest.raises(ConfigError, match=r"^t_max: 100000 ns at dt_sample "
                           r"1 ns gives more than 100000 time points$"):
            parse_config(dict(base, t_max=99999.99999999999))
        # a ratio beyond the float range
        assert _time_points(1.0e300, 1.0e-10) == math.inf
        with pytest.raises(ConfigError, match=r"^t_max: "):
            parse_config(dict(base, t_max=1.0e300, dt_sample=1.0e-10))

    @pytest.mark.parametrize("t_max, dt, points", [
        (1.0e-10, 1.0e-12, 101), (1.0e-10, 1.0e-14, 10001),
        (1.0e-300, 1.0e-300, 2), (300.0, 2.0, 151), (7.0, 0.1, 71)])
    def test_tolerance_is_relative_to_the_step(self, t_max, dt, points):
        # the grid never runs past t_max by more than a rounding of it
        cfg = parse_config({"experiment": "spin_transport", "t_max": t_max,
                            "dt_sample": dt, "noise": "lindblad"})
        assert _time_points(t_max, dt) == points
        grid = cli._times(cfg)
        assert grid.size == points
        assert grid[-1] == pytest.approx(t_max, rel=1e-9)
        np.testing.assert_array_equal(grid, dt * np.arange(points))


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

    @pytest.mark.parametrize("plan, message", [
        ({"n_groups": 0}, r"^shots\.n_groups: must be >= 1, got 0$"),
        ({"n_groups": -3}, r"^shots\.n_groups: must be >= 1, got -3$"),
        ({"n_shots": 0}, r"^shots\.n_shots: must be >= 1, got 0$"),
        ({"n_shots": -5, "n_groups": 0}, r"^shots\.n_shots: must be >= 1, got -5$"),
        ({"n_shots": 601, "n_groups": 6},
         r"^shots\.n_shots: 601 not divisible by n_groups 6$"),
    ], ids=["no_groups", "negative_groups", "no_shots", "shots_first", "indivisible"])
    def test_refusal_names_the_field(self, plan, message):
        with pytest.raises(ConfigError, match=message):
            parse_config({"experiment": "spin_transport", "shots": plan})
        # the plan checks itself, so a --seed override is held to it too
        with pytest.raises(ConfigError, match=message):
            ShotPlan(**dict({"n_shots": 600, "n_groups": 6, "seed": 0}, **plan))

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
        # the default is no shots under either noise model
        for noise in ("ideal", "lindblad"):
            cfg = parse_config({"experiment": "decoherence_check", "noise": noise})
            assert cfg.shots is None

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match=r"shots\.seed: must be >= 0"):
            parse_config({"experiment": "spin_transport", "shots": {"seed": -1}})

    def test_string_forms(self):
        assert parse_config({"experiment": "spin_transport", "shots": "none"}).shots is None
        cfg = parse_config({"experiment": "spin_transport", "shots": "paper"})
        assert cfg.shots == ShotPlan(600, 6, 0)


class TestCountBudget:
    @staticmethod
    def _chain(n, **raw):
        return dict({"experiment": "spin_transport", "shots": "paper",
                     "device": {"n_qubits": n, "coupling_mhz": [14.4] * (n - 1)},
                     "initial_state": "1" + "0" * (n - 1)}, **raw)

    def test_forty_qubit_shot_run_refused(self):
        # 151 snapshots x 6 groups x 2^40 outcomes; the sampler would
        # scatter every snapshot onto 2^40 outcomes
        with pytest.raises(ConfigError, match=r"^device\.n_qubits: a shot run on "
                           r"40 qubits holds 996157534765056 outcome counts"):
            parse_config(self._chain(40))
        # without shots the run holds no counts
        assert parse_config(self._chain(40, shots="none")).shots is None

    def test_budget_edge(self):
        # 2 snapshots x 1 group x 2^25 outcomes is the budget exactly
        edge = self._chain(25, experiment="wsl_scan", t_max=2.0, dt_sample=2.0,
                           shots={"n_shots": 10, "n_groups": 1})
        assert _count_entries(25, 2.0, 2.0, 1) == MAX_COUNT_ENTRIES
        assert parse_config(edge).device.n_qubits == 25
        with pytest.raises(ConfigError, match=r"^device\.n_qubits: "):
            parse_config(dict(edge, shots={"n_shots": 10, "n_groups": 2}))

    @pytest.mark.parametrize("t_max, dt", [(300.0, 2.0), (20.0, 10.0),
                                           (7.0, 0.1), (300.0, 3.0)])
    def test_snapshots_match_the_time_grid(self, t_max, dt):
        grid = np.arange(0.0, t_max + 1e-9, dt)
        assert _count_entries(0, t_max, dt, 1) == grid.size

    @pytest.mark.parametrize("experiment", [
        "x_plus_start", "lindblad", "decoherence_check"])
    def test_full_space_runs_held_to_the_budget(self, experiment):
        # a run's basis is the states of the counts its start reaches
        def chain(n, initial, **raw):
            return dict(self._chain(n, shots="none", **raw),
                        initial_state=initial)

        if experiment == "x_plus_start":
            # ideal X+ on every site spans the full 2^n: 151 snapshots x 2^18
            # fit the budget, x 2^19 do not
            assert parse_config(chain(18, "X+" * 18)).device.n_qubits == 18
            with pytest.raises(ConfigError, match=r"^device\.n_qubits: the ideal "
                               r"run on 19 qubits from this initial_state holds "
                               r"79167488 entries"):
                parse_config(chain(19, "X+" * 19))
            # an ideal run from a 0/1 string takes its sector
            assert parse_config(self._chain(40, shots="none")).shots is None
            return
        # a Lindblad run, decoherence_check's half included, is capped on
        # its states: counts 0..1 of 11 qubits are 12, 0..10 are 2047
        raw = ({"experiment": "spin_transport", "noise": "lindblad"}
               if experiment == "lindblad" else {"experiment": experiment})
        assert parse_config(chain(11, "1" + "0" * 10, **raw)).device.n_qubits == 11
        with pytest.raises(ConfigError, match=r"^device\.n_qubits: the lindblad "
                           r"run on 11 qubits from this initial_state holds 2047 "
                           r"basis states, above the budget of 1024$"):
            parse_config(chain(11, "X+" * 10 + "0", **raw))

    @pytest.mark.parametrize("experiment", ["spin_transport", "decoherence_check"])
    def test_lindblad_snapshot_stack_held_to_the_budget(self, experiment):
        # X+ on all 10 qubits reaches the 1024 states the generator is capped
        # at; 151 snapshots of 1024^2 complex entries would take 2.5 GB, and
        # 64 of them are the budget exactly
        raw = dict(self._chain(10, experiment=experiment, noise="lindblad",
                               shots="none"), initial_state="X+" * 10)
        with pytest.raises(ConfigError, match=r"^device\.n_qubits: the lindblad "
                           r"run on 10 qubits from this initial_state holds "
                           r"158334976 entries \(snapshots x basis states\^2\), "
                           r"above the budget of 67108864$"):
            parse_config(raw)
        assert _count_entries(0, 126.0, 2.0, 1) << 20 == MAX_COUNT_ENTRIES
        assert parse_config(dict(raw, t_max=126.0)).device.n_qubits == 10
        with pytest.raises(ConfigError, match=r"^device\.n_qubits: "):
            parse_config(dict(raw, t_max=128.0))

    def test_paper_and_sweep_runs_fit(self):
        # the paper's shot runs, and an ideal spin_transport with paper
        # shots up to 16 qubits on the paper grid
        for experiment in ("spin_transport", "wsl_scan", "thermal_transport",
                           "spin_current"):
            parse_config({"experiment": experiment, "noise": "lindblad",
                          "readout": "table-s1"})
        assert parse_config(self._chain(16)).device.n_qubits == 16
        with pytest.raises(ConfigError, match=r"^device\.n_qubits: "):
            parse_config(self._chain(17))


class TestPrecisionRule:
    # the largest |H| entry times t_max is held to 1e6 rad. From "100" on 3
    # qubits that entry is the larger of the couplings and 3 |F| (site 3's
    # diagonal), and at t_max = 300 ns the bound is 1e6 / 300 rad/ns, or
    # 530516 MHz
    RAW = {"experiment": "spin_transport", "initial_state": "100",
           "device": {"n_qubits": 3, "coupling_mhz": [14.4, 14.4]}}

    @pytest.mark.parametrize("coupling", [1.0e300, 1.0e308])
    def test_huge_couplings_are_refused(self, coupling):
        raw = dict(self.RAW, device={"n_qubits": 3, "coupling_mhz": [coupling] * 2})
        with pytest.raises(ConfigError, match=r"^device\.coupling_mhz: an \|H\| "
                           r"entry of 6\.28e\+\d+ rad/ns times t_max = 300 ns "
                           r"exceeds the 1e6 rad"):
            parse_config(raw)

    def test_the_bound(self):
        def chain(g):
            return dict(self.RAW, device={"n_qubits": 3, "coupling_mhz": [1.0, g]})
        parse_config(chain(5.3e5))
        with pytest.raises(ConfigError, match=r"^device\.coupling_mhz: "):
            parse_config(chain(5.31e5))
        parse_config(dict(self.RAW, F=1.76e5))
        with pytest.raises(ConfigError, match=r"^F\[0\]: an \|H\| entry of "):
            parse_config(dict(self.RAW, F=1.77e5))
        # a shorter run keeps its phases to the same bound
        parse_config(dict(self.RAW, F=1.77e5, t_max=290.0))

    def test_the_dominant_field_is_named(self):
        # from X+X+0 two excitations reach sites 2 and 3: 5 |F|
        raw = dict(self.RAW, experiment="wsl_scan", initial_state="X+X+0",
                   F=[5.0, 1.1e5, 9e4],
                   device={"n_qubits": 3, "coupling_mhz": [5e5, 14.4]})
        with pytest.raises(ConfigError, match=r"^F\[1\]: an \|H\| entry of 3\.46"):
            parse_config(raw)
        raw["device"] = {"n_qubits": 3, "coupling_mhz": [6e5, 14.4]}
        with pytest.raises(ConfigError, match=r"^device\.coupling_mhz: "):
            parse_config(raw)


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
        assert cfg.readout[0] == ConfusionMatrix(f0=0.981, f1=0.853)
        assert cfg.readout[4] == ConfusionMatrix(f0=0.971, f1=0.917)

    def test_explicit_list(self):
        entries = [{"f0": 0.95, "f1": 0.9}] * 5
        cfg = parse_config({"experiment": "spin_transport", "readout": entries})
        assert cfg.readout == (ConfusionMatrix(f0=0.95, f1=0.9),) * 5

    def test_range_check(self):
        entries = [{"f0": 1.5, "f1": 0.9}] * 5
        with pytest.raises(ConfigError, match=r"readout\[0\].f0"):
            parse_config({"experiment": "spin_transport", "readout": entries})

    def test_correction_needs_invertible_entries(self):
        entries = [{"f0": 0.95, "f1": 0.9}] * 4 + [{"f0": 0.6, "f1": 0.4}]
        raw = {"experiment": "spin_transport", "readout": entries}
        assert parse_config(raw).readout[4] == ConfusionMatrix(f0=0.6, f1=0.4)
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

    @pytest.mark.parametrize("text, read, value", [
        ("t_max: 3e2\n", lambda c: c.t_max_ns, 300.0),
        ("dt_sample: 1e-1\n", lambda c: c.dt_sample_ns, 0.1),
        ("t_max: 1.0e5\n", lambda c: c.t_max_ns, 1.0e5),
        ("device: {n_qubits: 3, coupling_mhz: [14.4, 14.4],\n"
         "         anharmonicity_mhz: [-2e1, -2e1, -2e1]}\n",
         lambda c: c.device.anharmonicity_mhz, (-20.0,) * 3),
    ], ids=["3e2", "1e-1", "1.0e5", "-2e1"])
    def test_exponent_numbers(self, tmp_path, text, read, value):
        # YAML 1.2 floats: PyYAML's YAML 1.1 rule wants a dot and a signed
        # exponent and reads these as strings, which the number rule refuses
        p = tmp_path / "run.yaml"
        p.write_text("experiment: spin_transport\n" + text)
        assert read(load_config(p)) == value

    def test_quoted_exponent_stays_a_string(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text("experiment: spin_transport\nt_max: '3e2'\n")
        with pytest.raises(ConfigError,
                           match=r"^t_max: expected a number, got '3e2'$"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_parse_error(self, tmp_path):
        # one line: the file, where yaml found the problem, what it was
        # parsing and where that opened, and the problem
        p = tmp_path / "bad.yaml"
        for text, where in [
            ("experiment: [unclosed\n", "line 2, column 1: while parsing a "
             "flow sequence (line 1, column 13): expected ',' or ']'"),
            ("experiment: [\n", "line 2, column 1: while parsing a flow node: "
             "expected the node content"),
            ("device: {n_qubits: 3\n", "line 2, column 1: while parsing a "
             "flow mapping (line 1, column 9): expected ',' or '}'"),
            ("experiment: spin_transport\n  t_max: 20\n",
             "line 2, column 8: mapping values are not allowed here"),
        ]:
            p.write_text(text)
            with pytest.raises(ConfigError) as info:
                load_config(p)
            message = str(info.value)
            assert message.startswith(f"config parse error in {p} at {where}")
            assert "\n" not in message

    def test_deep_nesting_refused(self, tmp_path):
        p = tmp_path / "deep.yaml"
        p.write_text("experiment: " + "[" * 1000 + "]" * 1000 + "\n")
        with pytest.raises(ConfigError,
                           match=r"^config parse error in .*: nested too deeply$"):
            load_config(p)

    @pytest.mark.parametrize("text, message", [
        ("experiment: spin_transport\nt_max: 20\nexperiment: wsl_scan\n",
         "experiment: repeated key (lines 1 and 3)"),
        ("experiment: spin_transport\ndevice:\n  n_qubits: 3\n"
         "  coupling_mhz: [14.4, 14.4]\n  n_qubits: 4\n",
         "device.n_qubits: repeated key (lines 3 and 5)"),
        ("experiment: spin_transport\nshots:\n  n_shots: 600\n"
         "  seed: 1\n  'n_shots': 60\n",
         "shots.n_shots: repeated key (lines 3 and 5)"),
        ("experiment: spin_transport\nreadout:\n- {f0: 0.9, f1: 0.9}\n"
         "- {f0: 0.9, f1: 0.9, f1: 0.8}\n",
         "readout[1].f1: repeated key (lines 4 and 4)"),
    ], ids=["top", "device", "shots", "readout"])
    def test_repeated_key_refused(self, tmp_path, text, message):
        # yaml keeps the last of two equal keys; a config names the field
        p = tmp_path / "twice.yaml"
        p.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(p)
        assert str(info.value) == message

    def test_alias_is_not_a_repeat(self, tmp_path):
        # a node reached twice through an anchor is one mapping, not two keys
        p = tmp_path / "alias.yaml"
        p.write_text("experiment: spin_transport\n"
                     "readout: [&q {f0: 0.9, f1: 0.9}, *q, *q, *q, *q]\n")
        assert load_config(p).readout == (ConfusionMatrix(f0=0.9, f1=0.9),) * 5
