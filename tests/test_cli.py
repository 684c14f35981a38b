"""End-to-end runner tests: CSV artifacts, summaries, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from starkchain import (
    ConfigError,
    NoWavefrontError,
    PotentialSpec,
    StarkchainError,
    build_observable,
    build_xy_hamiltonian,
    make_collapse_ops,
    parse_config,
    prepare_initial_state,
    propagate_single_particle,
    single_particle_matrix,
    trajectory,
)
from starkchain import cli, measurement, observables
from starkchain.cli import main, run
from starkchain.config import EXPERIMENTS
from starkchain.model import _basis_states


def _read_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


def _cols(header, data):
    return {name: data[:, k] for k, name in enumerate(header)}


class TestValidate:
    def test_echo(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("experiment: wsl_scan\nF: [5, 15]\n")
        assert main(["validate", "--config", str(p)]) == 0
        echoed = json.loads(capsys.readouterr().out)
        cfg = parse_config({"experiment": "wsl_scan", "F": [5, 15]})
        assert echoed == cfg.normalized()

    def test_requires_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate"])

    def test_bad_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("experiment: spin_transport\nunknown_field: 3\n")
        assert main(["validate", "--config", str(p)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["1002", "100"])
    def test_bad_initial_state(self, tmp_path, capsys, spec):
        p = tmp_path / "c.yaml"
        p.write_text(f"experiment: spin_transport\ninitial_state: '{spec}'\n")
        assert main(["validate", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial_state: ")
        assert err.count("\n") == 1

    def test_negative_seed_flag(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("experiment: spin_transport\nshots: paper\n")
        assert main(["validate", "--config", str(p), "--seed", "-1"]) == 2
        assert "shots.seed" in capsys.readouterr().err

    def test_preset_flag_sets_readout_table(self, tmp_path, capsys):
        # table-s1 reads the fidelities of the device the flag selects, not
        # those of the device the file describes
        p = tmp_path / "c.yaml"
        p.write_text(
            "experiment: spin_transport\n"
            "device: {n_qubits: 5, coupling_mhz: [10, 10, 10, 10],\n"
            "         readout_f0: [0.5, 0.5, 0.5, 0.5, 0.5],\n"
            "         readout_f1: [0.6, 0.6, 0.6, 0.6, 0.6]}\n"
            "readout: table-s1\n"
        )
        assert main(["validate", "--config", str(p)]) == 0
        own = json.loads(capsys.readouterr().out)
        assert own["readout"][0] == {"f0": 0.5, "f1": 0.6}
        assert main(["validate", "--config", str(p),
                     "--preset", "paper-device"]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["device"]["preset"] == "paper-device"
        assert echoed["readout"][0] == {"f0": 0.981, "f1": 0.853}
        assert echoed["readout"][4] == {"f0": 0.971, "f1": 0.917}

    def test_zero_gradient_in_scan(self, tmp_path, capsys):
        # refused before any gradient is evolved
        p = tmp_path / "c.yaml"
        p.write_text("experiment: wsl_scan\nF: [5, 0]\n")
        assert main(["validate", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: F[1]: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line, field", [
        ("F: .inf", "F"),
        ("F: [5, .inf]", "F[1]"),
        ("t_max: .inf", "t_max"),
        ("t_max: .nan", "t_max"),
        ("dt_sample: .nan", "dt_sample"),
    ])
    def test_non_finite_number(self, tmp_path, capsys, line, field):
        p = tmp_path / "c.yaml"
        p.write_text(f"experiment: spin_transport\n{line}\n")
        assert main(["validate", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: must be finite")
        assert err.count("\n") == 1

    def test_too_many_time_points(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("experiment: spin_transport\nt_max: 1.0e+300\n")
        out = tmp_path / "out"
        assert main(["spin_transport", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t_max: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["spin_transport", "decoherence_check"])
    def test_overflowing_phases(self, tmp_path, capsys, experiment):
        # couplings of 1e308 MHz would make the eigenphases overflow: the
        # precision rule refuses them at parse time in one error line that
        # names the field, and numpy warns nothing on the way
        p = tmp_path / "c.yaml"
        p.write_text(f"experiment: {experiment}\ninitial_state: '100'\n"
                     "device: {n_qubits: 3, coupling_mhz: [1.0e+308, 1.0e+308]}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([experiment, "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert [str(w.message) for w in caught] == []
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: device.coupling_mhz: an |H| entry of ")
        assert err.count("\n") == 1

    def test_too_many_shots(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("experiment: spin_transport\nt_max: 2\ndt_sample: 2\n"
                     "shots: {n_shots: 4611686018427387904, n_groups: 2}\n")
        out = tmp_path / "out"
        assert main(["spin_transport", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: shots.n_shots: must be <= ")
        assert err.count("\n") == 1
        assert not out.exists()
        # the cap itself is a valid plan
        cfg = parse_config({"experiment": "spin_transport",
                            "shots": {"n_shots": 10 ** 9, "n_groups": 10}})
        assert cfg.shots.n_shots == 10 ** 9

    @pytest.mark.parametrize("experiment", ["thermal_transport", "spin_current"])
    def test_two_setting_shot_split(self, tmp_path, capsys, experiment):
        # refused before the evolution, naming the field
        p = tmp_path / "c.yaml"
        p.write_text(f"experiment: {experiment}\nt_max: 20\n"
                     "shots: {n_shots: 30, n_groups: 10}\n")
        out = tmp_path / "out"
        assert main([experiment, "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: shots.n_shots: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_one_shot_group(self, tmp_path, capsys):
        # one group has no spread: every _err column would be nan
        p = tmp_path / "c.yaml"
        p.write_text("experiment: spin_transport\nnoise: ideal\nt_max: 20\n"
                     "shots: {n_shots: 100, n_groups: 1}\n")
        out = tmp_path / "out"
        assert main(["spin_transport", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: shots.n_groups: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_singular_readout_with_correction(self, tmp_path, capsys):
        # refused before the evolution, naming the entry; without correction
        # the same table is valid
        p = tmp_path / "c.yaml"
        p.write_text("experiment: spin_transport\nnoise: lindblad\nt_max: 20\n"
                     "readout: [{f0: 0.6, f1: 0.4}, {f0: 0.6, f1: 0.4},"
                     " {f0: 0.6, f1: 0.4}, {f0: 0.6, f1: 0.4}, {f0: 0.6, f1: 0.4}]\n")
        out = tmp_path / "out"
        assert main(["validate", "--config", str(p), "--out", str(out)]) == 0
        capsys.readouterr()
        p.write_text(p.read_text() + "readout_correction: true\n")
        assert main(["validate", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: readout[0]: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_seed_flag_without_shots(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("experiment: spin_transport\nt_max: 20\nshots: none\n")
        out = tmp_path / "out"
        assert main(["spin_transport", "--config", str(p), "--out", str(out),
                     "--seed", "7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_subcommand_mismatch(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("experiment: wsl_scan\n")
        assert main(["spin_transport", "--config", str(p)]) == 2
        assert "subcommand" in capsys.readouterr().err


class TestFileBoundary:
    """A config or output path the CLI cannot use ends in one error line
    naming it and exit status 2, before anything is computed."""

    @staticmethod
    def _refused(capsys, argv, names):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert names in captured.err
        assert captured.out == ""

    def test_config_is_a_directory(self, tmp_path, capsys):
        self._refused(capsys, ["validate", "--config", str(tmp_path)],
                      str(tmp_path))

    def test_config_is_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_bytes(b"experiment: spin_transport\n# \xff\xfe latin-1\n")
        self._refused(capsys, ["validate", "--config", str(p)], str(p))

    @pytest.mark.parametrize("under", [False, True],
                             ids=["existing_file", "path_under_a_file"])
    def test_out_is_a_file(self, tmp_path, capsys, monkeypatch, under):
        def unreachable(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "_per_gradient", unreachable)
        p = tmp_path / "c.yaml"
        p.write_text("experiment: spin_transport\nt_max: 20\n")
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if under else blocker
        self._refused(capsys, ["spin_transport", "--config", str(p),
                               "--out", str(out)], "output_dir: ")
        assert blocker.read_text() == "not a directory\n"


def _cli(*args):
    """The CLI as a user starts it, in a subprocess."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (src, env.get("PYTHONPATH")) if x)
    return subprocess.run([sys.executable, "-m", "starkchain.cli", *args],
                          env=env, capture_output=True, text=True)


def _run_on_huge_couplings(tmp_path, experiment, coupling):
    """The CLI on a 3-qubit chain at one coupling."""
    p = tmp_path / "c.yaml"
    p.write_text(f"experiment: {experiment}\ndevice:\n  n_qubits: 3\n"
                 f"  coupling_mhz: [{coupling}, {coupling}]\n")
    return _cli(experiment, "--config", str(p), "--out", str(tmp_path / "out"))


@pytest.mark.parametrize("coupling", ["1.0e+306", "1.0e+150"])
def test_overflowing_run_ends_in_one_error_line(tmp_path, coupling):
    # couplings this large would overflow the Lindblad propagator's
    # squarings, and at 1e306 the Hamiltonian's norm; the run as a user
    # starts it prints the precision rule's error line and nothing else, no
    # numpy warning
    done = _run_on_huge_couplings(tmp_path, "decoherence_check", coupling)
    assert done.returncode == 2
    assert done.stderr.startswith("error: device.coupling_mhz: an |H| entry of ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("experiment", ["spin_transport", "spin_current"])
def test_non_finite_trajectory_is_refused(tmp_path, experiment):
    # at 1e308 MHz the ideal phases would overflow to nan; the run is
    # refused before any CSV is written
    done = _run_on_huge_couplings(tmp_path, experiment, "1.0e+308")
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1].startswith("error: ")
    assert not list(tmp_path.glob("out/*.csv"))


def test_validate_without_config_prints_one_error_line():
    # the refusal names --config in one line, without the program's usage
    done = _cli("validate")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: --config: validate needs a config file\n"


def _uniform(n, **raw):
    return dict({"device": {"n_qubits": n, "coupling_mhz": [14.4] * (n - 1)},
                 "initial_state": "1" + "0" * (n - 1)}, **raw)


class TestRoutes:
    @pytest.mark.parametrize("raw, dim", [
        ({"experiment": "spin_transport"}, 5),
        ({"experiment": "spin_transport", "shots": "paper"}, 5),
        ({"experiment": "spin_current", "shots": "paper",
          "initial_state": "10100"}, 10),
        ({"experiment": "thermal_transport", "shots": "paper"}, 16),
        ({"experiment": "spin_transport", "noise": "lindblad"}, 6),
    ])
    def test_one_rule(self, raw, dim):
        # every run takes the states whose excitation count lies between the
        # start's '1' tokens (0 under Lindblad noise) and its '1' and X
        # tokens: 1, 1, 2, 0..2 (1 + 5 + 10) and 0..1 (1 + 5)
        cfg = parse_config(raw)
        h, state, basis, collapse = cli._route(cfg, PotentialSpec.linear(-15.0),
                                               cfg.noise)
        assert h.dim == state.dim == basis.dim == dim
        assert h.basis_tag == state.basis_tag == basis.tag
        assert (collapse is None) == (cfg.noise == "ideal")
        assert collapse is None or collapse.basis_tag == basis.tag

    def test_noisy_eleven_qubits(self, tmp_path):
        # 2048 dimensions, of which the run takes the 12 states of counts
        # 0..1, under the cap on a Lindblad basis
        cfg = parse_config(_uniform(11, experiment="spin_transport",
                                    noise="lindblad", t_max=8.0, dt_sample=2.0))
        run(cfg, out_dir=str(tmp_path))
        header, data = _read_csv(tmp_path / "spin_transport_F15.csv")
        p = np.column_stack([_cols(header, data)[f"P{j}"] for j in range(1, 12)])
        assert p.shape == (5, 11)
        assert np.all((p >= 0) & (p <= 1))
        assert np.all(p.sum(axis=1) <= 1 + 1e-9)
        assert p[0, 0] == 1 and p[-1, 0] < 1

    def test_noisy_run_memory_follows_the_support(self, tmp_path):
        # from one excitation the support is n + 1 states: going from 8 to
        # 10 qubits multiplies a full-space density matrix by 16, and the
        # run's peak by less than 4
        peaks = []
        for n in (8, 10):
            cfg = parse_config(_uniform(n, experiment="spin_transport",
                                        noise="lindblad", t_max=4.0, dt_sample=2.0,
                                        shots={"n_shots": 60, "n_groups": 2}))
            run(cfg, out_dir=str(tmp_path))  # imports and first-call set-up
            tracemalloc.start()
            try:
                run(cfg, out_dir=str(tmp_path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 4 * peaks[0]
        # and below a quarter of one 2^10 x 2^10 complex density matrix
        assert peaks[1] < 4 ** 10 * 16 / 4

    def test_forty_qubit_shot_run_refused(self, tmp_path, capsys):
        # one excitation on 40 qubits: the sector is small, but the sampler
        # would count 2^40 outcomes per snapshot and group
        p = tmp_path / "c.yaml"
        p.write_text(json.dumps(_uniform(40, experiment="spin_transport",
                                         shots="paper")))
        assert main(["spin_transport", "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: device.n_qubits: a shot run on 40 qubits")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_thermal_transport_on_62_qubits_validates(self, tmp_path, capsys):
        # X+X+0... spans counts 0..2: 1 + 62 + 1891 = 1954 states
        p = tmp_path / "c.yaml"
        p.write_text(json.dumps({
            "experiment": "thermal_transport",
            "device": {"n_qubits": 62, "coupling_mhz": [14.4] * 61}}))
        assert main(["validate", "--config", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["device"]["n_qubits"] == 62
        cfg = parse_config(json.loads(p.read_text()))
        basis = cli._route(cfg, PotentialSpec.linear(-15.0), cfg.noise)[2]
        assert basis.dim == 1954

    def test_ideal_x_plus_on_30_qubits_refused(self, tmp_path, capsys):
        # X+ on every site spans every count: 2^30 states per snapshot
        p = tmp_path / "c.yaml"
        p.write_text(json.dumps(_uniform(30, experiment="spin_transport",
                                         initial_state="X+" * 30)))
        assert main(["spin_transport", "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: device.n_qubits: the ideal run on 30 "
                              "qubits from this initial_state holds ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


_TOKENS = st.sampled_from(["0", "1", "X+", "X-"])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), noise=st.sampled_from(["ideal", "lindblad"]),
       dephasing=st.sampled_from(["as-given", "pure"]),
       f=st.sampled_from([0.0, 7.5, 15.0]), t_max=st.sampled_from([4.0, 20.0]),
       data=st.data())
def test_sector_range_route_matches_the_full_space(n, noise, dephasing, f,
                                                   t_max, data):
    # the route's basis against the full 2^n space, with strong decay so
    # that a wrong jump shows; and its jumps are the full-space jumps
    # restricted to its states, entry for entry
    spec = "".join(data.draw(st.lists(_TOKENS, min_size=n, max_size=n)))
    cfg = parse_config({
        "experiment": "spin_transport", "noise": noise, "shots": "none",
        "dephasing": dephasing, "initial_state": spec, "t_max": t_max,
        "dt_sample": 2.0,
        "device": {"n_qubits": n, "coupling_mhz": [14.4] * (n - 1),
                   "t1_us": [0.5] * n, "t2star_us": [0.2] * n}})
    potential = PotentialSpec.linear(-f)
    h, state, basis, collapse = cli._route(cfg, potential, noise)
    full = (build_xy_hamiltonian(cfg.device, potential),
            prepare_initial_state(spec, n),
            None if collapse is None else make_collapse_ops(cfg.device, dephasing))
    kinds = [("density", j, f"P{j}") for j in range(1, n + 1)]
    kinds += [(kind, b, f"{kind}{b}") for b in range(1, n)
              for kind in ("kinetic", "spin_current")]
    columns = []
    for where, (hm, st0, col) in ((basis, (h, state, collapse)), (None, full)):
        ops = {name: build_observable(kind, j, cfg.device, basis=where)
               for kind, j, name in kinds}
        columns.append(trajectory(hm, st0, cli._times(cfg), ops,
                                  collapse=col).columns)
    for name in columns[1]:
        np.testing.assert_allclose(columns[0][name], columns[1][name],
                                   rtol=0, atol=1e-10, err_msg=name)
    states = _basis_states(basis, n)[0]
    for op, ref in zip(make_collapse_ops(cfg.device, dephasing, basis=basis)
                       .operators, make_collapse_ops(cfg.device, dephasing)
                       .operators):
        np.testing.assert_array_equal(op.todense(),
                                      ref.todense()[np.ix_(states, states)])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), dephasing=st.sampled_from(["as-given", "pure"]),
       f=st.sampled_from([0.0, 7.5, 15.0]), t_max=st.sampled_from([4.0, 20.0]),
       data=st.data())
def test_noise_free_lindblad_equals_unitary(n, dephasing, f, t_max, data):
    # T1 = T2* = 1e9 us: over t_max the Lindblad run may differ from the
    # ideal one by about t_max / T1 ~ 2e-14. The columns are compared as
    # the experiments return them, before CSV formatting, each against its
    # scale: the largest magnitude its observable takes, 1 for P and J and
    # the bond's coupling in MHz for K
    spec = "".join(data.draw(st.lists(_TOKENS, min_size=n, max_size=n)))
    raw = {"shots": "none", "dephasing": dephasing, "initial_state": spec,
           "t_max": t_max, "dt_sample": 2.0,
           "device": {"n_qubits": n, "coupling_mhz": [14.4] * (n - 1),
                      "t1_us": [1e9] * n, "t2star_us": [1e9] * n}}
    potential = PotentialSpec.linear(-f)
    for experiment in ("spin_transport", "thermal_transport", "spin_current"):
        ideal, lindblad = (
            cli._COLUMNS[experiment](parse_config(dict(
                raw, experiment=experiment, noise=noise)), 0, potential)[0]
            for noise in ("ideal", "lindblad"))
        assert sorted(lindblad) == sorted(ideal)
        for name, want in ideal.items():
            scale = 14.4 if name[0] == "K" else 1.0
            np.testing.assert_allclose(lindblad[name], want, rtol=0,
                                       atol=1e-9 * scale, err_msg=name)


_F_VALUES = st.sampled_from([0.0, 2.5, 5.0, 7.5, 15.0, 30.0])
_READOUT_ENTRY = st.fixed_dictionaries({
    "f0": st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
    "f1": st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0])})


@settings(max_examples=60, deadline=None)
@given(experiment=st.sampled_from(EXPERIMENTS), n=st.integers(2, 5),
       data=st.data())
def test_accepted_configs_run_or_raise_a_starkchain_error(experiment, n, data):
    # every small config that validates finishes, or ends in one of the
    # package's own errors, which the CLI turns into one error line
    raw = {
        "experiment": experiment,
        "device": {"n_qubits": n, "coupling_mhz": [14.4] * (n - 1),
                   "t1_us": [data.draw(st.sampled_from([0.5, 20.0]))] * n,
                   "t2star_us": [data.draw(st.sampled_from([0.2, 5.0]))] * n},
        "F": data.draw(st.lists(_F_VALUES, min_size=1, max_size=3, unique=True)),
        "t_max": data.draw(st.sampled_from([1.0, 4.0, 10.0, 20.0])),
        "dt_sample": data.draw(st.sampled_from([0.5, 2.0, 5.0])),
        "noise": data.draw(st.sampled_from(["ideal", "lindblad"])),
        "dephasing": data.draw(st.sampled_from(["as-given", "pure"])),
        "readout_correction": data.draw(st.booleans()),
    }
    if data.draw(st.booleans()):
        raw["initial_state"] = "".join(
            data.draw(st.lists(_TOKENS, min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        groups = data.draw(st.integers(1, 3))
        raw["shots"] = {"n_shots": 2 * groups * data.draw(st.integers(1, 10)),
                        "n_groups": groups, "seed": data.draw(st.integers(0, 99))}
    else:
        raw["shots"] = "none"
    if data.draw(st.booleans()):
        raw["readout"] = data.draw(st.lists(_READOUT_ENTRY, min_size=n,
                                            max_size=n))
    try:
        cfg = parse_config(raw)
    except ConfigError as exc:
        event(f"refused: {str(exc).split(':')[0]}")
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            run(cfg, out_dir=out)
            event("finished")
        except StarkchainError as exc:
            event(f"raised {type(exc).__name__}")


class TestSpinTransport:
    def test_ideal_run(self, tmp_path):
        cfg = parse_config({"experiment": "spin_transport", "t_max": 100,
                            "dt_sample": 4})
        summary = run(cfg, out_dir=str(tmp_path))
        assert summary["outputs"] == ["spin_transport_F15.csv"]
        header, data = _read_csv(tmp_path / "spin_transport_F15.csv")
        assert header == ["t_ns", "P1", "P2", "P3", "P4", "P5"]
        cols = _cols(header, data)
        np.testing.assert_allclose(cols["t_ns"], np.arange(0, 101, 4.0))
        assert cols["P1"][0] == pytest.approx(1.0, abs=1e-12)
        # conservation audit on the written file
        total = sum(cols[f"P{j}"] for j in range(1, 6))
        np.testing.assert_allclose(total, 1.0, atol=1e-6)

    def test_summary_fields(self, tmp_path):
        cfg = parse_config({"experiment": "spin_transport", "t_max": 20,
                            "dt_sample": 10})
        summary = run(cfg, out_dir=str(tmp_path))
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == summary
        assert summary["experiment"] == "spin_transport"
        assert summary["seed"] is None
        assert len(summary["config_sha256"]) == 64
        assert "starkchain" in summary["versions"]
        assert "numpy" in summary["versions"]

    def test_hash_ignores_output_dir(self, tmp_path):
        raw = {"experiment": "spin_transport", "t_max": 20, "dt_sample": 10}
        a = run(parse_config(dict(raw, output_dir=str(tmp_path / "a"))))
        b = run(parse_config(dict(raw, output_dir=str(tmp_path / "b"))))
        assert a["config"]["output_dir"] != b["config"]["output_dir"]
        assert a["config_sha256"] == b["config_sha256"]
        c = run(parse_config(dict(raw, t_max=30, output_dir=str(tmp_path / "c"))))
        assert c["config_sha256"] != a["config_sha256"]

    def test_sector_route_at_scale(self, tmp_path):
        # n = 14: the one-excitation sector is the 14-site single-particle
        # problem, not a 16384-dim full-space evolution
        n, f = 14, 12.0
        device = {"n_qubits": n, "coupling_mhz": [14.4] * (n - 1)}
        cfg = parse_config({"experiment": "spin_transport", "device": device,
                            "initial_state": "1" + "0" * (n - 1),
                            "F": f, "t_max": 200, "dt_sample": 4})
        run(cfg, out_dir=str(tmp_path))
        header, data = _read_csv(tmp_path / "spin_transport_F12.csv")
        cols = _cols(header, data)
        h = single_particle_matrix(cfg.device, PotentialSpec.linear(-f))
        ref = propagate_single_particle(h, 1, cols["t_ns"])
        got = np.column_stack([cols[f"P{j}"] for j in range(1, n + 1)])
        # CSV values carry 9 significant digits
        np.testing.assert_allclose(got, ref, rtol=5e-9, atol=1e-10)

    def test_shot_columns(self, tmp_path):
        cfg = parse_config({
            "experiment": "spin_transport", "t_max": 40, "dt_sample": 20,
            "shots": {"n_shots": 120, "n_groups": 6, "seed": 1},
        })
        run(cfg, out_dir=str(tmp_path))
        header, data = _read_csv(tmp_path / "spin_transport_F15.csv")
        # every estimate column is followed by its error column
        assert header == ["t_ns", "P1", "P1_err", "P2", "P2_err", "P3",
                          "P3_err", "P4", "P4_err", "P5", "P5_err"]
        cols = _cols(header, data)
        assert np.all(cols["P1_err"] >= 0)
        assert np.all((cols["P3"] >= 0) & (cols["P3"] <= 1))


    @pytest.mark.parametrize("experiment, raw", [
        ("spin_transport", {"noise": "lindblad"}),
        ("spin_transport", {"shots": "paper", "t_max": 20}),
        ("thermal_transport", {"noise": "lindblad", "t_max": 20})])
    def test_readout_reporting_every_shot_as_zero(self, tmp_path, experiment,
                                                  raw):
        # f1 = 0 reports every qubit as 0; outcome 0...0 sums its confusion
        # products to 1 + 4.4e-16, a probability above 1 for the sampler
        cfg = parse_config(dict(raw, experiment=experiment,
                                readout=[{"f0": 1.0, "f1": 0.0}] * 5))
        summary = run(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "summary.json").exists()
        if experiment == "spin_transport":
            header, data = _read_csv(tmp_path / summary["outputs"][0])
            cols = _cols(header, data)
            assert cols["t_ns"].size == cli._times(cfg).size
            for j in range(1, 6):
                assert np.all(cols[f"P{j}"] == 0.0)
                assert np.all(cols[f"P{j}_err"] == 0.0)


class TestReproducibility:
    CFG = {
        "experiment": "spin_transport", "t_max": 60, "dt_sample": 12,
        "shots": {"n_shots": 60, "n_groups": 6, "seed": 5},
        "readout": "table-s1",
    }

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(parse_config(dict(self.CFG)), out_dir=str(a))
        run(parse_config(dict(self.CFG)), out_dir=str(b))
        for name in ("spin_transport_F15.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_shots(self, tmp_path):
        other = dict(self.CFG, shots=dict(self.CFG["shots"], seed=6))
        a, b = tmp_path / "a", tmp_path / "b"
        run(parse_config(dict(self.CFG)), out_dir=str(a))
        run(parse_config(other), out_dir=str(b))
        fa = (a / "spin_transport_F15.csv").read_bytes()
        fb = (b / "spin_transport_F15.csv").read_bytes()
        assert fa != fb

    def test_seed_flag_override(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text(
            "experiment: spin_transport\nt_max: 40\ndt_sample: 20\n"
            "shots: {n_shots: 60, n_groups: 6}\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["spin_transport", "--config", str(p), "--out", str(a),
                     "--seed", "3"]) == 0
        assert main(["spin_transport", "--config", str(p), "--out", str(b),
                     "--seed", "4"]) == 0
        assert json.loads((a / "summary.json").read_text())["seed"] == 3
        fa = (a / "spin_transport_F15.csv").read_bytes()
        fb = (b / "spin_transport_F15.csv").read_bytes()
        assert fa != fb


# base seeds of one to nine 32-bit words, the word edges among them
_BASE_SEEDS = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 64 + 7, 2 ** 256]),
                        st.integers(0, 2 ** 256))


@settings(max_examples=40, deadline=None)
@given(base=_BASE_SEEDS, f_index=st.integers(0, 20), setting=st.integers(0, 1),
       n=st.integers(1, 160))
def test_key_k_is_word_k(base, f_index, setting, n):
    # an outside tool regenerates snapshot k's key from its first k + 1 words
    keys = cli._derive_seeds(base, f_index, n, setting)
    assert keys.dtype == np.uint64 and keys.shape == (n,)
    seq = np.random.SeedSequence(base, spawn_key=(f_index, setting))
    for k in {0, n // 2, n - 1}:
        assert keys[k] == seq.generate_state(k + 1, np.uint64)[k]
    # and a key does not depend on how many snapshots the run has
    np.testing.assert_array_equal(
        cli._derive_seeds(base, f_index, n + 7, setting)[:n], keys)


def test_keys_differ_across_snapshots_gradients_and_settings():
    keys = np.concatenate([cli._derive_seeds(3, i, 151, s)
                           for i in range(5) for s in range(2)])
    assert np.unique(keys).size == keys.size


@pytest.mark.parametrize("seed", [0, 2 ** 64 + 7, 2 ** 256])
def test_base_seeds_run(tmp_path, seed):
    p = tmp_path / "c.yaml"
    p.write_text("experiment: thermal_transport\nt_max: 8\ndt_sample: 4\n"
                 "noise: lindblad\n")
    assert main(["thermal_transport", "--config", str(p), "--seed", str(seed),
                 "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["seed"] \
        == seed


def _former_keys(base, f_index, n_snapshots, setting):
    """The key rule of the first pinned hashes: snapshot k's key was
    SeedSequence(entropy=base, spawn_key=(f_index, k, setting))
    .generate_state(1, np.uint64)[0]."""
    return np.array([
        np.random.SeedSequence(base, spawn_key=(f_index, k, setting))
        .generate_state(1, np.uint64)[0] for k in range(n_snapshots)])


class TestGoldenShots:
    """SHA-256 of the CSVs of short noisy shot runs (paper shots, seed 0,
    table-s1 readout), with and without readout correction. They pin the
    sampler and the estimators, the correction path included, to the bit.

    GOLDEN was pinned under the former key rule (_former_keys) and still
    holds with it patched in, so nothing but the key changed when the keys
    became words of one SeedSequence per gradient and setting; KEYED pins
    the current keys."""

    GOLDEN = {
        ("spin_transport", False):
            "3193fe8bd5aa37c4d4fb273515d45dce4b6367b71ca772756157f3679112b98b",
        ("spin_transport", True):
            "e09d896777b85c5b48505aae9c57f379db70161f0792b193a8b1591d1275274a",
        ("thermal_transport", False):
            "21f24e9e8aee6d228e567650e077c455d30cef805bcca64c061722db627dd1c2",
        ("thermal_transport", True):
            "5336c461680c8c61539f765bbf2706f7585746943ab9c9c232eb6a3999f4168e",
        ("spin_current", False):
            "46cb60019e99020277109381e6ddd367f1719d08120860d84a9c44e59e737132",
        ("spin_current", True):
            "0c08e39b92394d37a2230efd5743c1c62aa2467026f3ef07a2bc27cc44bc96e2",
    }
    # the same runs under the current keys
    KEYED = {
        ("spin_current", False):
            "57d0fa500edc0face1384dc1fa1075f9829a0fd0aecb0cc7a6ee89a5f3ffe121",
        ("spin_current", True):
            "f4f15d03dcd7eeec4d8cca84365efa4adff4ea4722f8494a9a70aa64584a0357",
        ("spin_transport", False):
            "37f6c1edac2b844d3e67d933e3ad1ead4bcaacd8862fc6a14bfe0d3f80c94064",
        ("spin_transport", True):
            "7cb15122246f48eb25d420a989a41d5c0a3b1737b3b490f19512362ef93f37b4",
        ("thermal_transport", False):
            "a28dae843ce749440e42509694b61738c8db9f34c86a1768a3f67010cfa02804",
        ("thermal_transport", True):
            "516e7226575720e9f6fa3f5735ca11db6d95a8fab8aa448ddcc09332275aac7f",
    }

    @staticmethod
    def _digest(tmp_path, experiment, correction):
        cfg = parse_config({
            "experiment": experiment, "noise": "lindblad",
            "readout": "table-s1", "readout_correction": correction,
            "t_max": 20, "dt_sample": 10,
        })
        summary = run(cfg, out_dir=str(tmp_path))
        (name,) = summary["outputs"]
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    @pytest.mark.parametrize("experiment, correction", sorted(GOLDEN))
    def test_csv_hash(self, tmp_path, monkeypatch, experiment, correction):
        monkeypatch.setattr(cli, "_derive_seeds", _former_keys)
        assert self._digest(tmp_path, experiment, correction) \
            == self.GOLDEN[(experiment, correction)]

    @pytest.mark.parametrize("experiment, correction", sorted(KEYED))
    def test_keyed_csv_hash(self, tmp_path, experiment, correction):
        assert self._digest(tmp_path, experiment, correction) \
            == self.KEYED[(experiment, correction)]


def _former_born(support, stack, basis, confusion):
    """The Born kernel of the first pinned perfect-readout hashes, on state
    vectors: |W psi|^2 with W = U[:, support] of the pre-rotation built one
    qubit at a time (or |amp|^2 scattered in Z on every qubit), clipped and
    normalised, then the confusion product one qubit at a time on the (T, 2,
    ..., 2) view."""
    n, size, rows = len(basis), support.size, len(stack)
    probs = np.zeros((rows, 1 << n))
    if set(basis) == {"Z"}:
        probs[:, support] = np.abs(stack) ** 2
    else:
        sq2 = 1.0 / np.sqrt(2.0)
        rot = {"Z": np.eye(2, dtype=complex),
               "X": np.array([[sq2, sq2], [-sq2, sq2]], dtype=complex),
               "Y": np.array([[sq2, -1j * sq2], [-1j * sq2, sq2]], dtype=complex)}
        w = np.ones((1, size), dtype=complex)
        for q, axis in enumerate(basis):
            w = (w[:, None] * rot[axis][:, support >> (n - 1 - q) & 1]
                 ).reshape(-1, size)
        probs = np.abs(stack @ w.T) ** 2
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    for q, c in enumerate(confusion):
        probs = np.matmul(c.matrix, probs.reshape(rows << q, 2, -1))
    return np.minimum(probs.reshape(rows, -1), 1.0)


class TestGoldenPerfectReadout:
    """SHA-256 of the CSVs of ideal shot thermal_transport runs at paper
    settings with perfect readout, seeds 0-3. Outcomes with p near 1 sit
    next to outcomes with p near 1e-35 there, so a last-bit change in p
    moves a binomial draw: these pin the state-vector Born kernel to the
    bit.

    FORMER was pinned under the dense rotation W = U[:, support]
    (_former_born) and still holds with it patched in, so nothing but the
    kernel's last bits moved when the per-qubit butterflies replaced it;
    GOLDEN pins the butterflies."""

    FORMER = {
        0: "b52c1d126062e19e1bcfcd4e297965279676b72afdc5dcab4a9a67ae4123c968",
        1: "cb252cf2bec033d01e20754216e2aab8ff027a1511e2db1dd41fd6566843c678",
        2: "7248afe931d4b07b0cb2d2dde9d367c5d6114f7dfff66a0feb3a322a4a33d174",
        3: "f17af75bfbf9f4193650cd206645d02b4809dc084a99dd911d645272ed5b3cad",
    }
    GOLDEN = {
        0: "c640667b66fff3fa9865f9f7c2a1568debe21ea709b073d7ae3ae94db0834e04",
        1: "b0ba44eaa15e2973407f58bf8e35c7cc7bf4e5b6e0133a9ad799e3c76bf130c0",
        2: "4984eda70a2506e68bd4401065afd7c60c4facff1ae4739cff8c7890875ebac8",
        3: "6e3b75ce36ab9759f67452fcd45128186c880324d3743942626c113e50da764f",
    }

    @staticmethod
    def _digest(tmp_path, seed):
        cfg = parse_config({"experiment": "thermal_transport",
                            "noise": "ideal", "readout": "perfect",
                            "shots": {"seed": seed}})
        run(cfg, out_dir=str(tmp_path))
        csv = tmp_path / "thermal_transport_F15.csv"
        return hashlib.sha256(csv.read_bytes()).hexdigest()

    @pytest.mark.parametrize("seed", sorted(FORMER))
    def test_former_kernel_hash(self, tmp_path, monkeypatch, seed):
        monkeypatch.setattr(measurement, "_outcome_probabilities",
                            _former_born)
        assert self._digest(tmp_path, seed) == self.FORMER[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_csv_hash(self, tmp_path, seed):
        assert self._digest(tmp_path, seed) == self.GOLDEN[seed]


class TestGoldenScan:
    """SHA-256 of the ideal scan at paper settings: the wavefront peaks, the
    boundary lengths and the scan table's format, to the bit."""

    GOLDEN = "48931b24204c7cfbf31c7a4aea8d9d85f7c70d2f36c37fec78d5844f25809a77"

    def test_csv_hash(self, tmp_path):
        run(parse_config({"experiment": "wsl_scan"}), out_dir=str(tmp_path))
        digest = hashlib.sha256((tmp_path / "wsl_scan.csv").read_bytes()).hexdigest()
        assert digest == self.GOLDEN


class TestGoldenShotFree:
    """SHA-256 of the CSVs of shot-free runs: the four per-gradient
    experiments at paper settings, and two larger chains on the paper grid at
    F = 15, an ideal 10-qubit spin_transport and a 6-qubit decoherence_check
    with T1 = 20 us and T2* = 2 us. They pin the operator builders, both
    solvers and the CSV format to the bit."""

    GRID = {"t_max": 300.0, "dt_sample": 2.0, "F": 15.0}
    CONFIGS = {
        "spin_transport": {"experiment": "spin_transport"},
        "thermal_transport": {"experiment": "thermal_transport"},
        "spin_current": {"experiment": "spin_current"},
        "decoherence_check": {"experiment": "decoherence_check"},
        "spin_transport_n10": _uniform(10, experiment="spin_transport", **GRID),
        "decoherence_check_n6": _uniform(
            6, experiment="decoherence_check", **GRID,
            device={"n_qubits": 6, "coupling_mhz": [14.4] * 5,
                    "t1_us": [20.0] * 6, "t2star_us": [2.0] * 6}),
    }
    GOLDEN = {
        "spin_transport":
            "edaa06c5a93851b3289973afaf95709ac7047d62941f3f8bcba6a680e10f80a3",
        "thermal_transport":
            "fd78f106187dd680b994ed5c39b4d0de83f9fe3620cd92452ffc70810fd45686",
        "spin_current":
            "5abc78a8383703f5bc11b559967687b0d0778dd1962b73a607ac25a34f655b68",
        "decoherence_check":
            "7bb1818669b2306c679311dea27c090662b5bda2e32582dd8ca2bb577f4b435d",
        "spin_transport_n10":
            "045ffd19d909b08a43570125d48bbfd0259c8b4290c49126e47eb01264925172",
        "decoherence_check_n6":
            "20f5ac0c054cb4f3161e147a29fb9c85a9a067b189bef71f739e661968589331",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_csv_hash(self, tmp_path, name):
        cfg = parse_config(self.CONFIGS[name])
        assert cfg.noise == "ideal" and cfg.shots is None
        summary = run(cfg, out_dir=str(tmp_path))
        (output,) = summary["outputs"]
        assert output == f"{cfg.experiment}_F15.csv"
        digest = hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        assert digest == self.GOLDEN[name]


def test_version_is_looked_up_once_per_process(tmp_path, monkeypatch):
    # importlib.metadata.version scans every sys.path entry, so a run reads
    # the package version through a cache
    lookups = []
    version = cli.metadata.version

    def counted(name):
        lookups.append(name)
        return version(name)

    monkeypatch.setattr(cli.metadata, "version", counted)
    cli._version.cache_clear()
    cfg = parse_config({"experiment": "spin_transport", "t_max": 20})
    first = run(cfg, out_dir=str(tmp_path / "a"))
    second = run(cfg, out_dir=str(tmp_path / "b"))
    assert lookups == ["starkchain"]
    assert first["versions"] == second["versions"]


class TestWslScan:
    def test_theory_route(self, tmp_path):
        cfg = parse_config({"experiment": "wsl_scan"})
        summary = run(cfg, out_dir=str(tmp_path))
        header, data = _read_csv(tmp_path / "wsl_scan.csv")
        assert header == ["F_mhz", "p5max", "ln_p5max", "xi_boundary"]
        cols = _cols(header, data)
        np.testing.assert_allclose(cols["F_mhz"], [5, 7.5, 10, 12.5, 15])
        np.testing.assert_allclose(cols["ln_p5max"], np.log(cols["p5max"]),
                                   atol=1e-9)
        fit = summary["fits"]["ln_p5max_vs_F"]
        assert fit["slope"] < 0
        assert fit["r_squared"] > 0.98

    def test_boundary_length_tracks_analytic(self, tmp_path):
        # xi_boundary is proportional, not equal, to 2g/F; over the scan the
        # two correlate strongly
        cfg = parse_config({"experiment": "wsl_scan", "F": [7.5, 10, 12.5, 15]})
        run(cfg, out_dir=str(tmp_path))
        header, data = _read_csv(tmp_path / "wsl_scan.csv")
        cols = _cols(header, data)
        g_mean = np.mean([14.60, 14.65, 14.17, 14.26])
        analytic = 2 * g_mean / cols["F_mhz"]
        r = np.corrcoef(cols["xi_boundary"], analytic)[0, 1]
        assert r > 0.9

    def test_too_short_for_a_wavefront(self, tmp_path, capsys):
        # the config is valid but no front arrives within 4 ns: run raises,
        # the command line prints one line and exits 2
        p = tmp_path / "c.yaml"
        p.write_text("experiment: wsl_scan\nnoise: ideal\nt_max: 4\n")
        with pytest.raises(NoWavefrontError):
            run(parse_config({"experiment": "wsl_scan", "noise": "ideal",
                              "t_max": 4}), out_dir=str(tmp_path / "run"))
        assert main(["wsl_scan", "--config", str(p),
                     "--out", str(tmp_path / "main")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no first-wavefront peak")
        assert err.count("\n") == 1
        # the output directory is made with the first file written
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "main").exists()


    def test_short_scan_names_t_max_and_the_gradient(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("experiment: wsl_scan\nt_max: 10\n")
        assert main(["wsl_scan", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.count("error:") == 1
        assert err.startswith("error: no first-wavefront peak")
        assert "F[0] = 5 MHz" in err and "t_max = 10 ns" in err
        assert "Traceback" not in err


class TestNoisyWslScan:
    # the benchmark's noisy scan: paper device and grid, Lindblad noise,
    # uncorrected table-s1 readout, 600 shots in 6 groups. Seeds 0-9 all
    # finish, and each slope of ln P5max vs F lies within 0.15 of the ideal
    # shot-free scan's (about -0.270); seeds 10-19 gave -0.235 to -0.368 as well.
    BAND = 0.15

    def test_seeds_finish_within_the_band(self, tmp_path):
        ideal = run(parse_config({"experiment": "wsl_scan", "device": "paper-device"}),
                    out_dir=str(tmp_path / "ideal"))["fits"]
        ideal_slope = ideal["ln_p5max_vs_F"]["slope"]
        assert ideal_slope == pytest.approx(-0.270, abs=0.005)
        for seed in range(10):
            cfg = parse_config({
                "experiment": "wsl_scan", "device": "paper-device",
                "t_max": 300.0, "dt_sample": 2.0, "noise": "lindblad",
                "readout": "table-s1", "shots": {"seed": seed}})
            fit = run(cfg, out_dir=str(tmp_path / str(seed)))["fits"]
            slope = fit["ln_p5max_vs_F"]["slope"]
            assert abs(slope - ideal_slope) <= self.BAND, (seed, slope)

    def test_one_group(self, tmp_path):
        # the scan reads only the group means, so one group takes no spread
        # (a std with ddof=1 over one group warns, an error in this suite)
        cfg = parse_config({
            "experiment": "wsl_scan", "device": "paper-device",
            "t_max": 300.0, "dt_sample": 2.0, "noise": "lindblad",
            "readout": "table-s1", "shots": {"n_shots": 600, "n_groups": 1}})
        run(cfg, out_dir=str(tmp_path))
        header, data = _read_csv(tmp_path / "wsl_scan.csv")
        assert header == ["F_mhz", "p5max", "ln_p5max", "xi_boundary"]
        assert np.all((data[:, 1] > 0) & (data[:, 1] < 1))

    def test_peak_out_of_range_names_the_gradient(self, tmp_path, capsys):
        # two shots from 101X- on 4 qubits: the Gaussian fit's amplitude at
        # F = 2.5 MHz is 3.2, no probability; the one error line names the
        # gradient, as the no-wavefront refusal does
        p = tmp_path / "c.yaml"
        p.write_text(
            "experiment: wsl_scan\ndevice: {n_qubits: 4, coupling_mhz: "
            "[14.4, 14.4, 14.4], t1_us: [0.5, 0.5, 0.5, 0.5], t2star_us: "
            "[5.0, 5.0, 5.0, 5.0]}\nF: [2.5]\ninitial_state: '101X-'\n"
            "t_max: 20\ndt_sample: 0.5\nnoise: lindblad\ndephasing: pure\n"
            "readout_correction: true\n"
            "shots: {n_shots: 2, n_groups: 1, seed: 1}\n")
        assert main(["wsl_scan", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: P5max must lie strictly in (0, 1), got 3.2")
        assert err.endswith(" at F[0] = 2.5 MHz\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()


def test_noisy_scan_finishes_on_thirty_more_seeds(tmp_path):
    # seeds 10-39 of the benchmark's noisy scan; seed 19 detects the
    # front at F = 15 MHz within the first samples, which the fit window's
    # floor of 5 samples lets it fit
    for seed in range(10, 40):
        cfg = parse_config({
            "experiment": "wsl_scan", "device": "paper-device",
            "t_max": 300.0, "dt_sample": 2.0, "noise": "lindblad",
            "readout": "table-s1", "shots": {"seed": seed}})
        fit = run(cfg, out_dir=str(tmp_path / str(seed)))["fits"]
        slope = fit["ln_p5max_vs_F"]["slope"]
        assert abs(slope + 0.270) <= TestNoisyWslScan.BAND, (seed, slope)


class TestThermalTransport:
    def test_no_crossing_lindblad_shots(self, tmp_path):
        """The tilted-chain run keeps the bulk kinetic ordering even through
        dissipation and finite shot statistics: K1 > K4 at every sampled t."""
        cfg = parse_config({
            "experiment": "thermal_transport", "F": 15, "noise": "lindblad",
            "shots": {"n_shots": 2000, "n_groups": 10, "seed": 0},
        })
        summary = run(cfg, out_dir=str(tmp_path))
        header, data = _read_csv(tmp_path / "thermal_transport_F15.csv")
        assert header[:3] == ["t_ns", "K1", "K1_err"]
        cols = _cols(header, data)
        assert np.all(cols["K1"] > cols["K4"])
        assert "K4_err" in header

    def test_exact_initial_values(self, tmp_path):
        cfg = parse_config({"experiment": "thermal_transport", "F": 0,
                            "t_max": 30, "dt_sample": 10})
        run(cfg, out_dir=str(tmp_path))
        header, data = _read_csv(tmp_path / "thermal_transport_F0.csv")
        cols = _cols(header, data)
        # K reported in ordinary-frequency units: K1(0) = g1/2 = 7.30
        assert cols["K1"][0] == pytest.approx(7.30, abs=1e-9)
        assert cols["K4"][0] == pytest.approx(0.0, abs=1e-9)


class TestSpinCurrent:
    def test_zero_at_t0_and_sector_path(self, tmp_path):
        cfg = parse_config({"experiment": "spin_current", "F": 0,
                            "t_max": 80, "dt_sample": 8})
        run(cfg, out_dir=str(tmp_path))
        header, data = _read_csv(tmp_path / "spin_current_F0.csv")
        assert header == ["t_ns", "J1", "J2", "J3", "J4"]
        cols = _cols(header, data)
        for b in range(1, 5):
            assert cols[f"J{b}"][0] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(cols["J4"])) > 0.5  # ballistic arrival at F = 0

    @pytest.mark.parametrize("experiment", ["spin_transport", "spin_current"])
    def test_sector_and_full_paths_agree(self, tmp_path, experiment):
        # the sector route (ideal, no shots) against the full-space
        # density-matrix route with negligible dissipation
        base = {"experiment": experiment, "F": 10, "t_max": 60,
                "dt_sample": 12}
        run(parse_config(base), out_dir=str(tmp_path / "sector"))
        slow = dict(base, noise="lindblad", shots="none",
                    device={"preset": "paper-device",
                            "t1_us": [1e9] * 5, "t2star_us": [1e9] * 5})
        run(parse_config(slow), out_dir=str(tmp_path / "full"))
        name = f"{experiment}_F10.csv"
        _, da = _read_csv(tmp_path / "sector" / name)
        _, db = _read_csv(tmp_path / "full" / name)
        np.testing.assert_allclose(da, db, atol=1e-6)


class TestDecoherenceCheck:
    def test_paired_columns(self, tmp_path):
        cfg = parse_config({"experiment": "decoherence_check", "t_max": 60,
                            "dt_sample": 20})
        run(cfg, out_dir=str(tmp_path))
        header, data = _read_csv(tmp_path / "decoherence_check_F15.csv")
        assert header[:3] == ["t_ns", "P1_ideal", "P1_lindblad"]
        cols = _cols(header, data)
        ideal_total = sum(cols[f"P{j}_ideal"] for j in range(1, 6))
        lind_total = sum(cols[f"P{j}_lindblad"] for j in range(1, 6))
        np.testing.assert_allclose(ideal_total, 1.0, atol=1e-9)
        # dissipation leaks population out of the excited manifold
        assert lind_total[-1] < 1.0 - 1e-3
        assert np.all(lind_total <= 1.0 + 1e-9)


class TestOutputHygiene:
    def test_no_stray_files(self, tmp_path):
        cfg = parse_config({"experiment": "spin_transport", "t_max": 20,
                            "dt_sample": 10})
        run(cfg, out_dir=str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert names == ["spin_transport_F15.csv", "summary.json"]

    @pytest.mark.parametrize("grid", [[15, 15.0], [15.0000001, 15.0000002]])
    def test_one_file_per_gradient(self, grid):
        # both gradients format as F15; the second CSV would overwrite the
        # first
        raw = {"experiment": "spin_transport", "t_max": 20, "dt_sample": 10,
               "F": grid}
        with pytest.raises(ConfigError, match=r"^F\[1\]: .* F15 with F\[0\]$"):
            parse_config(raw)
        # the scan writes one table: it takes distinct gradients that share
        # a label, and refuses a repeated one, which adds no point to its fit
        scan = dict(raw, experiment="wsl_scan")
        if grid[0] == grid[1]:
            with pytest.raises(ConfigError, match=r"^F\[1\]: .* repeats F\[0\]"):
                parse_config(scan)
        else:
            assert parse_config(scan).gradients_mhz == tuple(grid)

    def test_fractional_gradient_label(self, tmp_path):
        cfg = parse_config({"experiment": "spin_transport", "F": 7.5,
                            "t_max": 20, "dt_sample": 10})
        summary = run(cfg, out_dir=str(tmp_path))
        assert summary["outputs"] == ["spin_transport_F7p5.csv"]


def _per_value_csv(key, keys, columns, errors=None):
    """Reference: every value formatted on its own with CSV_FORMAT."""
    errors = errors or {}
    header = [key]
    for name in columns:
        header += [name, name + "_err"] if name in errors else [name]
    lines = [",".join(header)]
    for i, k in enumerate(keys):
        row = [cli.CSV_FORMAT % k]
        for name in columns:
            row.append(cli.CSV_FORMAT % columns[name][i])
            if name in errors:
                row.append(cli.CSV_FORMAT % errors[name][i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


_CSV_VALUES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                     2.2e-308, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=200, deadline=None)
@given(n_rows=st.integers(0, 6), n_cols=st.integers(0, 4), data=st.data())
def test_csv_table_formats_as_each_value(n_rows, n_cols, data):
    def column():
        return data.draw(st.lists(_CSV_VALUES, min_size=n_rows,
                                  max_size=n_rows))

    keys = column()
    columns = {f"c{j}": np.array(column(), dtype=float) for j in range(n_cols)}
    errors = {name: np.array(column(), dtype=float) for name in columns
              if data.draw(st.booleans())}
    assert cli._csv_text("t_ns", keys, columns, errors) \
        == _per_value_csv("t_ns", keys, columns, errors)


@pytest.mark.parametrize("experiment, settings_", [
    ("spin_transport", 1), ("thermal_transport", 2), ("spin_current", 2)])
def test_one_estimate_pass_per_setting(tmp_path, monkeypatch, experiment,
                                       settings_):
    # one group_means call estimates every name of a readout setting
    calls, group_means = [], cli.group_means

    def counted(record, estimator, confusion=None):
        calls.append(estimator)
        return group_means(record, estimator, confusion)

    monkeypatch.setattr(cli, "group_means", counted)
    run(parse_config({"experiment": experiment, "noise": "lindblad",
                      "readout_correction": True, "t_max": 20,
                      "dt_sample": 10}), out_dir=str(tmp_path))
    assert len(calls) == settings_
    assert all(not isinstance(names, str) for names in calls)


def test_runner_samples_through_the_traced_name(tmp_path, monkeypatch):
    # the runner draws its shots through the name cli.sample_shots, the
    # binding perfbench's tracer wraps for measurement.sample_shots: one
    # call per (gradient, setting), and a wrapper there leaves the CSVs be
    cfg = parse_config({"experiment": "thermal_transport", "noise": "lindblad",
                        "F": [10, 15], "t_max": 20})
    plain = run(cfg, out_dir=str(tmp_path / "plain"))
    calls, sample_shots = [], cli.sample_shots

    def counted(*args, **kwargs):
        calls.append(args[2])  # the measurement basis
        return sample_shots(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_shots", counted)
    wrapped = run(cfg, out_dir=str(tmp_path / "wrapped"))
    assert len(calls) == 4 and len(set(calls)) == 2
    assert wrapped["outputs"] == plain["outputs"] and len(plain["outputs"]) == 2
    for name in plain["outputs"]:
        assert (tmp_path / "wrapped" / name).read_bytes() \
            == (tmp_path / "plain" / name).read_bytes()


def test_runs_evolve_through_the_traced_names(tmp_path, monkeypatch):
    # the runner and trajectory call the solvers through the names cli and
    # observables bind, the bindings perfbench's tracer wraps for
    # dynamics.evolve_unitary and dynamics.evolve_lindblad: one call per
    # gradient and noise model
    calls = []
    for module in (cli, observables):
        for name in ("evolve_unitary", "evolve_lindblad"):
            def counted(*args, _solver=getattr(module, name),
                        _key=f"{module.__name__.split('.')[-1]}.{name}"):
                calls.append(_key)
                return _solver(*args)

            monkeypatch.setattr(module, name, counted)
    base = {"F": [10, 15], "t_max": 20}
    for raw, want in (
            ({"experiment": "spin_current", "noise": "lindblad"},
             ["cli.evolve_lindblad"] * 2),
            ({"experiment": "spin_transport", "shots": "paper"},
             ["cli.evolve_unitary"] * 2),
            ({"experiment": "decoherence_check"},
             ["observables.evolve_unitary", "observables.evolve_lindblad"] * 2)):
        calls.clear()
        run(parse_config(dict(base, **raw)), out_dir=str(tmp_path))
        assert calls == want
