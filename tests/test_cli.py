"""End-to-end runner tests: CSV artifacts, summaries, reproducibility."""

import hashlib
import json
import os

import numpy as np
import pytest

from starkchain import (
    NoWavefrontError,
    PotentialSpec,
    parse_config,
    propagate_single_particle,
    single_particle_matrix,
)
from starkchain.cli import main, run


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


class TestGoldenShots:
    """SHA-256 of the CSVs of short noisy shot runs (paper shots, seed 0,
    table-s1 readout), with and without readout correction. They pin the
    sampler and the estimators, the correction path included, to the bit."""

    GOLDEN = {
        ("spin_transport", False):
            "5d3b752c0774d5259d03ae6f9aa7483e3632c230db0702799b9dbc2404f0aaef",
        ("spin_transport", True):
            "51e4962f9486f6c569a2c7b6c210872c043d19dcf8897e30055ee9c7eb28290f",
        ("thermal_transport", False):
            "bfdadf809a11d23a7ab17d5c6c89635bc4f69d32ce4f89f38226167d5cc72f85",
        ("thermal_transport", True):
            "58502fa8516d47f5eadd6fa898fb9a232fd2d465d1c1e91c852c07e0b735b3ab",
        ("spin_current", False):
            "86de7de5bc31103519fc8eb8f31158deb9f9a7a356c9eaf279880950a6f81f51",
        ("spin_current", True):
            "56716615113d699f705ee2ac600499cef676c4761a7d9ec5de6caf1ddd30cbdd",
    }

    @pytest.mark.parametrize("experiment, correction", sorted(GOLDEN))
    def test_csv_hash(self, tmp_path, experiment, correction):
        cfg = parse_config({
            "experiment": experiment, "noise": "lindblad",
            "readout": "table-s1", "readout_correction": correction,
            "t_max": 20, "dt_sample": 10,
        })
        summary = run(cfg, out_dir=str(tmp_path))
        (name,) = summary["outputs"]
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == self.GOLDEN[(experiment, correction)]


class TestGoldenScan:
    """SHA-256 of the ideal scan at paper settings: the wavefront peaks, the
    boundary lengths and the scan table's format, to the bit."""

    GOLDEN = "48931b24204c7cfbf31c7a4aea8d9d85f7c70d2f36c37fec78d5844f25809a77"

    def test_csv_hash(self, tmp_path):
        run(parse_config({"experiment": "wsl_scan"}), out_dir=str(tmp_path))
        digest = hashlib.sha256((tmp_path / "wsl_scan.csv").read_bytes()).hexdigest()
        assert digest == self.GOLDEN


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

    def test_fractional_gradient_label(self, tmp_path):
        cfg = parse_config({"experiment": "spin_transport", "F": 7.5,
                            "t_max": 20, "dt_sample": 10})
        summary = run(cfg, out_dir=str(tmp_path))
        assert summary["outputs"] == ["spin_transport_F7p5.csv"]
