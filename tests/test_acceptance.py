"""Acceptance suite: twelve numbered criteria, one verdict line each.

Each test prints "ACCEPTANCE n PASS" once its assertions hold, so a -s or
-rA pytest run reads as a checklist. Frozen numbers are regression values
computed once from the exact-diagonalization oracles on the standard
sampling grid (dt = 2 ns unless stated) and the descending ramp convention
used by the experiment runner.
"""

import numpy as np
import pytest

from starkchain import (
    ANGULAR_PER_MHZ,
    DeviceParams,
    PotentialSpec,
    QuantumState,
    build_bose_hubbard_hamiltonian,
    build_observable,
    build_sector_basis,
    build_xy_hamiltonian,
    confusion_from_device,
    evolve_lindblad,
    evolve_unitary,
    fit_localization_length,
    full_index,
    group_means,
    make_collapse_ops,
    paper_device,
    parse_config,
    prepare_initial_state,
    propagate_single_particle,
    sample_shots,
    single_particle_matrix,
    time_averaged_profile,
    trajectory,
    two_excitation_slater,
)
from starkchain import cli
from starkchain.model import fock_tag

GRID = np.arange(0.0, 300.0 + 1e-9, 2.0)


def _report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def _densities(h, state, dev, times, **space):
    """(T, n) site densities at times; space passes basis or fock_cutoff on
    to the density operators."""
    amps = evolve_unitary(h, state, times)
    dens = np.empty((len(times), dev.n_qubits))
    for j in range(1, dev.n_qubits + 1):
        nj = build_observable("density", j, dev, **space).todense()
        dens[:, j - 1] = np.einsum("ti,ij,tj->t", amps.conj(), nj, amps).real
    return dens


def _sector_densities(dev, pot, spec, times, n_exc):
    b = build_sector_basis(dev.n_qubits, n_exc)
    h = build_xy_hamiltonian(dev, pot, basis=b)
    st = prepare_initial_state(spec, dev.n_qubits, basis=b)
    return _densities(h, st, dev, times, basis=b)


def test_criterion_01_free_fermion_vs_ed():
    """1: free-fermion solver equals exact diagonalization to 1e-8."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for length in range(4, 9):
        f = float(rng.uniform(0, 20))
        pot = PotentialSpec.linear(-f)
        dev = DeviceParams.uniform(length, coupling_mhz=14.4)
        m = single_particle_matrix(dev, pot)
        times = np.sort(rng.uniform(0, 300, size=50))

        spec1 = "1" + "0" * (length - 1)
        fast1 = propagate_single_particle(m, 1, times)
        slow1 = _sector_densities(dev, pot, spec1, times, 1)
        worst = max(worst, float(np.max(np.abs(fast1 - slow1))))

        spec2 = "11" + "0" * (length - 2)
        fast2, _ = two_excitation_slater(m, (1, 2), times)
        slow2 = _sector_densities(dev, pot, spec2, times, 2)
        worst = max(worst, float(np.max(np.abs(fast2 - slow2))))
    assert worst <= 1e-8
    _report(1, f"free fermion vs ED, L=4..8, both sectors, max dev {worst:.2e}")


def test_criterion_02_two_level_swap():
    """2: 2-site chain follows P2(t) = sin^2(gt) to 1e-10."""
    g_mhz = 14.60
    dev = DeviceParams.uniform(2, coupling_mhz=g_mhz)
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(0.0))
    st = prepare_initial_state("10", 2)
    g = g_mhz * ANGULAR_PER_MHZ
    t_full = np.pi / (2.0 * g)
    times = np.linspace(0.0, 3.0 * t_full, 301)
    amps = evolve_unitary(h, st, times)
    p2 = np.abs(amps[:, full_index((0, 1))]) ** 2
    dev_max = float(np.max(np.abs(p2 - np.sin(g * times) ** 2)))
    assert dev_max <= 1e-10
    at_swap = np.abs(evolve_unitary(h, st, [t_full])[0, full_index((0, 1))]) ** 2
    assert at_swap == pytest.approx(1.0, abs=1e-10)
    _report(2, f"sin^2 law to {dev_max:.1e}, full transfer at pi/2g = {t_full:.3f} ns")


def test_criterion_03_conservation_suite():
    """3: unitary conserves norm/excitation/energy; Lindblad keeps trace and
    Hermiticity."""
    dev = paper_device()
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0))
    st = prepare_initial_state("X+X+000", 5)
    amps = evolve_unitary(h, st, GRID)
    norm_drift = float(np.max(np.abs(np.linalg.norm(amps, axis=1) - 1.0)))

    ntot = sum(build_observable("density", j, dev).todense() for j in range(1, 6))
    n_vals = np.einsum("ti,ij,tj->t", amps.conj(), ntot, amps).real
    n_drift = float(np.max(np.abs(n_vals - n_vals[0])))

    hd = h.todense()
    e_vals = np.einsum("ti,ij,tj->t", amps.conj(), hd, amps).real
    e_drift = float(np.max(np.abs(e_vals - e_vals[0])))
    assert norm_drift <= 1e-9
    assert n_drift <= 1e-9
    assert e_drift <= 1e-9

    col = make_collapse_ops(dev)
    st2 = prepare_initial_state("10000", 5)
    rhos = evolve_lindblad(h, st2, np.linspace(0, 300, 11), col).matrices()
    tr_drift = float(max(abs(np.trace(r).real - 1.0) for r in rhos))
    herm_drift = float(max(np.max(np.abs(r - r.conj().T)) for r in rhos))
    assert tr_drift <= 1e-8
    assert herm_drift <= 1e-10
    _report(3, f"unitary drifts {norm_drift:.1e}/{n_drift:.1e}/{e_drift:.1e}, "
               f"lindblad trace {tr_drift:.1e}, herm {herm_drift:.1e}")


def test_criterion_04_amplitude_damping():
    """4: <n>(T1) = 1/e within 1e-6 against the closed form."""
    # decoupled two-site chain so qubit 1 relaxes alone; the propagator is
    # exact over the whole 17 us interval
    dev = DeviceParams.uniform(2, coupling_mhz=0.0, t1_us=17.0, t2star_us=1e9)
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(0.0))
    st = prepare_initial_state("10", 2)
    col = make_collapse_ops(dev)
    t1_ns = 17000.0
    rho = evolve_lindblad(h, st, [t1_ns], col).matrices()[0]
    n1 = build_observable("density", 1, dev).todense()
    got = float(np.trace(rho @ n1).real)
    assert got == pytest.approx(np.exp(-1.0), abs=1e-6)
    _report(4, f"<n>(17 us) = {got:.8f} vs 1/e = {np.exp(-1.0):.8f}")


def test_criterion_05_localization_suppresses_arrival():
    """5: max_t P5 at F=0 exceeds the F=15 MHz value by at least 5x."""
    dev = paper_device()
    st = prepare_initial_state("10000", 5)
    peaks = {}
    for f in (0.0, 15.0):
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(-f))
        amps = evolve_unitary(h, st, GRID)
        p5 = np.abs(amps[:, full_index((0, 0, 0, 0, 1))]) ** 2
        peaks[f] = float(p5.max())
    ratio = peaks[0.0] / peaks[15.0]
    assert ratio >= 5.0
    assert ratio == pytest.approx(23.9995, abs=1e-3)  # frozen regression
    assert peaks[15.0] == pytest.approx(0.04098419, abs=1e-7)
    _report(5, f"suppression factor {ratio:.4f} (>= 5 required)")


def test_criterion_06_log_linear_scan(tmp_path):
    """6: ln P5max vs F from the CLI's wsl_scan is linear with R^2 >= 0.98
    and negative slope."""
    summary = cli.run(parse_config({"experiment": "wsl_scan",
                                    "device": "paper-device"}),
                      out_dir=tmp_path)
    # the table prints 9 significant digits; the fit reads the unrounded peaks
    with open(tmp_path / "wsl_scan.csv") as fh:
        assert next(fh) == "F_mhz,p5max,ln_p5max,xi_boundary\n"
        table = np.array([[float(x) for x in line.split(",")] for line in fh])
    frozen = {5.0: 0.595202073, 7.5: 0.352569064, 10.0: 0.182680629,
              12.5: 0.0870954453, 15.0: 0.0409841906}
    assert list(table[:, 0]) == sorted(frozen)
    for f, p in table[:, :2]:
        assert p == pytest.approx(frozen[f], abs=1e-7)
    fit = summary["fits"]["ln_p5max_vs_F"]
    assert fit["slope"] < 0
    assert fit["r_squared"] >= 0.98
    assert fit["slope"] == pytest.approx(-0.26998684316051685, rel=1e-9)
    assert fit["intercept"] == pytest.approx(0.92052873583068, rel=1e-9)
    assert fit["r_squared"] == pytest.approx(0.9950708036085539, rel=1e-9)
    assert fit["slope_stderr"] == pytest.approx(0.010970919858153638, rel=1e-6)
    # the boundary-length proxy stays finite and ordered over the scan
    frozen_xi = [7.70929315, 3.83689826, 2.35291925, 1.63884006, 1.25212514]
    np.testing.assert_allclose(table[:, 3], frozen_xi, atol=1e-6)
    _report(6, f"slope {fit['slope']:.6f}, R^2 {fit['r_squared']:.6f}")


def test_criterion_07_wsl_length_law():
    """7: tail-fitted xi within 15% of 2g/F on the 41-site chain."""
    g = 14.4
    dev = DeviceParams.uniform(41, coupling_mhz=g)
    frozen = {0.6: 3.250, 1.0: 1.861, 1.5: 1.324, 2.0: 1.072}
    lines = []
    for fg in (0.6, 1.0, 1.5, 2.0):
        f = fg * g
        xi_ws = 2.0 / fg
        m = single_particle_matrix(dev, PotentialSpec.linear(-f))
        avg = time_averaged_profile(m, 21, f)
        xi = fit_localization_length(avg, 21, xi_guess=xi_ws)
        err = abs(xi - xi_ws) / xi_ws
        assert err <= 0.15
        assert xi == pytest.approx(frozen[fg], abs=2e-3)
        lines.append(f"F/g={fg}: {xi:.3f} vs {xi_ws:.3f} ({100 * err:.1f}%)")
    _report(7, "; ".join(lines))


def test_criterion_08_bloch_period():
    """8: 21-site revival period equals 1/F within 2%; the 5-site apparent
    period is reported, not enforced."""
    f = 15.0
    t_b = 1e3 / f
    dev = DeviceParams.uniform(21, coupling_mhz=14.4)
    m = single_particle_matrix(dev, PotentialSpec.linear(-f))
    t = np.arange(0.0, 100.0, 0.01)
    p0 = propagate_single_particle(m, 11, t)[:, 10]
    window = (t > 0.5 * t_b) & (t < 1.5 * t_b)
    t_rev = float(t[window][np.argmax(p0[window])])
    assert abs(t_rev - t_b) / t_b <= 0.02
    assert t_rev == pytest.approx(66.67, abs=0.05)  # frozen regression

    # 5-site chain: the boundary interrupts the orbit early, so the apparent
    # period is shorter; report the observed value alongside
    dev5 = paper_device()
    m5 = single_particle_matrix(dev5, PotentialSpec.linear(-f))
    p1 = propagate_single_particle(m5, 1, t)[:, 0]
    w5 = (t > 20.0) & (t < 65.0)
    t_app = float(t[w5][np.argmax(p1[w5])])
    _report(8, f"L=21 revival {t_rev:.2f} ns vs T_B {t_b:.2f} ns "
               f"(5-site apparent period ~{t_app:.1f} ns, informational)")


def _thermal_kinetic_columns(noise):
    dev = paper_device()
    st = prepare_initial_state("X+X+000", 5)
    out = {}
    for f in (0.0, 15.0):
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(-f))
        obs = {
            "K1": build_observable("kinetic", 1, dev),
            "K4": build_observable("kinetic", 4, dev),
        }
        if noise == "ideal":
            tab = trajectory(h, st, GRID, obs)
        else:
            col = make_collapse_ops(dev)
            tab = trajectory(h, st, GRID, obs, collapse=col)
        out[f] = {k: tab.column(k) / ANGULAR_PER_MHZ for k in ("K1", "K4")}
    return out


def test_criterion_09_kinetic_crossing():
    """9: K1/K4 cross at F=0 and never cross at F=15, ideal and Lindblad."""
    for noise in ("ideal", "lindblad"):
        cols = _thermal_kinetic_columns(noise)
        gap0 = cols[0.0]["K1"] - cols[0.0]["K4"]
        gap15 = cols[15.0]["K1"] - cols[15.0]["K4"]
        assert gap0[0] > 0 and gap0.min() < 0  # the curves exchange order
        assert np.all(gap15 > 0)  # no crossing under the tilt
        if noise == "ideal":  # frozen regressions on the exact curves
            assert gap0.min() == pytest.approx(-6.9212, abs=1e-3)
            assert gap15.min() == pytest.approx(3.9683, abs=1e-3)
        _report(9, f"{noise}: F=0 min(K1-K4) {gap0.min():+.4f} (crossing), "
                   f"F=15 min {gap15.min():+.4f} (none)")


def test_criterion_10_spin_current_localization():
    """10: max_t |J4| at F=10 MHz is below 20% of its F=0 value."""
    dev = paper_device()
    b = build_sector_basis(5, 1)
    st = prepare_initial_state("10000", 5, basis=b)
    peaks = {}
    for f in (0.0, 10.0):
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(-f), basis=b)
        j4 = build_observable("spin_current", 4, dev, basis=b)
        tab = trajectory(h, st, GRID, {"J4": j4})
        peaks[f] = float(np.max(np.abs(tab.column("J4"))))
    ratio = peaks[10.0] / peaks[0.0]
    assert ratio < 0.20
    assert peaks[0.0] == pytest.approx(0.93381, abs=1e-4)
    assert peaks[10.0] == pytest.approx(0.17786, abs=1e-4)
    _report(10, f"max|J4|: {peaks[0.0]:.5f} (F=0) vs {peaks[10.0]:.5f} "
                f"(F=10), ratio {ratio:.4f}")


def test_criterion_11_shot_statistics():
    """11: noisy marginals match confusion-transformed Born probabilities
    within 5 sigma; group means are bit-reproducible."""
    dev = paper_device()
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0))
    st_t = QuantumState(evolve_unitary(h, prepare_initial_state("10000", 5),
                                       [40.0])[0], "full:n=5")
    conf = confusion_from_device(dev)
    born = np.empty(5)
    for j in range(1, 6):
        nj = build_observable("density", j, dev)
        born[j - 1] = np.real(np.vdot(st_t.data, nj.todense() @ st_t.data))
    expected = np.array([
        (1 - c.f0) * (1 - p) + c.f1 * p for c, p in zip(conf, born)
    ])
    n = 100_000
    rec = sample_shots(st_t.data[None], conf, "ZZZZZ", n, [2024])
    p_hat = group_means(rec, [f"P{q}" for q in range(1, 6)])[0]
    worst_sigma = 0.0
    for q in range(5):
        sigma = np.sqrt(expected[q] * (1 - expected[q]) / n)
        worst_sigma = max(worst_sigma, abs(p_hat[q] - expected[q]) / sigma)
    assert worst_sigma < 5.0

    a = group_means(sample_shots(st_t.data[None], conf, "ZZZZZ", 600, [7],
                                 n_groups=6), "P5")
    b2 = group_means(sample_shots(st_t.data[None], conf, "ZZZZZ", 600, [7],
                                  n_groups=6), "P5")
    assert a.shape == (6,)
    np.testing.assert_array_equal(a, b2)
    _report(11, f"worst marginal deviation {worst_sigma:.2f} sigma; "
                f"6x100 grouped stats reproduce bit-exactly")


def _truncation_gap(dev, pot, spec):
    """Largest |P_j(t)| difference on GRID between the hard-core chain and
    the cutoff-3 Bose-Hubbard chain, both started from the 0/1 string spec."""
    hard = _densities(build_xy_hamiltonian(dev, pot),
                      prepare_initial_state(spec, dev.n_qubits), dev, GRID)
    vec = np.zeros(3 ** dev.n_qubits, dtype=complex)
    vec[int(spec, 3)] = 1.0  # the same occupations as base-3 digits
    bose = _densities(build_bose_hubbard_hamiltonian(dev, pot, fock_cutoff=3),
                      QuantumState(vec, fock_tag(dev.n_qubits, 3)), dev, GRID,
                      fock_cutoff=3)
    return float(np.max(np.abs(hard - bose)))


def test_criterion_12_truncation_check():
    """12: the cutoff-3 Bose-Hubbard chain tends to the hard-core chain as
    |U| grows, from two excitations; one excitation never tells them apart."""
    pot = PotentialSpec.linear(-15.0)
    # one excitation never reaches double occupancy: agreement to roundoff
    single = _truncation_gap(paper_device(), pot, "10000")
    assert single < 0.02
    # two neighbouring excitations hop through a doublon detuned from them by
    # about U, so the gap falls as 1/|U|; the tilt shifts that detuning by F,
    # so the frozen gaps at U = -200 and +200 MHz differ
    gaps = {u: _truncation_gap(DeviceParams.uniform(5, anharmonicity_mhz=u),
                               pot, "11000")
            for u in (-200.0, -2000.0, -20000.0, 200.0)}
    assert gaps[-200.0] > gaps[-2000.0] > gaps[-20000.0]
    assert gaps[-200.0] == pytest.approx(0.67843767, abs=1e-6)
    assert gaps[200.0] == pytest.approx(0.62874317, abs=1e-6)
    _report(12, "hard-core vs cutoff-3 densities from 11000: max deviation "
            + ", ".join(f"{gap:.4g} at U = {u:g}" for u, gap in gaps.items())
            + f" MHz; {single:.2e} from 10000")
