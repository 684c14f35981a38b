"""Free-fermion fast path against exact diagonalization, and the WSL fits."""

import numpy as np
import pytest

from starkchain import (
    DeviceParams,
    DomainError,
    FitDomainError,
    PotentialSpec,
    SingleParticleHamiltonian,
    build_observable,
    build_sector_basis,
    build_xy_hamiltonian,
    evolve_unitary,
    fit_localization_length,
    paper_device,
    prepare_initial_state,
    propagate_single_particle,
    single_particle_matrix,
    time_averaged_profile,
    two_excitation_slater,
)


def _ed_densities(dev, pot, spec, times, n_exc):
    """Sector ED reference for P_j(t)."""
    b = build_sector_basis(dev.n_qubits, n_exc)
    h = build_xy_hamiltonian(dev, pot, basis=b)
    st = prepare_initial_state(spec, dev.n_qubits, basis=b)
    amps = evolve_unitary(h, st, times)
    dens = np.empty((len(times), dev.n_qubits))
    for j in range(1, dev.n_qubits + 1):
        nj = build_observable("density", j, dev, basis=b).todense()
        dens[:, j - 1] = np.einsum("ti,ij,tj->t", amps.conj(), nj, amps).real
    return dens


class TestSingleParticleMatrix:
    def test_matches_sector_block(self):
        dev = paper_device()
        pot = PotentialSpec.linear(-12.0)
        m = single_particle_matrix(dev, pot)
        assert m.size == 5
        np.testing.assert_allclose(np.diag(m.matrix), pot.offsets_rad_ns(5))
        np.testing.assert_allclose(np.diag(m.matrix, 1), dev.coupling_rad_ns)

    def test_validation(self):
        with pytest.raises(DomainError):
            SingleParticleHamiltonian(matrix=np.ones((2, 3)))
        with pytest.raises(DomainError):
            SingleParticleHamiltonian(matrix=np.array([[0.0, 1.0], [2.0, 0.0]]))
        full = np.ones((4, 4))  # dense, not tridiagonal
        with pytest.raises(DomainError):
            SingleParticleHamiltonian(matrix=full)


class TestEDEquivalence:
    def test_one_excitation(self):
        rng = np.random.default_rng(23)
        dev = DeviceParams.uniform(6, coupling_mhz=13.0)
        for _ in range(3):
            f = float(rng.uniform(0, 20))
            pot = PotentialSpec.linear(-f)
            times = np.sort(rng.uniform(0, 200, size=20))
            m = single_particle_matrix(dev, pot)
            fast = propagate_single_particle(m, 1, times)
            slow = _ed_densities(dev, pot, "100000", times, 1)
            np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_two_excitation(self):
        rng = np.random.default_rng(29)
        dev = DeviceParams.uniform(6, coupling_mhz=13.0)
        f = float(rng.uniform(0, 20))
        pot = PotentialSpec.linear(-f)
        times = np.sort(rng.uniform(0, 200, size=12))
        m = single_particle_matrix(dev, pot)
        fast, pair = two_excitation_slater(m, (1, 2), times)
        slow = _ed_densities(dev, pot, "110000", times, 2)
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_pair_correlator_structure(self):
        dev = DeviceParams.uniform(5, coupling_mhz=10.0)
        m = single_particle_matrix(dev, PotentialSpec.linear(-5.0))
        dens, pair = two_excitation_slater(m, (2, 4), [0.0, 30.0, 90.0])
        assert pair.shape == (3, 5, 5)
        for k in range(3):
            np.testing.assert_allclose(pair[k], pair[k].T, atol=1e-12)
            np.testing.assert_allclose(np.diag(pair[k]), 0.0, atol=1e-12)
            # each particle counted once through the pair sum
            assert dens[k].sum() == pytest.approx(2.0, abs=1e-10)
        # t = 0 snapshot is the initial occupation
        np.testing.assert_allclose(dens[0], [0, 1, 0, 1, 0], atol=1e-12)

    def test_distinct_sites_required(self):
        dev = DeviceParams.uniform(4, coupling_mhz=10.0)
        m = single_particle_matrix(dev, PotentialSpec.linear(0.0))
        with pytest.raises(DomainError):
            two_excitation_slater(m, (2, 2), [0.0])

    @pytest.mark.parametrize("call, match", [
        (lambda m, t: propagate_single_particle(m, 2.5, t),
         r"^site0: expected an integer, got 2\.5$"),
        (lambda m, t: propagate_single_particle(m, True, t),
         r"^site0: expected an integer, got True$"),
        (lambda m, t: two_excitation_slater(m, (1.0, 2), t),
         r"^sites0\[0\]: expected an integer, got 1\.0$"),
        (lambda m, t: two_excitation_slater(m, (1, np.float64(3.0)), t),
         r"^sites0\[1\]: expected an integer, got "),
        (lambda m, t: two_excitation_slater(m, (1, 2, 3), t),
         r"^sites0: expected a pair of sites, got \(1, 2, 3\)$"),
        (lambda m, t: two_excitation_slater(m, 3, t),
         r"^sites0: expected a pair of sites, got 3$"),
        (lambda m, t: time_averaged_profile(m, 4.5, 14.4),
         r"^site0: expected an integer, got 4\.5$")],
        ids=["site0-float", "site0-bool", "sites0-float", "sites0-numpy-float",
             "sites0-triple", "sites0-int", "profile-site0-float"])
    def test_sites_are_integers(self, call, match):
        # a float site ended in an IndexError, and True ran from site 1
        m = single_particle_matrix(DeviceParams.uniform(7, coupling_mhz=10.0),
                                   PotentialSpec.linear(-5.0))
        with pytest.raises(DomainError, match=match):
            call(m, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times(self, bad):
        # refused as both many-body solvers refuse them; a nan time gave
        # nan densities
        m = single_particle_matrix(DeviceParams.uniform(4, coupling_mhz=10.0),
                                   PotentialSpec.linear(0.0))
        with pytest.raises(DomainError, match="^times must be finite and non-negative$"):
            propagate_single_particle(m, 1, [0.0, bad])
        with pytest.raises(DomainError, match="^times must be finite and non-negative$"):
            two_excitation_slater(m, (1, 3), [bad])

    @pytest.mark.parametrize("times, match", [
        ([[0.0, 1.0], [2.0, 3.0]], r"^times must be a scalar or 1-d, got shape \(2, 2\)$"),
        ([-5.0], "^times must be finite and non-negative$")],
        ids=["grid-2d", "negative"])
    def test_times_follow_the_solver_rule(self, times, match):
        # a 2-d grid gave one row per entry, and a negative time ran
        m = single_particle_matrix(DeviceParams.uniform(7, coupling_mhz=10.0),
                                   PotentialSpec.linear(-5.0))
        with pytest.raises(DomainError, match=match):
            propagate_single_particle(m, 1, times)
        with pytest.raises(DomainError, match=match):
            two_excitation_slater(m, (1, 3), times)


class TestBlochOscillation:
    def test_revival_period_l21(self):
        # uniform 21-site chain, F = 15 MHz: the initial-site density revives
        # at T_B = 66.7 ns (the apparent period on a 5-site chain is shorter;
        # that one is reported, not asserted)
        dev = DeviceParams.uniform(21, coupling_mhz=14.4)
        m = single_particle_matrix(dev, PotentialSpec.linear(-15.0))
        t_b = 1e3 / 15.0
        times = np.linspace(0, 2.2 * t_b, 2000)
        dens = propagate_single_particle(m, 11, times)
        p0 = dens[:, 10]
        # revivals near T_B and 2 T_B
        for mult in (1, 2):
            window = (times > (mult - 0.25) * t_b) & (times < (mult + 0.25) * t_b)
            k = np.argmax(p0[window])
            t_peak = times[window][k]
            assert abs(t_peak - mult * t_b) / t_b < 0.02
            assert p0[window][k] > 0.95

    def test_orientation_invariance(self):
        # flipping the ramp sign conjugates H by a diagonal sign matrix and
        # leaves every density trajectory unchanged
        dev = DeviceParams.uniform(9, coupling_mhz=11.0)
        times = np.linspace(0, 150, 40)
        up = propagate_single_particle(
            single_particle_matrix(dev, PotentialSpec.linear(10.0)), 3, times)
        down = propagate_single_particle(
            single_particle_matrix(dev, PotentialSpec.linear(-10.0)), 3, times)
        np.testing.assert_allclose(up, down, atol=1e-12)


def _exponential_profile(center, xi, length):
    """Amplitudes e^(-|j - center|/xi) on sites 1..length, unit 2-norm."""
    amps = np.exp(-np.abs(np.arange(1, length + 1) - center) / xi)
    return amps / np.linalg.norm(amps)


class TestWSLFits:
    def test_fit_recovers_exact_exponential(self):
        amps = _exponential_profile(center=21, xi=2.0, length=41)
        xi = fit_localization_length(amps ** 2, center=21)
        assert xi == pytest.approx(2.0, abs=1e-10)

    def test_fit_seeded_recovery(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            xi_true = float(rng.uniform(0.8, 4.0))
            amps = _exponential_profile(center=21, xi=xi_true, length=41)
            xi = fit_localization_length(amps ** 2, center=21, xi_guess=xi_true)
            assert xi == pytest.approx(xi_true, rel=1e-8)

    def test_flat_profile_rejected(self):
        flat = np.full(21, 0.3)
        with pytest.raises(FitDomainError):
            fit_localization_length(flat, center=11)

    def test_too_few_points(self):
        amps = _exponential_profile(center=3, xi=1.0, length=5)
        with pytest.raises(FitDomainError):
            fit_localization_length(amps ** 2, center=3)

    def test_center_validation(self):
        with pytest.raises(DomainError):
            fit_localization_length(np.ones(11), center=12)

    @pytest.mark.parametrize("kwargs, match", [
        ({"center": 5.0}, r"^center: expected an integer, got 5\.0$"),
        ({"center": True}, r"^center: expected an integer, got True$"),
        ({"center": 5, "xi_guess": np.nan}, r"^xi_guess: must be finite, got nan$"),
        ({"center": 5, "xi_guess": "2"}, r"^xi_guess: expected a number"),
        ({"center": 5, "xi_guess": -1.0}, r"^xi_guess: must be positive"),
        ({"center": 5, "profile": np.ones((11, 2))},
         r"^profile must be 1-d, got shape \(11, 2\)$")],
        ids=["center-float", "center-bool", "xi-nan", "xi-str", "xi-negative",
             "profile-2d"])
    def test_arguments_are_named(self, kwargs, match):
        # a float center ended in an IndexError, a nan guess and a 2-d
        # profile in a ValueError
        kwargs = dict(
            {"profile": _exponential_profile(center=5, xi=1.0, length=11) ** 2},
            **kwargs)
        with pytest.raises(DomainError, match=match):
            fit_localization_length(**kwargs)

    def test_non_finite_profile(self):
        # a nan inside the window gave a nan length
        amps = _exponential_profile(center=21, xi=2.0, length=41)
        profile = amps ** 2
        profile[22] = np.nan
        with pytest.raises(DomainError, match="^profile must be finite$"):
            fit_localization_length(profile, center=21)

    @pytest.mark.parametrize("gradient", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient(self, gradient):
        # a nan gradient gave a nan profile
        h = single_particle_matrix(DeviceParams.uniform(7), PotentialSpec.linear(-5.0))
        with pytest.raises(DomainError, match="^gradient_mhz: must be finite"):
            time_averaged_profile(h, 4, gradient)

    def test_time_averaged_length_law(self):
        # L = 41 uniform chain: the averaged-profile fit lands within 15% of
        # 2g/F over the studied gradient range (frozen numerics live in the
        # acceptance suite; one mid-range point checked here)
        g = 14.4
        dev = DeviceParams.uniform(41, coupling_mhz=g)
        f = g  # F/g = 1, xi = 2
        m = single_particle_matrix(dev, PotentialSpec.linear(-f))
        avg = time_averaged_profile(m, 21, f)
        assert avg.sum() == pytest.approx(1.0, abs=1e-9)
        xi = fit_localization_length(avg, 21, xi_guess=2.0)
        assert abs(xi - 2.0) / 2.0 < 0.15

    def test_localization_bound_invariant(self):
        """The fitted slope of the max-density envelope stays within 25% of
        -1/xi_WS across F/g in {0.6, 1.0, 1.5, 2.0} (frozen ratios)."""
        g = 14.4
        dev = DeviceParams.uniform(41, coupling_mhz=g)
        expected = {0.6: 0.941, 1.0: 0.954, 1.5: 0.825, 2.0: 0.753}
        for fg, frozen in expected.items():
            f = fg * g
            xi_ws = 2.0 / fg
            m = single_particle_matrix(dev, PotentialSpec.linear(-f))
            grid = np.linspace(0.0, 10 * (1e3 / f), 3000)
            pmax = propagate_single_particle(m, 21, grid).max(axis=0)
            xi_fit = fit_localization_length(pmax, 21, xi_guess=xi_ws)
            ratio = xi_ws / xi_fit
            assert 0.75 <= ratio <= 1.25
            assert ratio == pytest.approx(frozen, abs=2e-3)
