"""Expectation values and trajectory tables."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from starkchain import (
    ANGULAR_PER_MHZ,
    DeviceParams,
    DomainError,
    NumericalConsistencyError,
    OperatorMatrix,
    PotentialSpec,
    QuantumState,
    TrajectoryTable,
    build_observable,
    build_sector_basis,
    build_xy_hamiltonian,
    expectation,
    make_collapse_ops,
    paper_device,
    prepare_initial_state,
    trajectory,
)


class TestExpectation:
    def test_vector_and_density_routes_agree(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            v /= np.linalg.norm(v)
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            op = OperatorMatrix(matrix=sp.csr_matrix(0.5 * (a + a.conj().T)),
                                basis_tag="full:n=3")
            psi = QuantumState(v, "full:n=3")
            rho = psi.to_density()
            assert expectation(psi, op) == pytest.approx(expectation(rho, op), abs=1e-12)

    def test_basis_mismatch(self):
        op = build_observable("density", 1, paper_device())
        st = prepare_initial_state("100", 3)
        with pytest.raises(DomainError):
            expectation(st, op)

    def test_rejects_non_hermitian(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        op = OperatorMatrix(matrix=m, basis_tag="full:n=1")
        st = QuantumState(np.array([1.0, 0.0]), "full:n=1")
        with pytest.raises(DomainError):
            expectation(st, op)

    def test_density_values(self):
        dev = paper_device()
        st = prepare_initial_state("10010", 5)
        for j, want in zip(range(1, 6), (1, 0, 0, 1, 0)):
            assert expectation(st, build_observable("density", j, dev)) == pytest.approx(want)


class TestTrajectoryTable:
    def test_length_validation(self):
        with pytest.raises(DomainError):
            TrajectoryTable(times_ns=np.arange(3.0), columns={"P1": np.zeros(4)})

    def test_error_columns(self):
        t = np.arange(3.0)
        with pytest.raises(DomainError):
            TrajectoryTable(times_ns=t, columns={"P1": np.zeros(3)},
                            errors={"P2": np.zeros(3)})
        with pytest.raises(DomainError):
            TrajectoryTable(times_ns=t, columns={"P1": np.zeros(3)},
                            errors={"P1": np.array([0.1, -0.1, 0.0])})

    def test_accessors(self):
        t = np.arange(4.0)
        tab = TrajectoryTable(times_ns=t, columns={"P1": t * 0.1, "P2": t * 0.2})
        assert tab.names == ["P1", "P2"]
        np.testing.assert_allclose(tab.column("P2"), t * 0.2)


class TestTrajectory:
    def setup_method(self):
        self.dev = paper_device()
        self.pot = PotentialSpec.linear(-15.0)
        self.h = build_xy_hamiltonian(self.dev, self.pot)

    def test_energy_conserved_unitary(self):
        st = prepare_initial_state("X+X+000", 5)
        times = np.linspace(0, 300, 61)
        tab = trajectory(self.h, st, times, {"E": self.h})
        e = tab.column("E")
        np.testing.assert_allclose(e, e[0], atol=1e-9)

    def test_total_density_conserved(self):
        st = prepare_initial_state("10000", 5)
        obs = {f"P{j}": build_observable("density", j, self.dev) for j in range(1, 6)}
        tab = trajectory(self.h, st, np.linspace(0, 300, 151), obs)
        total = sum(tab.column(f"P{j}") for j in range(1, 6))
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_current_vanishes_at_t0(self):
        # real product states carry no current
        for spec in ("10000", "X+X+000", "11000"):
            st = prepare_initial_state(spec, 5)
            j4 = build_observable("spin_current", 4, self.dev)
            tab = trajectory(self.h, st, [0.0], {"J4": j4})
            assert tab.column("J4")[0] == pytest.approx(0.0, abs=1e-12)

    def test_kinetic_initial_value(self):
        # <K1>(0) on |X+X+000> is g1/2, here in rad/ns
        st = prepare_initial_state("X+X+000", 5)
        k1 = build_observable("kinetic", 1, self.dev)
        tab = trajectory(self.h, st, [0.0], {"K1": k1})
        assert tab.column("K1")[0] == pytest.approx(
            0.5 * 14.60 * ANGULAR_PER_MHZ, rel=1e-12)

    def test_kinetic_on_two_site_chain(self):
        # evolved 2-site state at t = pi/(4g), checked against direct dense
        # 4x4 arithmetic; K1 is the whole Hamiltonian here, so the g/2 value
        # of the X+X+ start is conserved
        from starkchain import DeviceParams, evolve_unitary
        g_mhz = 14.60
        dev = DeviceParams.uniform(2, coupling_mhz=g_mhz)
        pot = PotentialSpec.linear(0.0)
        h = build_xy_hamiltonian(dev, pot)
        st = prepare_initial_state("X+X+", 2)
        g = g_mhz * ANGULAR_PER_MHZ
        t = np.pi / (4 * g)
        vec = evolve_unitary(h, st, [t])[0]
        k1 = build_observable("kinetic", 1, dev)
        via_traj = trajectory(h, st, [t], {"K1": k1}).column("K1")[0]
        direct = np.real(vec.conj() @ (k1.todense() @ vec))
        assert via_traj == pytest.approx(direct, abs=1e-14)
        assert via_traj == pytest.approx(0.5 * g, rel=1e-10)

    def test_lindblad_mode(self):
        st = prepare_initial_state("10000", 5)
        col = make_collapse_ops(self.dev)
        obs = {"P1": build_observable("density", 1, self.dev)}
        tab = trajectory(self.h, st, [0.0, 50.0], obs, collapse=col)
        assert tab.column("P1")[0] == pytest.approx(1.0, abs=1e-9)
        assert tab.column("P1")[1] < 1.0

    def test_times_must_be_finite_and_non_negative(self):
        st = prepare_initial_state("10000", 5)
        obs = {"P1": build_observable("density", 1, self.dev)}
        for collapse in (None, make_collapse_ops(self.dev)):
            for bad in (-1.0, np.nan, np.inf):
                with pytest.raises(DomainError):
                    trajectory(self.h, st, [0.0, bad], obs, collapse=collapse)

    def test_scalar_time_gives_one_row(self):
        st = prepare_initial_state("10000", 5)
        obs = {"P1": build_observable("density", 1, self.dev)}
        for collapse in (None, make_collapse_ops(self.dev)):
            tab = trajectory(self.h, st, 5.0, obs, collapse=collapse)
            grid = trajectory(self.h, st, [5.0], obs, collapse=collapse)
            np.testing.assert_array_equal(tab.times_ns, [5.0])
            np.testing.assert_array_equal(tab.column("P1"), grid.column("P1"))

    def test_imaginary_residue_guard(self):
        # a non-Hermitian "observable" is rejected before evolution
        bad = OperatorMatrix(matrix=sp.csr_matrix(np.triu(np.ones((32, 32)))),
                             basis_tag="full:n=5")
        st = prepare_initial_state("10000", 5)
        with pytest.raises(DomainError):
            trajectory(self.h, st, [0.0], {"B": bad})


@st.composite
def _chains(draw):
    n = draw(st.integers(3, 6))
    couplings = draw(st.lists(st.floats(2.0, 25.0), min_size=n - 1,
                              max_size=n - 1))
    tilt = draw(st.floats(-30.0, 30.0))
    occupations = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
    return n, couplings, tilt, "".join(occupations)


@settings(max_examples=40, deadline=None)
@given(_chains())
def test_sector_and_full_trajectories_agree(chain):
    # a 0/1 product state never leaves its excitation sector, so densities
    # and bond currents from the sector block equal the full-space ones
    n, couplings, tilt, spec = chain
    dev = DeviceParams.uniform(n).replace(coupling_mhz=couplings)
    pot = PotentialSpec.linear(tilt)
    basis = build_sector_basis(n, spec.count("1"))
    times = np.linspace(0.0, 120.0, 13)

    def columns(basis):
        obs = {f"P{j}": build_observable("density", j, dev, basis=basis)
               for j in range(1, n + 1)}
        obs.update({f"J{b}": build_observable("spin_current", b, dev, basis=basis)
                    for b in range(1, n)})
        h = build_xy_hamiltonian(dev, pot, basis=basis)
        state = prepare_initial_state(spec, n, basis=basis)
        return trajectory(h, state, times, obs).columns

    sector, full = columns(basis), columns(None)
    for name, values in full.items():
        np.testing.assert_allclose(sector[name], values, rtol=0, atol=1e-10,
                                   err_msg=name)


class TestImaginaryResidue:
    def test_large_residue_raises(self):
        # a density matrix whose anti-Hermitian part sits just under the state
        # validation tolerance still produces a detectable imaginary residue
        # once amplified by a large-norm operator
        rho = np.array([[0.5, 0.4 + 4e-9j], [0.4 + 4e-9j, 0.5]])
        st = QuantumState(rho, "full:n=1")
        op = OperatorMatrix(matrix=sp.csr_matrix(10.0 * np.array([[0.0, 1.0], [1.0, 0.0]])),
                            basis_tag="full:n=1")
        with pytest.raises(NumericalConsistencyError):
            expectation(st, op)
