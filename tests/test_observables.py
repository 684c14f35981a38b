"""Expectation values and trajectory tables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starkchain import (
    ANGULAR_PER_MHZ,
    DeviceParams,
    DomainError,
    NumericalConsistencyError,
    PotentialSpec,
    QuantumState,
    TrajectoryTable,
    build_observable,
    build_sector_basis,
    build_xy_hamiltonian,
    evolve_lindblad,
    evolve_unitary,
    expectation,
    full_tag,
    make_collapse_ops,
    paper_device,
    prepare_initial_state,
    trajectory,
)
from starkchain.config import _excitation_range
from starkchain.dynamics import LindbladSnapshots, _coordinates
from starkchain.observables import _expectations

from scipy_forms import operator


def _snapshots(rho):
    """LindbladSnapshots of a Hermitian (T, d, d) stack on all d states, at
    times 0, 1, ..."""
    dim = rho.shape[1]
    return LindbladSnapshots(_coordinates(rho), np.arange(dim), dim,
                             np.arange(len(rho), dtype=float))


def _gathered(matrices, ops):
    """Reference: (T, K) complex tr(O rho) on a (T, d, d) stack, gathered at
    each operator's stored entries (r, c, v) as sum v rho[c, r]."""
    return np.array([matrices[:, o.cols, o.rows] @ o.vals for o in ops]).T \
        .reshape(len(matrices), len(ops))


class TestExpectation:
    def test_vector_and_density_routes_agree(self):
        # <psi|O|psi> of a state vector, and Re tr(O rho) of the snapshot
        # psi psi^dag, read from its coordinates
        rng = np.random.default_rng(19)
        for _ in range(10):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            v /= np.linalg.norm(v)
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            op = operator(0.5 * (a + a.conj().T), "full:n=3")
            psi = QuantumState(v, "full:n=3")
            rho = _snapshots(np.outer(v, v.conj())[None])
            assert expectation(psi, op) == pytest.approx(
                _expectations(rho, [op])[0, 0], abs=1e-12)

    def test_basis_mismatch(self):
        op = build_observable("density", 1, paper_device())
        st = prepare_initial_state("100", 3)
        with pytest.raises(DomainError):
            expectation(st, op)

    def test_observable_must_be_an_operator(self):
        # a string or a list of names ended in an AttributeError
        st = prepare_initial_state("100", 3)
        h = build_xy_hamiltonian(DeviceParams.uniform(3), PotentialSpec.linear(0.0))
        with pytest.raises(DomainError, match="^observable 'obs' must be an "
                           "OperatorMatrix, got 'x'$"):
            expectation(st, "x")
        with pytest.raises(DomainError, match=r"^observables must be a mapping "
                           r"of names to OperatorMatrix, got \['x'\]$"):
            trajectory(h, st, [0.0], ["x"])
        with pytest.raises(DomainError, match="^observable 'P1' must be an "
                           "OperatorMatrix, got None$"):
            trajectory(h, st, [0.0], {"P1": None})

    def test_rejects_non_hermitian(self):
        op = operator(np.array([[0.0, 1.0], [0.0, 0.0]]), "full:n=1")
        st = QuantumState(np.array([1.0, 0.0]), "full:n=1")
        with pytest.raises(DomainError):
            expectation(st, op)

    def test_non_finite_value_raises(self):
        # four entries of 1.5e308, each weighed by 1/2, sum to inf, whose
        # imaginary part 0 passes the 1e-8 bound. The kernel's overflow
        # warning is not what is tested here
        op = operator(np.full((2, 2), 1.5e308), "full:n=1")
        st = QuantumState(np.array([1.0, 1.0]) / np.sqrt(2.0), "full:n=1")
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalConsistencyError, match="not finite"):
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

    @pytest.mark.parametrize("call", [
        lambda h, col, op: evolve_unitary(h, "x", [0.0]),
        lambda h, col, op: evolve_lindblad(h, np.ones(32) / np.sqrt(32), [0.0], col),
        lambda h, col, op: trajectory(h, "100", [0.0], {}),
        lambda h, col, op: expectation("100", op)],
        ids=["evolve_unitary", "evolve_lindblad", "trajectory", "expectation"])
    def test_state_must_be_a_quantum_state(self, call):
        # each ended in an AttributeError on basis_tag
        col = make_collapse_ops(self.dev)
        op = build_observable("density", 1, self.dev)
        with pytest.raises(DomainError, match="^state must be a QuantumState, got "):
            call(self.h, col, op)

    def test_times_must_be_one_dimensional(self):
        st = prepare_initial_state("10000", 5)
        obs = {"P1": build_observable("density", 1, self.dev)}
        for collapse in (None, make_collapse_ops(self.dev)):
            with pytest.raises(DomainError, match="times"):
                trajectory(self.h, st, [[0.0, 1.0], [2.0, 3.0]], obs, collapse=collapse)

    def test_empty_grid_gives_no_rows(self):
        st = prepare_initial_state("10000", 5)
        obs = {"P1": build_observable("density", 1, self.dev)}
        for collapse in (None, make_collapse_ops(self.dev)):
            tab = trajectory(self.h, st, [], obs, collapse=collapse)
            assert tab.times_ns.shape == (0,)
            assert tab.column("P1").shape == (0,)

    def test_no_observables_gives_no_columns(self):
        st = prepare_initial_state("10000", 5)
        for collapse in (None, make_collapse_ops(self.dev)):
            tab = trajectory(self.h, st, [0.0, 1.0], {}, collapse=collapse)
            np.testing.assert_array_equal(tab.times_ns, [0.0, 1.0])
            assert tab.names == []

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
        bad = operator(np.triu(np.ones((32, 32))), "full:n=5")
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


def _gauge_image(tokens):
    """The start whose run at -F is the gauge image of the run at F from
    tokens: X+ and X- swapped on each odd site, where the staggered gauge
    prod_j (-1)^(j n_j) flips the sign of |1>."""
    swap = {"X+": "X-", "X-": "X+"}
    return "".join(swap.get(t, t) if j % 2 else t
                   for j, t in enumerate(tokens, start=1))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), noise=st.sampled_from(["ideal", "lindblad"]),
       dephasing=st.sampled_from(["as-given", "pure"]),
       f=st.floats(-40.0, 40.0), data=st.data())
def test_staggered_gauge(n, noise, dephasing, f, data):
    # the gauge flips the hopping's sign, and complex conjugation then turns
    # H(F) into H(-F); both leave the real collapse operators' dissipator as
    # it is. So on the CLI's basis, the run at F from a start and the run at
    # -F from its image (_gauge_image) give P_j equal, K_b negated (G flips
    # it, conjugation keeps it) and J_b equal (both flip it), on any chain
    tokens = data.draw(st.lists(st.sampled_from(["0", "1", "X+", "X-"]),
                                min_size=n, max_size=n))
    spec = "".join(tokens)
    dev = DeviceParams.uniform(n).replace(
        coupling_mhz=data.draw(st.lists(st.floats(-30.0, 30.0), min_size=n - 1,
                                        max_size=n - 1)),
        t1_us=data.draw(st.lists(st.floats(0.2, 50.0), min_size=n, max_size=n)),
        t2star_us=data.draw(st.lists(st.floats(0.2, 50.0), min_size=n,
                                     max_size=n)))
    basis = build_sector_basis(n, _excitation_range(spec, noise))
    obs = {f"P{j}": build_observable("density", j, dev, basis=basis)
           for j in range(1, n + 1)}
    for b in range(1, n):
        obs[f"K{b}"] = build_observable("kinetic", b, dev, basis=basis)
        obs[f"J{b}"] = build_observable("spin_current", b, dev, basis=basis)
    collapse = (make_collapse_ops(dev, dephasing, basis)
                if noise == "lindblad" else None)
    times = np.arange(0.0, 13.0, 3.0)
    there, back = (
        trajectory(build_xy_hamiltonian(dev, PotentialSpec.linear(gradient),
                                        basis=basis),
                   prepare_initial_state(start, n, basis=basis), times, obs,
                   collapse=collapse).columns
        for gradient, start in ((f, spec), (-f, _gauge_image(tokens))))
    for name, values in there.items():
        sign = -1.0 if name[0] == "K" else 1.0
        np.testing.assert_allclose(back[name], sign * values, rtol=0,
                                   atol=1e-12, err_msg=f"{spec} {name}")


def _random_hermitian(dim, rng, tag):
    """Sparse Hermitian operator with complex entries, diagonal ones included."""
    mask = rng.random((dim, dim)) < rng.uniform(0.1, 0.6)
    a = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * mask
    return operator(a + a.conj().T, tag)


def _operators(n, basis, rng):
    """Random Hermitian operators plus every build_observable kind on the
    space of basis (None: the full space)."""
    tag = full_tag(n) if basis is None else basis.tag
    dim = 2 ** n if basis is None else basis.dim
    ops = [_random_hermitian(dim, rng, tag) for _ in range(3)]
    if n < 2:
        return ops
    dev = DeviceParams.uniform(n).replace(coupling_mhz=rng.uniform(2.0, 25.0, n - 1))
    ops += [build_observable("density", j, dev, basis=basis) for j in range(1, n + 1)]
    for b in range(1, n):
        ops += [build_observable(kind, b, dev, basis=basis)
                for kind in ("kinetic", "spin_current")]
    return ops


def _random_states(n_times, dim, rng):
    """n_times random normalised vectors and random density matrices."""
    shape = (n_times, dim)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    a = rng.normal(size=shape + (dim,)) + 1j * rng.normal(size=shape + (dim,))
    rho = a @ a.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
    return psi, rho


@st.composite
def _spaces(draw, n_min=1, n_max=6):
    """(n, basis or None, seed)."""
    n = draw(st.integers(n_min, n_max))
    k = draw(st.one_of(st.none(), st.integers(0, n)))
    basis = None if k is None else build_sector_basis(n, k)
    return n, basis, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(_spaces(), st.integers(0, 8))
def test_kernel_matches_dense_reference(space, n_times):
    n, basis, seed = space
    rng = np.random.default_rng(seed)
    ops = _operators(n, basis, rng)
    psi, rho = _random_states(n_times, ops[0].dim, rng)
    dense = [o.todense() for o in ops]
    want_vec = np.array([[np.vdot(v, m @ v) for m in dense] for v in psi])
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    want_rho = np.array([[np.trace(m @ r).real for m in dense] for r in rho])
    for got, want in ((_expectations(psi, ops), want_vec),
                      (_expectations(_snapshots(rho), ops), want_rho)):
        assert got.shape == (n_times, len(ops))
        np.testing.assert_allclose(got, want.reshape(got.shape), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(_spaces(), st.integers(0, 8), st.data())
def test_coordinate_map_matches_the_matrix_kernel(space, n_times, data):
    # expectations read from Lindblad snapshots' real coordinates, on a
    # random set of reached states, against the gather on the matrices
    # they stand for: within 1e-14 of each operator's largest entry
    n, basis, seed = space
    rng = np.random.default_rng(seed)
    ops = _operators(n, basis, rng)
    dim = ops[0].dim
    reached = np.sort(rng.choice(dim, size=data.draw(st.integers(1, dim)),
                                 replace=False))
    _, rho = _random_states(n_times, reached.size, rng)
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    snapshots = LindbladSnapshots(_coordinates(rho), reached, dim,
                                  np.arange(n_times, dtype=float))
    got = _expectations(snapshots, ops)
    want = _gathered(snapshots.matrices(), ops)
    assert got.shape == want.shape == (n_times, len(ops))
    assert got.dtype == np.float64
    scale = np.array([max(1.0, np.abs(o.vals).max(initial=0.0)) for o in ops])
    assert np.all(np.abs(got - want.real) <= 1e-14 * scale)


# a subnormal time step makes scipy's expm_multiply warn about 0/0
_TIMES = st.lists(st.floats(0.0, 200.0, allow_subnormal=False), max_size=8)


@settings(max_examples=30, deadline=None)
@given(_spaces(n_min=2), _TIMES, st.booleans())
def test_trajectory_columns_equal_expectation(space, times, noisy):
    n, basis, seed = space
    if noisy:
        # the collapse operators act on the full space; n <= 4 keeps the
        # Liouville space small
        n, basis = min(n, 4), None
    rng = np.random.default_rng(seed)
    ops = {f"O{k}": o for k, o in enumerate(_operators(n, basis, rng))}
    dev = DeviceParams.uniform(n, t1_us=20.0, t2star_us=2.0).replace(
        coupling_mhz=rng.uniform(2.0, 25.0, n - 1))
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(rng.uniform(-30.0, 30.0)),
                             basis=basis)
    psi, _ = _random_states(1, h.dim, rng)
    state = QuantumState(psi[0], h.basis_tag)
    collapse = make_collapse_ops(dev) if noisy else None
    tab = trajectory(h, state, times, ops, collapse=collapse)
    assert tab.names == list(ops)
    if noisy:
        # each snapshot's matrix, gathered as a complex array
        matrices = evolve_lindblad(h, state, times, collapse).matrices()
        want = _gathered(matrices, list(ops.values())).real.T
    else:
        want = [[expectation(QuantumState(s, h.basis_tag), op)
                 for s in evolve_unitary(h, state, times)] for op in ops.values()]
    for name, column in zip(ops, want):
        np.testing.assert_allclose(tab.column(name), np.reshape(column, -1),
                                   rtol=0, atol=1e-12, err_msg=name)


class TestImaginaryResidue:
    def test_large_residue_raises(self):
        # an operator whose anti-Hermitian part sits just under the
        # Hermiticity tolerance (5e-13 of its norm against 1e-12) still
        # produces a detectable imaginary residue, 2.5e-8, once amplified by
        # its norm of 1e5
        op = operator(np.array([[0.0, 1e5], [1e5 + 5e-8j, 0.0]]), "full:n=1")
        assert op.is_hermitian()
        st = QuantumState(np.array([1.0, 1.0]) / np.sqrt(2.0), "full:n=1")
        with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
            expectation(st, op)
