"""State preparation, unitary propagation and the Lindblad propagator."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from starkchain import (
    ANGULAR_PER_MHZ,
    CollapseOperatorSet,
    ConfusionMatrix,
    DeviceParams,
    DomainError,
    NumericalConsistencyError,
    OperatorMatrix,
    PotentialSpec,
    QuantumState,
    StateSpecError,
    build_observable,
    build_sector_basis,
    build_xy_hamiltonian,
    evolve_lindblad,
    evolve_unitary,
    full_tag,
    make_collapse_ops,
    paper_device,
    prepare_initial_state,
    propagate_single_particle,
    sample_shots,
    single_particle_matrix,
)
from starkchain import dynamics, model
from starkchain.config import _excitation_range
from starkchain.dynamics import (_entry_table, _generator_blocks, _liouvillian,
                                 _reachable)
from starkchain.model import _restricted, _summed

from scipy_forms import csr, density_matrices, full_index, operator


def _reachable_states(data, hamiltonian, collapse):
    """The basis states reachable from data (_reachable) over the entry
    table of hamiltonian and the operators of collapse."""
    return _reachable(data, _entry_table(hamiltonian, collapse),
                      hamiltonian.dim)


SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |0> = (1, 0)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _on(op, keep):
    """op's entries restricted to the ascending states keep."""
    return _restricted(keep, op.rows, op.cols, op.vals)


def _table(h, col, keep=None):
    """The entry table of h and col's operators, as the Lindblad solver
    stacks it, restricted to the ascending states keep if given."""
    table = dynamics._entry_table(h, col)
    return table if keep is None else _restricted(keep, *table)


def _site_operator(local_ops, site, n_sites):
    # Kronecker reference: 1 (x) local_ops (x) 1 with site 1 leftmost
    return np.kron(np.kron(np.eye(2 ** (site - 1)), local_ops),
                   np.eye(2 ** (n_sites - site)))


def _random_hermitian_op(dim, rng, tag):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    return operator(h, tag)


def _random_state(dim, rng, tag):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState(v / np.linalg.norm(v), tag)


class TestStatePrep:
    def test_computational_state(self):
        st = prepare_initial_state("10000", 5)
        vec = np.zeros(32)
        vec[full_index((1, 0, 0, 0, 0))] = 1.0
        np.testing.assert_allclose(st.data, vec)
        assert st.basis_tag == "full:n=5"

    def test_superposition_tokens(self):
        st = prepare_initial_state("X+X-", 2)
        # kron of (1,1)/sqrt2 and (1,-1)/sqrt2
        np.testing.assert_allclose(st.data, np.array([1, -1, 1, -1]) / 2.0)

    def test_sector_state(self):
        b = build_sector_basis(5, 1)
        st = prepare_initial_state("00100", 5, basis=b)
        assert st.dim == 5
        np.testing.assert_allclose(st.data, [0, 0, 1, 0, 0])

    @pytest.mark.parametrize("spec", [10000, None, ["1", "0"]])
    def test_spec_is_a_string(self, spec):
        # 10000 and None ended in a TypeError from len(), and a list of
        # tokens was read as their string
        with pytest.raises(StateSpecError, match=re.escape(
                f"state spec must be a string, got {spec!r}")):
            prepare_initial_state(spec, 2)

    @pytest.mark.parametrize("n_sites", [2.0, True, "2"])
    def test_site_count_is_an_integer(self, n_sites):
        # 2.0 ended in an IndexError, and ("1", True) made a state tagged
        # full:n=True
        with pytest.raises(DomainError, match=re.escape(
                f"n_sites: expected an integer, got {n_sites!r}")):
            prepare_initial_state("10", n_sites)

    def test_zero_site_chain_is_refused(self):
        # ("", 0) made a state tagged full:n=0 that no Hamiltonian takes;
        # every basis-taking function holds a chain to one site or more
        message = "^n_sites must be >= 1, got 0$"
        with pytest.raises(DomainError, match=message):
            prepare_initial_state("", 0)
        with pytest.raises(DomainError, match=message):
            model._basis_states(None, 0)

    def test_spec_errors(self):
        with pytest.raises(StateSpecError):
            prepare_initial_state("10X", 3)  # dangling X
        with pytest.raises(StateSpecError):
            prepare_initial_state("1002", 4)
        with pytest.raises(StateSpecError):
            prepare_initial_state("10", 3)
        b = build_sector_basis(3, 1)
        with pytest.raises(StateSpecError):
            prepare_initial_state("X+00", 3, basis=b)
        with pytest.raises(StateSpecError):
            prepare_initial_state("110", 3, basis=b)  # sector holds 1 excitation
        # "X+1X-" spans counts 1..3
        with pytest.raises(StateSpecError, match="weight outside the basis "
                           "sector:n=3,k=0..2$"):
            prepare_initial_state("X+1X-", 3, basis=build_sector_basis(3, (0, 2)))
        for basis in (build_sector_basis(3, 1), "sector:n=2,k=1"):
            with pytest.raises(DomainError, match="basis must be a SectorBasis"):
                prepare_initial_state("10", 2, basis=basis)
            with pytest.raises(DomainError, match="basis must be a SectorBasis"):
                make_collapse_ops(DeviceParams.uniform(2), basis=basis)

    def test_one_formula_is_the_kronecker_product(self):
        # every five-site spec, bit for bit, signs of zero included
        tokens = ["0", "1", "X+", "X-"]
        for code in range(4 ** 5):
            spec = [tokens[code >> (2 * j) & 3] for j in range(5)]
            ref = np.array([1.0], dtype=complex)
            for t in spec:
                ref = np.kron(ref, dynamics._LOCAL_KETS[t])
            got = prepare_initial_state("".join(spec), 5).data
            assert got.tobytes() == ref.tobytes(), spec

    @pytest.mark.parametrize("spec, counts", [
        ("X+X+000", (0, 2)), ("X+X+000", (0, 5)), ("1X-0X+0", (1, 3)),
        ("01000", (0, 1)), ("01000", (1, 1))])
    def test_count_range_state_is_the_full_state_on_it(self, spec, counts):
        b = build_sector_basis(5, counts)
        st = prepare_initial_state(spec, 5, basis=b)
        assert st.basis_tag == b.tag
        rows = list(b.states)
        np.testing.assert_array_equal(st.data,
                                      prepare_initial_state(spec, 5).data[rows])


class TestQuantumState:
    def test_norm_validation(self):
        with pytest.raises(DomainError):
            QuantumState(np.array([1.0, 1.0]), "full:n=1")

    def test_density_validation(self):
        # a state is a vector: a density matrix, valid or not, is refused by
        # its shape, whatever its entries
        for rho in (np.diag([0.75, 0.25]), np.eye(2),
                    np.array([[0.5, 0.5j], [0.5j, 0.5]])):
            with pytest.raises(DomainError, match=r"^state data must be a "
                               r"vector, got shape \(2, 2\)$"):
                QuantumState(rho, "full:n=1")

    def test_messages_name_no_snapshot(self):
        # the stack check sample_shots uses, on a stack of one
        with pytest.raises(DomainError, match="^state vector norm 2.0 is not 1$"):
            QuantumState(np.array([2.0, 0.0]), "full:n=1")
        with pytest.raises(DomainError, match="^state vector norm nan is not 1$"):
            QuantumState(np.array([np.nan, 0.0]), "full:n=1")
        for data in (np.ones((2, 3)) / 6.0, np.array(1.0), np.ones((1, 1, 1))):
            with pytest.raises(DomainError, match=r"^state data must be a "
                               r"vector, got shape \("):
                QuantumState(data, "full:n=1")

    def test_cannot_change_once_checked(self):
        # new data cannot be set, the data is read-only, an array of its own
        # is taken over and made read-only, and a view is copied
        e0 = np.array([1.0, 0.0], dtype=complex)
        owned = e0.copy()
        st = QuantumState(owned, "full:n=1")
        assert st.data is owned
        with pytest.raises(AttributeError):
            st.data = 5 * e0
        for data in (owned, st.data):
            with pytest.raises(ValueError, match="read-only"):
                data[0] = 5.0
        base = np.array([e0, e0])
        st = QuantumState(base[0], "full:n=1")
        base[0, 0] = 5.0
        np.testing.assert_array_equal(st.data, e0)


class TestUnitaryEvolution:
    def test_matches_expm_oracle(self):
        """Seeded random Hamiltonians against scipy's expm."""
        rng = np.random.default_rng(7)
        for dim in (2, 5, 8, 16):
            h = _random_hermitian_op(dim, rng, "full:n=4")
            st = _random_state(dim, rng, "full:n=4")
            times = np.sort(rng.uniform(0, 20, size=6))
            amps = evolve_unitary(h, st, times)
            hd = h.todense()
            for k, t in enumerate(times):
                ref = scipy.linalg.expm(-1j * hd * t) @ st.data
                np.testing.assert_allclose(amps[k], ref, atol=1e-10)

    def test_paper_device_against_expm(self):
        # the documented reference point: F = 0, |10000>, t = 100 ns
        dev = paper_device()
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(0.0))
        st = prepare_initial_state("10000", 5)
        got = evolve_unitary(h, st, [100.0])[0]
        ref = scipy.linalg.expm(-1j * h.todense() * 100.0) @ st.data
        assert np.linalg.norm(got - ref) < 1e-8

    @pytest.mark.parametrize("cap", [dynamics.DENSE_BLOCK_CAP, 8])
    def test_full_space_matches_sectors(self, cap, monkeypatch):
        # n = 13 is 8192 dims, split into its excitation sectors, of which
        # the live ones hold 1, 13 and 78 states: at the default cap each is
        # diagonalized, at cap 8 the two larger ones are stepped together
        # with expm_multiply. Either way the result is that of each sector
        # diagonalized on its own basis, and from one excitation that of
        # the free-fermion solver
        n = 13
        dev = DeviceParams.uniform(n, coupling_mhz=14.4)
        pot = PotentialSpec.linear(-15.0)
        zeros = "0" * (n - 2)
        # X+X+0... is half the sum of 00..., 01..., 10... and 11...
        ref = np.zeros((len(_REFERENCE_TIMES), 2 ** n), dtype=complex)
        for head in ("00", "01", "10", "11"):
            b = build_sector_basis(n, head.count("1"))
            part = evolve_unitary(build_xy_hamiltonian(dev, pot, basis=b),
                                  prepare_initial_state(head + zeros, n, basis=b),
                                  _REFERENCE_TIMES)
            ref[:, list(b.states)] += 0.5 * part
        monkeypatch.setattr(dynamics, "DENSE_BLOCK_CAP", cap)
        h = build_xy_hamiltonian(dev, pot)
        got = evolve_unitary(h, prepare_initial_state("X+X+" + zeros, n),
                             _REFERENCE_TIMES)
        assert np.max(np.abs(got - ref)) <= 1e-10
        amps = evolve_unitary(h, prepare_initial_state("1" + "0" * (n - 1), n),
                              _REFERENCE_TIMES)
        sites = [full_index(tuple(int(j == i) for j in range(n)))
                 for i in range(n)]
        dens = propagate_single_particle(single_particle_matrix(dev, pot), 1,
                                         _REFERENCE_TIMES)
        assert np.max(np.abs(np.abs(amps[:, sites]) ** 2 - dens)) <= 1e-10

    def test_negligible_steps_and_couplings(self, monkeypatch):
        # on a block above the cap a step whose dt H underflows leaves the
        # state as it is, where expm_multiply would pick zero scaling steps
        # and divide by zero; a subnormal coupling would make its norm
        # estimate overflow
        dev = DeviceParams.uniform(4).replace(coupling_mhz=[0.0, 0.0, 2.2250738585e-313])
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(28.0))
        st = prepare_initial_state("0001", 4)
        monkeypatch.setattr(dynamics, "DENSE_BLOCK_CAP", 0)
        got = evolve_unitary(h, st, [5e-324, 0.0, 1e-300, 300.0])
        np.testing.assert_array_equal(got[:3], np.tile(st.data, (3, 1)))
        ref = scipy.linalg.expm(-300.0j * h.todense()) @ st.data
        assert np.max(np.abs(got[3] - ref)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 7), min_size=1, max_size=5),
           live=st.lists(st.booleans(), min_size=5, max_size=5),
           is_complex=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           cap=st.sampled_from([0, 3, dynamics.DENSE_BLOCK_CAP]))
    def test_planted_blocks_match_expm(self, sizes, live, is_complex, seed, cap):
        # random Hermitian blocks on a random permutation of the states,
        # some with an all-zero start: at cap 0 every live block is stepped
        # with expm_multiply, at cap 3 the blocks of up to 3 states are
        # diagonalized and the rest stepped, and at the default cap the
        # whole space is one block
        rng = np.random.default_rng(seed)
        dim = sum(sizes)
        live[rng.integers(len(sizes))] = True
        perm = rng.permutation(dim)
        h = np.zeros((dim, dim), dtype=complex)
        vec = np.zeros(dim, dtype=complex)
        for k, lo in enumerate(np.cumsum([0] + sizes[:-1])):
            at = perm[lo:lo + sizes[k]]
            a = rng.normal(size=(sizes[k], sizes[k]))
            if is_complex:
                a = a + 1j * rng.normal(size=a.shape)
            h[np.ix_(at, at)] = 0.5 * (a + a.conj().T)
            if live[k]:
                vec[at] = rng.normal(size=at.size) + 1j * rng.normal(size=at.size)
        rows, cols = np.nonzero(h)
        op = OperatorMatrix(dim, rows, cols, h[rows, cols], "planted")
        state = QuantumState(vec / np.linalg.norm(vec), "planted")
        times = rng.uniform(0.0, 3.0, size=5)
        times[rng.integers(5)] = 0.0
        with mock.patch.object(dynamics, "DENSE_BLOCK_CAP", cap):
            got = evolve_unitary(op, state, times)
        for k, t in enumerate(times):
            ref = scipy.linalg.expm(-1j * h * t) @ state.data
            np.testing.assert_allclose(got[k], ref, rtol=0, atol=1e-10)

    def test_two_site_swap(self):
        # P2(t) = sin^2(g t), full population transfer at t = pi / 2g
        g_mhz = 14.60
        dev = DeviceParams.uniform(2, coupling_mhz=g_mhz)
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(0.0))
        st = prepare_initial_state("10", 2)
        g = g_mhz * ANGULAR_PER_MHZ
        t_swap = np.pi / (2 * g)
        times = np.linspace(0, 2 * t_swap, 41)
        amps = evolve_unitary(h, st, times)
        p2 = np.abs(amps[:, full_index((0, 1))]) ** 2
        np.testing.assert_allclose(p2, np.sin(g * times) ** 2, atol=1e-10)

    def test_norm_conserved(self):
        dev = paper_device()
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0))
        st = prepare_initial_state("X+X+000", 5)
        amps = evolve_unitary(h, st, np.linspace(0, 300, 151))
        norms = np.linalg.norm(amps, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_argument_validation(self):
        dev = paper_device()
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(0.0))
        st = prepare_initial_state("10000", 5)
        b = build_sector_basis(5, 1)
        st_sec = prepare_initial_state("10000", 5, basis=b)
        with pytest.raises(DomainError):
            evolve_unitary(h, st_sec, [0.0])  # tag mismatch
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                evolve_unitary(h, st, [0.0, bad])

    def test_times_must_be_one_dimensional(self):
        h = build_xy_hamiltonian(paper_device(), PotentialSpec.linear(0.0))
        st = prepare_initial_state("10000", 5)
        with pytest.raises(DomainError, match="times"):
            evolve_unitary(h, st, [[0.0, 1.0], [2.0, 3.0]])


class TestCollapseOps:
    def test_as_given_counts(self):
        ops = make_collapse_ops(paper_device())
        # one relaxation and one dephasing operator per qubit
        assert len(ops.operators) == 10
        assert ops.basis_tag == "full:n=5"

    def test_pure_dephasing_drops_zero_rates(self):
        # T2* = 2 T1 is the relaxation-limited line: pure rate is exactly 0
        dev = DeviceParams.uniform(3, coupling_mhz=5.0, t1_us=10.0, t2star_us=20.0)
        ops = make_collapse_ops(dev, dephasing="pure")
        assert len(ops.operators) == 3
        with pytest.raises(DomainError):
            make_collapse_ops(dev, dephasing="partial")

    def test_rates(self):
        dev = DeviceParams.uniform(2, coupling_mhz=5.0, t1_us=17.0, t2star_us=2.0)
        ops = make_collapse_ops(dev)
        relax = ops.operators[0].todense()
        # sqrt(1/T1) in 1/ns on the site-1 sigma-minus block
        gamma = np.sqrt(1.0 / 17000.0)
        assert abs(relax).max() == pytest.approx(gamma)


class TestLindblad:
    def test_amplitude_damping_closed_form(self):
        # decoupled chain: <n_1>(t) = exp(-t / T1)
        dev = DeviceParams.uniform(2, coupling_mhz=0.0, t1_us=17.0, t2star_us=1e6)
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(0.0))
        st = prepare_initial_state("10", 2)
        col = make_collapse_ops(dev)
        times = np.array([0.0, 1000.0, 5000.0, 17000.0])
        rhos = density_matrices(evolve_lindblad(h, st, times, col))
        n1 = build_observable("density", 1, dev).todense()
        got = [np.trace(r @ n1).real for r in rhos]
        np.testing.assert_allclose(got, np.exp(-times / 17000.0), atol=1e-8)

    def test_coherence_decay_rate(self):
        # as-given dephasing: rho_01 decays at 1/(2 T1) + 1/(2 T2*)
        dev = DeviceParams.uniform(2, coupling_mhz=0.0, t1_us=17.0, t2star_us=2.0)
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(0.0))
        st = prepare_initial_state("X+0", 2)
        col = make_collapse_ops(dev)
        t = 800.0
        rho = density_matrices(evolve_lindblad(h, st, [t], col))[0]
        # read the coherence entry rho_{10,00} directly
        i10, i00 = full_index((1, 0)), full_index((0, 0))
        rate = 0.5 / 17000.0 + 0.5 / 2000.0
        assert rho[i10, i00].real == pytest.approx(0.5 * np.exp(-rate * t), rel=1e-5)

    def test_trace_and_hermiticity(self):
        dev = paper_device()
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0))
        st = prepare_initial_state("10000", 5)
        col = make_collapse_ops(dev)
        times = np.linspace(0, 300, 7)
        rhos = density_matrices(evolve_lindblad(h, st, times, col))
        for r in rhos:
            assert abs(np.trace(r).real - 1.0) < 1e-8
            assert np.max(np.abs(r - r.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(r)[0] > -1e-6

    def test_reduces_to_unitary_without_noise(self):
        dev = paper_device().replace(t1_us=np.full(5, 1e12), t2star_us=np.full(5, 1e12))
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0))
        st = prepare_initial_state("10000", 5)
        col = make_collapse_ops(dev)
        times = np.array([0.0, 40.0, 80.0])
        rhos = density_matrices(evolve_lindblad(h, st, times, col))
        amps = evolve_unitary(h, st, times)
        for r, v in zip(rhos, amps):
            np.testing.assert_allclose(r, np.outer(v, v.conj()), atol=1e-7)

    def test_argument_validation(self):
        dev = paper_device()
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(0.0))
        st = prepare_initial_state("10000", 5)
        col = make_collapse_ops(dev)
        with pytest.raises(DomainError):
            evolve_lindblad(h, st, [-5.0], col)
        with pytest.raises(DomainError):
            evolve_lindblad(h, st, [0.0, np.inf], col)

    def test_times_must_be_one_dimensional(self):
        dev = paper_device()
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(0.0))
        st = prepare_initial_state("10000", 5)
        with pytest.raises(DomainError, match="times"):
            evolve_lindblad(h, st, [[0.0, 1.0], [2.0, 3.0]], make_collapse_ops(dev))

    def test_non_positive_state_rejected(self):
        # a non-positive start never reaches the solver: every start is a
        # state vector, and a matrix is refused by its shape
        with pytest.raises(DomainError, match=r"^state data must be a vector, "
                           r"got shape \(4, 4\)$"):
            QuantumState(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), full_tag(2))

    @pytest.mark.parametrize("entries", [1, 40, 1 << 20])
    def test_chunked_checks_change_nothing(self, entries, monkeypatch):
        # one snapshot, a few, or the whole grid per checked stack
        h, col = _noisy_chain(3, "device")
        st = prepare_initial_state("X+10", 3)
        times = np.arange(0.0, 60.0, 4.0)
        want = evolve_lindblad(h, st, times, col).coords
        monkeypatch.setattr(dynamics, "CHECK_STACK_ENTRIES", entries)
        np.testing.assert_array_equal(evolve_lindblad(h, st, times, col).coords,
                                      want)


# a valid 2x2 block, and one failure of each check, with the text that
# checking one snapshot at a time gave for it at the time t below
_GOOD = np.diag([0.75, 0.25]).astype(complex)
_TRACE = np.diag([0.75, 0.25 + 2e-5]).astype(complex)
_NEGATIVE = np.diag([1.25, -0.25]).astype(complex)
_NEGATIVE_AND_TRACE = np.diag([1.5, -0.25]).astype(complex)
_MESSAGES = {
    "nan": "density matrix is not finite at t = {:g} ns",
    "trace": "density matrix trace 1.0000200000000001 is not 1 at t = {:g} ns",
    "negative": "density matrix eigenvalue -0.25 at t = {:g} ns",
}
_BLOCK_TIMES = np.arange(0.0, 14.0, 2.0)


def _solver_check(stack, times):
    """The state rule on density matrices: LindbladSnapshots made from the
    coordinates (dynamics._coordinates) of a Hermitian (T, s, s) stack on all
    s states, at times; a failure is the solver's NumericalConsistencyError,
    and snapshots that pass hold the stack exactly."""
    side = stack.shape[1]
    snaps = dynamics.LindbladSnapshots(dynamics._coordinates(stack),
                                       np.arange(side), side, times)
    np.testing.assert_array_equal(density_matrices(snaps), stack)


def _stack_failing(**at):
    """Seven valid blocks at _BLOCK_TIMES, with the named bad blocks put in
    at the given snapshots."""
    stack = np.array([_GOOD] * _BLOCK_TIMES.size)
    for name, k in at.items():
        stack[k] = {"trace": _TRACE, "negative": _NEGATIVE,
                    "both": _NEGATIVE_AND_TRACE, "nan": np.nan}[name]
    return stack


class TestStackChecks:
    def test_valid_stack_passes(self):
        stack = _stack_failing()
        _solver_check(stack, _BLOCK_TIMES)

    @pytest.mark.parametrize("name", sorted(_MESSAGES))
    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_one_failure(self, name, k):
        with pytest.raises(NumericalConsistencyError) as info:
            _solver_check(_stack_failing(**{name: k}), _BLOCK_TIMES)
        assert str(info.value) == _MESSAGES[name].format(_BLOCK_TIMES[k])

    @pytest.mark.parametrize("first, second", [
        ("nan", "negative"), ("negative", "nan"), ("trace", "nan"),
        ("negative", "trace"), ("nan", "trace"), ("trace", "negative")])
    def test_earliest_of_two_failures(self, first, second):
        stack = _stack_failing(**{first: 2, second: 5})
        with pytest.raises(NumericalConsistencyError) as info:
            _solver_check(stack, _BLOCK_TIMES)
        assert str(info.value) == _MESSAGES[first].format(4.0)

    def test_trace_before_positivity_in_one_block(self):
        with pytest.raises(NumericalConsistencyError,
                           match=r"^density matrix trace 1\.25 is not 1 at "
                           r"t = 8 ns$"):
            _solver_check(_stack_failing(both=4), _BLOCK_TIMES)

    @pytest.mark.parametrize("negative", [1, 5])
    def test_non_finite_block_never_reaches_eigvalsh(self, negative,
                                                     monkeypatch):
        # neither the Cholesky screen nor eigvalsh sees a non-finite block
        seen = []

        def finite_only(fn):
            def checked(a):
                seen.append(np.all(np.isfinite(a)))
                return fn(a)
            return checked

        for name in ("cholesky", "eigvalsh"):
            monkeypatch.setattr(dynamics.np.linalg, name,
                                finite_only(getattr(np.linalg, name)))
        with pytest.raises(NumericalConsistencyError) as info:
            _solver_check(_stack_failing(nan=3, negative=negative),
                          _BLOCK_TIMES)
        if negative < 3:
            assert str(info.value) == _MESSAGES["negative"].format(2.0)
        else:
            assert str(info.value) == _MESSAGES["nan"].format(6.0)
        assert seen and all(seen)


def _block_with_lowest(low, size=4, seed=0):
    """A Hermitian size x size block of trace 1 whose smallest eigenvalue
    is low, in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    rest = rng.dirichlet(np.ones(size - 1)) * (1.0 - low)
    u, _ = np.linalg.qr(rng.normal(size=(size, size))
                        + 1j * rng.normal(size=(size, size)))
    block = (u * np.append(low, rest)) @ u.conj().T
    return 0.5 * (block + block.conj().T)


def _stack_with_lowest(at, low):
    stack = np.array([_block_with_lowest(0.0, seed=k)
                      for k in range(_BLOCK_TIMES.size)])
    for k in at:
        stack[k] = _block_with_lowest(low, seed=100 + k)
    return stack


class TestPositivityScreen:
    """The Cholesky screen in front of eigvalsh: eigvalsh runs only when
    the screen fails, and the rule and its message stay eigvalsh's."""

    @staticmethod
    def _count_eigvalsh(monkeypatch):
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(a):
            calls.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(dynamics.np.linalg, "eigvalsh", counted)
        return calls

    def test_small_negative_eigenvalue_passes(self, monkeypatch):
        # -0.7e-6 is within POSITIVITY_TOL but beyond the screen's half of
        # it, so eigvalsh decides, and passes it
        calls = self._count_eigvalsh(monkeypatch)
        stack = _stack_with_lowest([4], -0.7e-6)
        _solver_check(stack, _BLOCK_TIMES)
        assert calls == [_BLOCK_TIMES.size]

    @pytest.mark.parametrize("at", [[0], [4], [2, 5], [6]])
    def test_negative_eigenvalue_names_its_snapshot(self, at):
        stack = _stack_with_lowest(at, -1.5e-6)
        low = np.linalg.eigvalsh(stack[at[0]])[0]
        assert low < -dynamics.POSITIVITY_TOL
        with pytest.raises(NumericalConsistencyError) as info:
            _solver_check(stack, _BLOCK_TIMES)
        assert str(info.value) == (f"density matrix eigenvalue {low} at "
                                   f"t = {_BLOCK_TIMES[at[0]]:g} ns")

    def test_healthy_stacks_never_call_eigvalsh(self, monkeypatch):
        calls = self._count_eigvalsh(monkeypatch)
        # pure and rank-deficient blocks sit at eigenvalue 0 exactly
        stack = _stack_with_lowest([1, 3], 0.0)
        stack[5] = np.diag([1.0, 0.0, 0.0, 0.0])
        _solver_check(stack, _BLOCK_TIMES)
        h, col = _noisy_chain(3, "device")
        evolve_lindblad(h, prepare_initial_state("X+10", 3),
                        np.arange(0.0, 60.0, 4.0), col)
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(size=st.integers(2, 8), m=st.integers(1, 6),
           low=st.floats(-3e-6, 1e-6), data=st.data())
    def test_same_verdict_as_eigvalsh_alone(self, size, m, low, data):
        # the former rule: eigvalsh on every block, the earliest below
        # -POSITIVITY_TOL named
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        stack = np.array([_block_with_lowest(
            low if data.draw(st.booleans()) else 0.0, size, seed + k)
            for k in range(m)])
        times = _BLOCK_TIMES[:m]
        lows = np.linalg.eigvalsh(stack)[:, 0]
        bad = np.flatnonzero(lows < -dynamics.POSITIVITY_TOL)
        if bad.size:
            with pytest.raises(NumericalConsistencyError) as info:
                _solver_check(stack, times)
            assert str(info.value) == (f"density matrix eigenvalue "
                                       f"{lows[bad[0]]} at t = "
                                       f"{times[bad[0]]:g} ns")
        else:
            _solver_check(stack, times)


# the reason each message names, and a failure of each kind for a snapshot
_REASONS = {"state vector norm": "norm", "density matrix is not finite": "nan",
            "density matrix trace": "trace", "density matrix eigenvalue": "negative"}


def _snapshot(kind, side, density, rng):
    """A valid state vector or Hermitian density matrix of the side, or one
    that carries the named failure."""
    if not density:
        v = rng.normal(size=side) + 1j * rng.normal(size=side)
        v /= np.linalg.norm(v)
        if kind == "norm":
            v *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5, -0.5)
        elif kind == "nan":
            v[rng.integers(side)] = np.nan
        return v
    if kind == "negative":
        low = -(10.0 ** rng.uniform(-5.5, -0.5))
        weights = np.append(low, rng.dirichlet(np.ones(side - 1)) * (1.0 - low))
    else:
        weights = rng.dirichlet(np.ones(side))
    u, _ = np.linalg.qr(rng.normal(size=(side, side))
                        + 1j * rng.normal(size=(side, side)))
    rho = (u * weights) @ u.conj().T
    if kind == "trace":
        rho *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.5, -1)
    elif kind == "nan":
        rho[rng.integers(side), rng.integers(side)] = np.nan
    return 0.5 * (rho + rho.conj().T)


def _first_failure_one_at_a_time(stack):
    """(snapshot, reason) of the first snapshot that fails, checked one at a
    time, with eigvalsh for positivity; None if every one passes."""
    for k, x in enumerate(stack):
        if x.ndim == 1:
            if not abs(np.linalg.norm(x) - 1.0) <= dynamics.TRACE_TOL:
                return k, "norm"
            continue
        if not np.isfinite(x).all():
            return k, "nan"
        if abs(np.trace(x).real - 1.0) > dynamics.TRACE_TOL:
            return k, "trace"
        if np.linalg.eigvalsh(x)[0] < -dynamics.POSITIVITY_TOL:
            return k, "negative"
    return None


class TestStateRule:
    """One rule for every state: a norm for the state vectors of
    QuantumState and sample_shots, and trace and positivity for the
    density matrices of LindbladSnapshots."""

    @settings(max_examples=300, deadline=None)
    @given(density=st.booleans(), side=st.integers(1, 6),
           entries=st.sampled_from([1, 20, dynamics.CHECK_STACK_ENTRIES]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_same_verdict_as_one_snapshot_at_a_time(self, density, side,
                                                    entries, seed, data):
        kinds = (["valid", "trace", "nan"]
                 + ["negative"] * (side > 1)) if density else \
            ["valid", "norm", "nan"]
        picked = data.draw(st.lists(st.sampled_from(kinds), min_size=1,
                                    max_size=8))
        rng = np.random.default_rng(seed)
        stack = np.array([_snapshot(kind, side, density, rng)
                          for kind in picked])
        want = _first_failure_one_at_a_time(stack)
        # vectors through the stack check, density matrices as snapshots at
        # 0, 2, 4, ... ns; one snapshot or a few at a time, or all at once
        check, error, named = (
            (lambda: _solver_check(stack, 2.0 * np.arange(len(stack))),
             NumericalConsistencyError, r"(.*) at t = (\d+) ns") if density
            else (lambda: dynamics._checked_stack(stack), DomainError,
                  r"snapshot (\d+): (.*)"))
        with mock.patch.object(dynamics, "CHECK_STACK_ENTRIES", entries):
            if want is None:
                # vectors come back as given, density matrices as held
                got = check()
                assert density or got is stack
                return
            with pytest.raises(error) as info:
                check()
        groups = re.fullmatch(named, str(info.value)).groups()
        k, message = ((int(groups[1]) // 2, groups[0]) if density
                      else (int(groups[0]), groups[1]))
        reason = [r for prefix, r in _REASONS.items() if message.startswith(prefix)]
        assert (k, reason) == (want[0], [want[1]])

    def test_every_caller_names_the_earliest_snapshot(self):
        # vectors with a norm off 1 at snapshots 1 and 3, and density
        # matrices with a trace off 1 at 1 and a negative eigenvalue at 3
        vectors = np.array([[1.0, 0.0]] * 4)
        vectors[[1, 3]] *= 2.0
        with pytest.raises(DomainError, match=r"^snapshot 1: state vector "
                           r"norm 2\.0 is not 1$"):
            sample_shots(vectors, [ConfusionMatrix.perfect()], "Z", 10,
                         [1, 2, 3, 4])
        with pytest.raises(DomainError, match=r"^state vector norm 2\.0 is "
                           r"not 1$"):
            QuantumState(vectors[1], "full:n=1")
        stack = np.array([_GOOD] * 4)
        stack[1] = _TRACE
        stack[3] = _NEGATIVE
        with pytest.raises(NumericalConsistencyError, match=r"^density matrix "
                           r"trace 1\.00002\d* is not 1 at t = 2 ns$"):
            _solver_check(stack, _BLOCK_TIMES[:4])


class TestLindbladSnapshots:
    """The solver's snapshots in real coordinates: making them is the
    state check, which names the earliest failure in time."""

    @settings(max_examples=200, deadline=None)
    @given(side=st.integers(1, 6),
           entries=st.sampled_from([1, 20, dynamics.CHECK_STACK_ENTRIES]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_same_verdict_as_the_matrix_rule(self, side, entries, seed, data):
        # Hermitian stacks, so their coordinates hold them exactly, at
        # unsorted times: the failure named is the one the same snapshots
        # in time order name
        kinds = ["valid", "trace", "nan"] + ["negative"] * (side > 1)
        picked = data.draw(st.lists(st.sampled_from(kinds), min_size=1,
                                    max_size=8))
        rng = np.random.default_rng(seed)
        stack = np.array([_snapshot(kind, side, True, rng) for kind in picked])
        stack = 0.5 * (stack + stack.conj().transpose(0, 2, 1))
        times = rng.permutation(len(stack)) * 2.0
        order = np.argsort(times, kind="stable")
        x = dynamics._coordinates(stack)
        with mock.patch.object(dynamics, "CHECK_STACK_ENTRIES", entries):
            try:
                _solver_check(stack[order], times[order])
            except NumericalConsistencyError as exc:
                with pytest.raises(NumericalConsistencyError) as info:
                    dynamics.LindbladSnapshots(x, np.arange(side), side, times)
                assert str(info.value) == str(exc)
            else:
                got = dynamics.LindbladSnapshots(x, np.arange(side), side, times)
                np.testing.assert_array_equal(density_matrices(got), stack)

    def test_made_only_from_checked_coordinates(self):
        # the type is its own check: code outside the solver cannot make
        # one from coordinates that fail the rule, or change one it holds
        stack = np.array([_GOOD, _NEGATIVE, _GOOD])
        with pytest.raises(NumericalConsistencyError,
                           match=r"^density matrix eigenvalue -0\.25 at "
                           r"t = 2 ns$"):
            dynamics.LindbladSnapshots(dynamics._coordinates(stack), [0, 1],
                                       2, [0.0, 2.0, 4.0])
        snaps = dynamics.LindbladSnapshots(
            dynamics._coordinates(stack[[0, 2]]), [1, 3], 4, [0.0, 2.0])
        assert snaps.shape == (2, 4, 4) and len(snaps) == 2
        with pytest.raises(ValueError, match="read-only"):
            snaps.coords[0, 0] = 0.5
        with pytest.raises(AttributeError):
            snaps.coords = np.zeros((2, 4))
        want = np.zeros((2, 4, 4), dtype=complex)
        want[:, 1::2, 1::2] = _GOOD
        np.testing.assert_array_equal(density_matrices(snaps), want)

    def test_a_view_is_copied(self):
        # writing through the base of a view after the check leaves the
        # snapshots as checked; an array of their own is taken over
        base = dynamics._coordinates(np.array([_GOOD, _GOOD]))
        owned = base.copy()
        snaps = dynamics.LindbladSnapshots(base[:], [0, 1], 2, [0.0, 1.0])
        base[1, 0] = -5.0
        np.testing.assert_array_equal(density_matrices(snaps), [_GOOD, _GOOD])
        snaps = dynamics.LindbladSnapshots(owned, [0, 1], 2, [0.0, 1.0])
        assert snaps.coords is owned and not owned.flags.writeable

    @pytest.mark.parametrize("support, dim, width", [
        ([0, 1], 2, 3), ([0, 2], 2, 4), ([-1, 0], 2, 4), ([1, 0], 2, 4),
        ([0.0, 1.0], 2, 4), ([[0, 1]], 2, 4), (1, 2, 1)])
    def test_shapes_refused(self, support, dim, width):
        # coordinates that do not fit the support, or a support that is
        # not ascending positions in the basis, are refused before the check
        coords = np.zeros((2, width))
        with pytest.raises(DomainError, match=r"^need \(T, s\^2\) coordinates"):
            dynamics.LindbladSnapshots(coords, support, dim, [0.0, 1.0])

    def test_solver_checks_its_snapshots_once(self, monkeypatch):
        # one check of the coordinates per run, none of matrices
        h, col = _noisy_chain(3, "device")
        state = prepare_initial_state("X+10", 3)
        calls = []
        for name in ("_checked_stack", "_checked_coordinates"):
            def counted(*args, fn=getattr(dynamics, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(dynamics, name, counted)
        snaps = evolve_lindblad(h, state, np.arange(0.0, 60.0, 4.0), col)
        assert calls == ["_checked_coordinates"]
        assert isinstance(snaps, dynamics.LindbladSnapshots)


def _dense_lindblad(h, collapse, state, times):
    """Reference: dense expm of the full-space Liouvillian, column-stacked."""
    hd = h.todense()
    dim = hd.shape[0]
    eye = np.eye(dim)
    gen = -1j * (np.kron(eye, hd) - np.kron(hd.T, eye))
    for op in collapse.operators:
        c = op.todense()
        cdc = c.conj().T @ c
        gen += np.kron(c.conj(), c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
    v0 = np.outer(state.data, state.data.conj()).reshape(-1, order="F")
    return np.array([(scipy.linalg.expm(gen * t) @ v0).reshape(dim, dim, order="F")
                     for t in times])


# unsorted, repeated and unevenly spaced
_REFERENCE_TIMES = np.array([75.0, 0.0, 12.5, 75.0, 3.0, 160.0, 12.5])
# a uniform grid: its step recurs, so the small blocks get dense propagators
_GRID_TIMES = np.arange(0.0, 160.0, 20.0)


def _noisy_chain(n, jumps):
    """Tilted chain with per-site T1/T2*. "flip" adds a sigma-x jump on site
    2: it changes the ket-bra excitation difference k - k' by 0 or 2, so the
    generator no longer splits by k - k'."""
    dev = DeviceParams.uniform(n, coupling_mhz=12.0).replace(
        t1_us=np.linspace(0.4, 1.2, n), t2star_us=np.linspace(0.3, 0.9, n))
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(-9.0))
    col = make_collapse_ops(dev)
    if jumps == "flip":
        flip = operator(np.sqrt(1.0 / 800.0) * _site_operator(SIGMA_X, 2, n),
                        full_tag(n))
        col = CollapseOperatorSet(operators=col.operators + (flip,),
                                  basis_tag=full_tag(n))
    return h, col


def _block_sizes(h, col, psi, real=False):
    """Sizes of the generator's blocks on the states reachable from the
    state vector psi: on vec rho, or with real on its Hermitian
    coordinates."""
    keep = _reachable_states(psi, h, col)
    rows, cols, vals = _liouvillian(_table(h, col, keep), keep.size)
    if real:
        rows, cols, vals = dynamics._hermitian_coordinates(keep.size, rows,
                                                           cols, vals)
    nonzero = vals != 0
    blocks = _generator_blocks(rows[nonzero], cols[nonzero], keep.size ** 2)
    np.testing.assert_array_equal(np.sort(np.concatenate(blocks)),
                                  np.arange(keep.size ** 2))
    return sorted((b.size for b in blocks), reverse=True)


class TestLindbladReference:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["one", "edge", "all"])
    def test_matches_dense_expm(self, n, kind, monkeypatch):
        spec = {"one": "1" + "0" * (n - 1),
                "edge": "X+X+" + "0" * (n - 2),
                "all": "X+" * n}[kind]
        st = prepare_initial_state(spec, n)
        for jumps in ("device", "flip"):
            h, col = _noisy_chain(n, jumps)
            for times in (_REFERENCE_TIMES, _GRID_TIMES):
                ref = _dense_lindblad(h, col, st, times)
                got = density_matrices(evolve_lindblad(h, st, times, col))
                assert np.max(np.abs(got - ref)) <= 1e-10
                # blocks of up to 8 entries dense, every larger one in a
                # single expm_multiply call
                with monkeypatch.context() as m:
                    m.setattr(dynamics, "DENSE_BLOCK_CAP", 8)
                    got = density_matrices(evolve_lindblad(h, st, times, col))
                assert np.max(np.abs(got - ref)) <= 1e-10

    @pytest.mark.parametrize("cap", [dynamics.DENSE_BLOCK_CAP, 8])
    def test_steps_that_differ_in_the_last_ulp(self, cap, monkeypatch):
        # the steps of this grid take six values around 0.1, some once and
        # some many times; each is its own interval, none is rounded to another
        times = np.arange(0.0, 3.0, 0.1)
        assert np.unique(np.diff(times)).size > 1
        h, col = _noisy_chain(3, "flip")
        st = prepare_initial_state("X+10", 3)
        monkeypatch.setattr(dynamics, "DENSE_BLOCK_CAP", cap)
        got = density_matrices(evolve_lindblad(h, st, times, col))
        assert np.max(np.abs(got - _dense_lindblad(h, col, st, times))) <= 1e-10

    def test_raising_jump_reaches_every_state(self):
        # a sigma+ jump on site 1 adds excitations, so from 10000 the state
        # must spread over every sector, and still match the reference
        dev = paper_device()
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0))
        pump = operator(np.sqrt(1.0 / 2000.0) * _site_operator(SIGMA_PLUS, 1, 5),
                        full_tag(5))
        col = CollapseOperatorSet(
            operators=make_collapse_ops(dev).operators + (pump,),
            basis_tag=full_tag(5))
        st = prepare_initial_state("10000", 5)
        times = np.array([0.0, 60.0])
        got = density_matrices(evolve_lindblad(h, st, times, col))
        np.testing.assert_allclose(got, _dense_lindblad(h, col, st, times),
                                   rtol=0, atol=1e-10)
        two_up = [i for i in range(32) if bin(i).count("1") == 2]
        assert np.trace(got[1][np.ix_(two_up, two_up)]).real > 1e-3

    def test_reachable_set_sizes(self):
        dev = paper_device()
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0))
        col = make_collapse_ops(dev)
        for spec, size in (("10000", 6), ("X+X+000", 16), ("X+" * 5, 32)):
            psi = prepare_initial_state(spec, 5).data
            assert _reachable_states(psi, h, col).size == size
        # damping and dephasing keep the ket-bra excitation difference, so
        # the generator on the reachable states splits into these blocks
        for spec, sizes in (("10000", [26, 5, 5]),
                            ("X+X+000", [126, 55, 55, 10, 10]),
                            ("X+" * 5, [252, 210, 210, 120, 120, 45, 45, 10, 10, 1, 1])):
            psi = prepare_initial_state(spec, 5).data
            assert _block_sizes(h, col, psi) == sizes
        # on the Hermitian coordinates each block of entries rho_ab and the
        # block of their mirrors rho_ba become one real block; a block that
        # is its own mirror keeps its size
        for spec, sizes in (("10000", [26, 10]),
                            ("X+X+000", [126, 110, 20]),
                            ("X+" * 5, [420, 252, 240, 90, 20, 2])):
            psi = prepare_initial_state(spec, 5).data
            assert _block_sizes(h, col, psi, real=True) == sizes
        dev6 = DeviceParams.uniform(6, t1_us=20.0, t2star_us=2.0)
        h6 = build_xy_hamiltonian(dev6, PotentialSpec.linear(-15.0))
        psi6 = prepare_initial_state("100000", 6).data
        assert _reachable_states(psi6, h6, make_collapse_ops(dev6)).size == 7


@st.composite
def _noisy_chains(draw):
    n = draw(st.integers(2, 4))
    couplings = draw(st.lists(st.floats(0.0, 25.0), min_size=n - 1, max_size=n - 1))
    tilt = draw(st.floats(-30.0, 30.0))
    t1 = draw(st.lists(st.floats(0.5, 60.0), min_size=n, max_size=n))
    t2 = draw(st.lists(st.floats(0.3, 30.0), min_size=n, max_size=n))
    spec = "".join(draw(st.lists(st.sampled_from(["0", "1", "X+", "X-"]),
                                 min_size=n, max_size=n)))
    dephasing = draw(st.sampled_from(["as-given", "pure"]))
    times = draw(st.lists(st.floats(0.0, 200.0), min_size=1, max_size=5))
    return n, couplings, tilt, t1, t2, spec, dephasing, np.array(times)


@settings(max_examples=30, deadline=None)
@given(_noisy_chains())
# a step so short that dt G underflows, where expm_multiply would pick zero
# scaling steps and divide by zero, and a subnormal coupling, which would
# make its norm estimate overflow
@example((4, [0.0] * 3, -30.0, [0.5] * 4, [0.3] * 4, "0001", "as-given",
          np.array([5e-324])))
@example((4, [0.0, 0.0, 2.2250738585e-313], 28.0, [1.0] * 4, [1.0] * 4, "0001",
          "as-given", np.array([91.0])))
def test_lindblad_matches_dense_expm_random_chains(chain):
    n, couplings, tilt, t1, t2, spec, dephasing, times = chain
    dev = DeviceParams.uniform(n).replace(coupling_mhz=couplings, t1_us=t1,
                                          t2star_us=t2)
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(tilt))
    col = make_collapse_ops(dev, dephasing=dephasing)
    state = prepare_initial_state(spec, n)
    got = density_matrices(evolve_lindblad(h, state, times, col))
    assert np.max(np.abs(got - _dense_lindblad(h, col, state, times))) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(_noisy_chains())
# a single step, taken by every block's dense expm as any step is: two
# calls must agree bit for bit
@example((4, [0.0, 20.0, 1.0], -19.0, [1.0] * 4, [1.0] * 4, "00X+X+",
          "as-given", np.array([66.0])))
def test_full_space_run_equals_the_sector_range_run(chain):
    # on the full space the solver's snapshots are its run on the states of
    # the counts the start reaches, as on that basis, and zero elsewhere
    n, couplings, tilt, t1, t2, spec, dephasing, times = chain
    dev = DeviceParams.uniform(n).replace(coupling_mhz=couplings, t1_us=t1,
                                          t2star_us=t2)

    def run(basis):
        return density_matrices(evolve_lindblad(
            build_xy_hamiltonian(dev, PotentialSpec.linear(tilt), basis=basis),
            prepare_initial_state(spec, n, basis=basis), times,
            make_collapse_ops(dev, dephasing=dephasing, basis=basis)))

    full = run(None)
    assert full.shape == (times.size, 2 ** n, 2 ** n)
    np.testing.assert_array_equal(full, run(None))
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(tilt))
    col = make_collapse_ops(dev, dephasing=dephasing)
    state = prepare_initial_state(spec, n)
    assert np.max(np.abs(full - _dense_lindblad(h, col, state, times))) <= 1e-10
    basis = build_sector_basis(n, _excitation_range(spec, "lindblad"))
    keep = np.array(basis.states)
    block = (slice(None), keep[:, None], keep)
    assert np.max(np.abs(full[block] - run(basis))) <= 1e-12
    full[block] = 0.0
    assert not full.any()


def _displacements(h, state, times, at):
    """rho(t) - rho(0) at the snapshots at of a run on times, times[0] = 0,
    from evolve_unitary and from the noise-free evolve_lindblad, each
    measured from its own first snapshot."""
    amps = evolve_unitary(h, state, times)[[0, *at]]
    unitary = np.einsum("ti,tj->tij", amps, amps.conj())
    snaps = evolve_lindblad(h, state, times, CollapseOperatorSet((), h.basis_tag))
    lindblad = density_matrices(dynamics.LindbladSnapshots(
        snaps.coords[[0, *at]], snaps.support, h.dim,
        times[[0, *at]]))
    return unitary[1:] - unitary[0], lindblad[1:] - lindblad[0]


@st.composite
def _sub_roundoff_grids(draw):
    # (kind, size, count) segments: normal steps in ns, exact repeats, and
    # runs of steps of size times 2^-53 / (4 |H|_1), below 2^-53 over the
    # 1-norm of either solver's generator: that of the noise-free generator
    # on the Hermitian coordinates is at most 4 |H|_1 for a real H
    n = draw(st.integers(2, 4))
    spec = "".join(draw(st.lists(st.sampled_from(["0", "1", "X+", "X-"]),
                                 min_size=n, max_size=n)))
    tilt = draw(st.sampled_from([0.0, 7.5, -15.0, 30.0]))
    segments = draw(st.lists(st.one_of(
        st.tuples(st.just("normal"), st.floats(0.01, 4.0), st.just(1)),
        st.tuples(st.just("repeat"), st.just(0.0), st.integers(1, 3)),
        st.tuples(st.just("short"), st.floats(0.05, 0.95), st.integers(1, 300))),
        min_size=1, max_size=4))
    return n, spec, tilt, segments


@pytest.mark.parametrize("cap", [dynamics.DENSE_BLOCK_CAP, 0])
@settings(max_examples=10, deadline=None)
@given(_sub_roundoff_grids())
# only short steps, with a repeat between two runs: frozen where the steps
# were dropped
@example((2, "X+0", -15.0, [("short", 0.9, 200), ("repeat", 0.0, 2),
                             ("short", 0.5, 100)]))
def test_noise_free_lindblad_moves_as_the_unitary(cap, grid):
    # the one step list of both solvers leaves out no interval's time: every
    # stepped block, dense or above the cap, carries a step too short for it
    # into the next one. The unitary's displacement is matched to 1%, within
    # a carry's lag of a few ulps
    n, spec, tilt, segments = grid
    h = build_xy_hamiltonian(DeviceParams.uniform(n), PotentialSpec.linear(tilt))
    short = 2.0 ** -53 / (4 * np.abs(h.todense()).sum(axis=0).max())
    steps = [0.0]
    for kind, size, count in segments:
        steps += [size * short if kind == "short" else size] * count
    with mock.patch.object(dynamics, "DENSE_BLOCK_CAP", cap):
        unitary, lindblad = _displacements(
            h, prepare_initial_state(spec, n), np.cumsum(steps), range(len(steps)))
    gap = np.abs(lindblad - unitary).max(axis=(1, 2))
    assert np.all(gap <= 0.01 * np.abs(unitary).max(axis=(1, 2)) + 2.0 ** -51)


def test_steps_below_roundoff_move_the_lindblad_run():
    # 100 000 snapshots 2.5e-17 ns apart from X+0000: each step is below
    # 2^-53 over the generator's 1-norm, and together they move rho by
    # 1.2e-13, as in the unitary run
    h = build_xy_hamiltonian(paper_device(), PotentialSpec.linear(-15.0))
    (unitary,), (lindblad,) = _displacements(
        h, prepare_initial_state("X+0000", 5), 2.5e-17 * np.arange(100_000),
        [-1])
    moved = np.abs(unitary).max()
    assert moved >= 1e-13
    assert np.abs(lindblad - unitary).max() <= 0.01 * moved


@st.composite
def _step_grids(draw):
    """(times, norm): an unsorted grid of normal steps, exact repeats and
    runs of steps below 2^-53 over norm, and the 1-norm of a generator."""
    norm = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    short = 2.0 ** -53 / max(norm, 1e-3)
    t, times = draw(st.floats(0.0, 10.0)), []
    for kind, size, count in draw(st.lists(st.one_of(
            st.tuples(st.just("normal"), st.floats(1e-3, 4.0), st.just(1)),
            st.tuples(st.just("repeat"), st.just(0.0), st.integers(1, 3)),
            st.tuples(st.just("short"), st.floats(0.05, 2.0), st.integers(1, 20))),
            min_size=1, max_size=6)):
        for _ in range(count):
            t += size * short if kind == "short" else size
            times.append(t)
    order = draw(st.permutations(range(len(times))))
    return np.array(times)[order], norm


@settings(max_examples=200, deadline=None)
@given(_step_grids())
@example((np.array([2.0, 0.0, 2.0, 1.0]), 0.0))  # no block moves: all carried
def test_step_list(grid):
    # every position once, in ascending time with ties in input order; an
    # exact 0 or an interval below 2^-53 over the norm gives 0 and is
    # carried, and every other dt is its time less the last taken, bit for
    # bit, so what stays untaken at the end is below roundoff too
    times, norm = grid
    steps = dynamics._step_lists(times)(norm)
    assert [pos for pos, _ in steps] == sorted(range(times.size),
                                                key=lambda k: times[k])
    taken = 0.0
    for pos, dt in steps:
        gap = times[pos] - taken
        if gap == 0 or gap * norm < 2.0 ** -53:
            assert dt == 0.0
        else:
            assert dt == gap > 0
            taken = times[pos]
    assert (times.max() - taken) * norm < 2.0 ** -53 or times.max() == taken


def _reference_steps(times, norm):
    """The step list of one block as a loop over the sorted times, the form
    dynamics._step_lists replaced."""
    order, steps, t_prev = np.argsort(times, kind="stable"), [], 0.0
    for t, pos in zip(times[order].tolist(), order.tolist()):
        dt = t - t_prev
        if not dt or dt * norm < 2.0 ** -53:
            dt = 0.0
        else:
            t_prev = t
        steps.append((pos, dt))
    return steps


@settings(max_examples=200, deadline=None)
@given(_step_grids(), st.lists(st.one_of(
    st.just(0.0), st.just(np.inf), st.floats(1e-6, 1e6)), max_size=4))
@example((np.array([2.0, 0.0, 2.0, 1.0]), 0.0), [1.0])
@example((np.array([0.0, 0.0]), 0.0), [np.inf])  # no nonzero interval
def test_step_lists_match_the_loop(grid, norms):
    # one run's lists, built once, for blocks of several norms: each is the
    # loop's list exactly, positions and dt alike
    times, norm = grid
    steps = dynamics._step_lists(times)
    for block_norm in [norm, *norms]:
        assert steps(block_norm) == _reference_steps(times, block_norm)


@pytest.mark.parametrize("times", [
    np.array([0.0, 4.0, 2.0, 2.0, 6.0]),
    np.array([3e-17, 0.0, 1e-17, 2.0, 2.0 + 2.0 ** -51, 4.0, 2.0])],
    ids=["ties", "sub-roundoff"])
def test_every_block_steps_by_the_loop(monkeypatch, times):
    # each dense block of an X+X+000 run on counts 0..2 steps along the
    # loop's list at the 1-norm of its own generator
    seen, stepped = [], dynamics._expm_stepped

    def recorded(gen, vec, t, steps):
        norm = np.abs(gen).sum(axis=0).max()
        seen.append(steps(norm) == _reference_steps(t, norm))
        return stepped(gen, vec, t, steps)

    monkeypatch.setattr(dynamics, "_expm_stepped", recorded)
    basis = build_sector_basis(5, (0, 2))
    h = build_xy_hamiltonian(paper_device(), PotentialSpec.linear(-15.0),
                             basis=basis)
    evolve_lindblad(h, prepare_initial_state("X+X+000", 5, basis=basis), times,
                    make_collapse_ops(paper_device(), basis=basis))
    assert seen == [True] * 3


def _expm_gap(got, want):
    """The 1-norm of got - want relative to that of want."""
    return np.abs(got - want).sum(axis=0).max() / np.abs(want).sum(axis=0).max()


class TestExpm:
    """dynamics._expm, the dense propagator of every recurring Lindblad step,
    against scipy.linalg.expm."""

    # 1-norms 1e-3, 0.1, 0.6, 1.6, 4 and 1e3: degrees 3, 5, 7, 9, 13 and
    # 13 after 8 halvings
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
           log_norm=st.floats(-6.0, 3.0))
    @example(n=4, seed=0, log_norm=-3.0)
    @example(n=4, seed=0, log_norm=-1.0)
    @example(n=4, seed=0, log_norm=-0.2)
    @example(n=4, seed=0, log_norm=0.2)
    @example(n=4, seed=0, log_norm=0.6)
    @example(n=4, seed=0, log_norm=3.0)
    def test_random_matrices(self, n, seed, log_norm):
        # a random real matrix, shifted to spectral abscissa 0 so that its
        # exponential neither overflows nor underflows at any scale, then
        # scaled to the 1-norm. Each side errs by up to about the condition
        # number of exp at a (expm_cond) times the rounding unit: against a
        # 50-digit reference, scipy's error on an X+X+000 block scaled to
        # 1-norm 1e3 is 1.4e-12, about 40 times _expm's
        a = np.random.default_rng(seed).standard_normal((n, n))
        a -= np.linalg.eigvals(a).real.max() * np.eye(n)
        a *= 10.0 ** log_norm / np.abs(a).sum(axis=0).max()
        gap = _expm_gap(dynamics._expm(a), scipy.linalg.expm(a))
        assert gap <= 1e-13 * max(1.0, scipy.linalg.expm_cond(a))

    @pytest.mark.parametrize("n, sizes", [(5, [126, 110, 20]),
                                          (6, [262, 192, 30])])
    def test_lindblad_blocks(self, monkeypatch, n, sizes):
        # the dense blocks dt G_b of X+X+0... on counts 0..2 at dt = 2 ns
        blocks, expm = [], dynamics._expm

        def recorded(a):
            blocks.append(a)
            return expm(a)

        monkeypatch.setattr(dynamics, "_expm", recorded)
        dev = (paper_device() if n == 5 else
               DeviceParams.uniform(n, t1_us=20.0, t2star_us=2.0))
        basis = build_sector_basis(n, (0, 2))
        h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0), basis=basis)
        state = prepare_initial_state("X+X+" + "0" * (n - 2), n, basis=basis)
        evolve_lindblad(h, state, [0.0, 2.0, 4.0],
                        make_collapse_ops(dev, basis=basis))
        assert [len(a) for a in blocks] == sizes
        for a in blocks:
            assert _expm_gap(expm(a), scipy.linalg.expm(a)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_zero_gives_the_identity_exactly(self, n):
        np.testing.assert_array_equal(dynamics._expm(np.zeros((n, n))),
                                      np.eye(n))

    @pytest.mark.parametrize("a", [
        [[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 1.0], [0.0, -1.0]],
        [[1e306, 1e306], [-1e306, 1e306]]],
        ids=["nan", "inf", "overflowing"])
    def test_non_finite_result_is_nan_without_a_warning(self, a):
        # a RuntimeWarning fails the suite; the caller's state check names
        # a nan propagator's snapshot
        assert np.isnan(dynamics._expm(np.array(a))).all()


def test_expm_multiply_steps_ignore_global_random_state(monkeypatch):
    # the same single-step evolution under different global random states,
    # which the solver leaves as it found them; every block above the cap
    # steps with expm_multiply, whose norm estimates draw from that state
    monkeypatch.setattr(dynamics, "DENSE_BLOCK_CAP", 0)
    dev = DeviceParams.uniform(4).replace(coupling_mhz=[0.0, 20.0, 1.0],
                                          t1_us=[1.0] * 4, t2star_us=[1.0] * 4)
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(-19.0))
    col = make_collapse_ops(dev)
    state = prepare_initial_state("00X+X+", 4)
    runs = []
    for seed in range(6):
        np.random.seed(seed)
        runs.append(evolve_lindblad(h, state, [66.0], col).coords)
        assert np.random.randint(1 << 30) == \
            np.random.RandomState(seed).randint(1 << 30)
    for got in runs[1:]:
        np.testing.assert_array_equal(got, runs[0])


class TestSupportCap:
    @staticmethod
    def _chain(n, basis=None):
        dev = DeviceParams.uniform(n, t1_us=20.0, t2star_us=2.0)
        return build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0), basis=basis), \
            make_collapse_ops(dev, basis=basis)

    def test_eleven_qubits_from_one_excitation(self, monkeypatch):
        # counts 0..2 of 11 qubits are 67 states, of which one excitation
        # reaches 12: its sector and the vacuum. The cap is on the reached
        # states, not the basis: a cap of 12 still lets the run through.
        monkeypatch.setattr(dynamics, "LINDBLAD_SUPPORT_CAP", 12)
        basis = build_sector_basis(11, (0, 2))
        h, col = self._chain(11, basis)
        state = prepare_initial_state("1" + "0" * 10, 11, basis=basis)
        keep = [i for i, s in enumerate(basis.states) if s.bit_count() <= 1]
        np.testing.assert_array_equal(_reachable_states(state.data, h, col), keep)
        got = density_matrices(evolve_lindblad(h, state, [0.0, 10.0, 20.0], col))
        assert got.shape == (3, 67, 67)
        np.testing.assert_allclose(np.trace(got, axis1=1, axis2=2), 1.0,
                                   atol=1e-12)
        got[:, np.array(keep)[:, None], keep] = 0.0
        assert not got.any()

    def test_refused_before_the_generator_is_built(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("generator built")

        monkeypatch.setattr(dynamics, "_liouvillian", unbuilt)
        h, col = self._chain(11)
        with pytest.raises(DomainError, match="^lindblad solver is capped at 1024 "
                           "reachable basis states, got 2048$"):
            evolve_lindblad(h, prepare_initial_state("X+" * 11, 11), [0.0], col)
        monkeypatch.setattr(dynamics, "LINDBLAD_SUPPORT_CAP", 11)
        with pytest.raises(DomainError, match="capped at 11 reachable basis "
                           "states, got 12$"):
            evolve_lindblad(h, prepare_initial_state("1" + "0" * 10, 11), [0.0], col)


def _link_matrix_closure(psi, h, collapse):
    """Reference: the reachable states grown by one sparse product per step
    with a link matrix stacking the patterns of H, of every C_k and of
    K = sum_k C_k+ C_k, read from their values (a stored zero links
    nothing), from the support of the state vector psi."""
    dim = h.dim
    jumps = [csr(op) for op in collapse.operators]
    stacked = sp.vstack([*jumps, sp.csr_matrix((0, dim))], format="csr")
    links = abs(sp.vstack([csr(h), *jumps, stacked.getH() @ stacked], format="csr"))
    reached = psi != 0
    while True:
        grown = reached | (links @ reached).reshape(-1, dim).any(axis=0)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


@st.composite
def _random_jump_chains(draw):
    """An XY chain, some with cut bonds, and random sparse jump operators:
    rows with one or two nonzeros (two give K entries off the diagonal) and
    stored exact zeros, in H as well. The values are continuous, so no
    entry of K cancels to an exact zero."""
    n = draw(st.integers(2, 4))
    dim = 2 ** n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    couplings = draw(st.lists(st.sampled_from([0.0, 9.0, 14.4]),
                              min_size=n - 1, max_size=n - 1))
    h = build_xy_hamiltonian(DeviceParams.uniform(n).replace(coupling_mhz=couplings),
                             PotentialSpec.linear(draw(st.floats(-30.0, 30.0))))
    zeros = rng.integers(0, dim, size=(2, draw(st.integers(0, 3))))
    h = OperatorMatrix(
        dim, np.concatenate([h.rows, zeros[0], zeros[1]]),
        np.concatenate([h.cols, zeros[1], zeros[0]]),
        np.concatenate([h.vals, np.zeros(2 * zeros.shape[1])]), full_tag(n))
    jumps = []
    for _ in range(draw(st.integers(0, 3))):
        rows, cols = [], []
        for r in rng.choice(dim, size=draw(st.integers(1, 4)), replace=False):
            width = draw(st.integers(1, 2))
            rows += [r] * width
            cols += list(rng.choice(dim, size=width, replace=False))
        vals = 0.05 * (rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows)))
        vals[rng.random(len(rows)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        jumps.append(OperatorMatrix(dim, rows, cols, vals, full_tag(n)))
    spec = "".join(draw(st.lists(st.sampled_from(["0", "1", "X+"]),
                                 min_size=n, max_size=n)))
    return h, CollapseOperatorSet(operators=tuple(jumps), basis_tag=full_tag(n)), \
        prepare_initial_state(spec, n)


@settings(max_examples=40, deadline=None)
@given(_random_jump_chains())
def test_reachable_states_match_the_link_matrix(chain):
    h, col, state = chain
    keep = _reachable_states(state.data, h, col)
    np.testing.assert_array_equal(keep, _link_matrix_closure(state.data, h, col))
    for op in (h, *col.operators):
        ref = csr(op)[np.ix_(keep, keep)]
        ref_rows = np.repeat(np.arange(keep.size), np.diff(ref.indptr))
        for got, want in zip(_on(op, keep), (ref_rows, ref.indices, ref.data)):
            np.testing.assert_array_equal(got, want)
    times = np.array([45.0, 0.0, 15.0, 7.5, 30.0])
    got = density_matrices(evolve_lindblad(h, state, times, col))
    assert np.max(np.abs(got - _dense_lindblad(h, col, state, times))) <= 1e-10


_TIME_GRIDS = st.lists(st.floats(0.0, 200.0), min_size=1, max_size=5).map(np.array)


def _built(chain):
    """(H, jumps, start, times) of a _noisy_chains draw."""
    n, couplings, tilt, t1, t2, spec, dephasing, times = chain
    dev = DeviceParams.uniform(n).replace(coupling_mhz=couplings, t1_us=t1,
                                          t2star_us=t2)
    return (build_xy_hamiltonian(dev, PotentialSpec.linear(tilt)),
            make_collapse_ops(dev, dephasing=dephasing),
            prepare_initial_state(spec, n), times)


@settings(max_examples=40, deadline=None)
@given(st.one_of(_noisy_chains().map(_built),
                 st.tuples(_random_jump_chains(), _TIME_GRIDS)
                 .map(lambda drawn: (*drawn[0], drawn[1]))))
def test_snapshots_are_hermitian_by_construction(chain):
    # each entry below the diagonal is read from the same real coordinate
    # as its mirror, so no snapshot needs a Hermitian part taken
    h, col, state, times = chain
    stack = density_matrices(evolve_lindblad(h, state, times, col))
    np.testing.assert_array_equal(stack, stack.conj().transpose(0, 2, 1))


def test_peak_memory_is_the_output_and_the_generator():
    # X+X+000 over 2000 snapshots on its counts 0..2, every one of the 16
    # states reached: out holds 2000 x 256 real coordinates, 4.1 MB, the
    # generator's entries 45 kB. Besides them the solver holds one check
    # stack at a time, and the propagators and expm's work arrays (about
    # 1.4 MB) fit in the half of out allowed; the complex 2000 x 16 x 16
    # stack of the matrices would take twice out on its own
    dev = paper_device()
    basis = build_sector_basis(5, (0, 2))
    h = build_xy_hamiltonian(dev, PotentialSpec.linear(-15.0), basis=basis)
    col = make_collapse_ops(dev, basis=basis)
    state = prepare_initial_state("X+X+000", 5, basis=basis)
    assert _reachable_states(state.data, h, col).size == h.dim == 16
    times = 0.125 * np.arange(2000)  # one exact step
    evolve_lindblad(h, state, times[:3], col)  # imports and first-call set-up
    tracemalloc.start()
    try:
        out = evolve_lindblad(h, state, times, col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    generator = _liouvillian(_table(h, col), h.dim)
    assert out.shape == (2000, 16, 16)
    assert out.coords.nbytes == 2000 * 256 * 8
    assert peak < 1.5 * out.coords.nbytes + sum(a.nbytes for a in generator)


def _kron_liouvillian(h, jumps):
    """Reference: the generator summed term by term from sparse Kronecker
    products, -i(H (x) 1 - 1 (x) H^T) + sum_k [C_k (x) conj(C_k)
    - (C_k+ C_k (x) 1 + 1 (x) (C_k+ C_k)^T) / 2]."""
    ident = sp.identity(h.shape[0], format="csr", dtype=complex)
    gen = -1j * (sp.kron(h, ident) - sp.kron(ident, h.T))
    for cm in jumps:
        cdc = cm.getH() @ cm
        gen = gen + sp.kron(cm, cm.conj())
        gen = gen - 0.5 * (sp.kron(cdc, ident) + sp.kron(ident, cdc.T))
    return gen.tocsr()


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("jumps", ["none", "device", "flip"])
def test_generator_matches_kron_formula(n, jumps):
    h, col = _noisy_chain(n, "device" if jumps == "none" else jumps)
    if jumps == "none":
        col = CollapseOperatorSet(operators=(), basis_tag=full_tag(n))
    mats = [csr(op) for op in col.operators]
    ref = _kron_liouvillian(csr(h), mats)
    rows, cols, vals = _liouvillian(_table(h, col), 2 ** n)
    got = sp.csr_matrix((vals, (rows, cols)), shape=(4 ** n, 4 ** n))
    assert got.shape == ref.shape == (4 ** n, 4 ** n)
    assert got.dtype == np.complex128
    assert abs(got - ref).max() <= 1e-15
    # on a reachable support, as the Lindblad solver builds it
    psi = prepare_initial_state("X+1" + "0" * (n - 2), n).data
    keep = _reachable_states(psi, h, col)
    block = np.ix_(keep, keep)
    sub = [m[block] for m in mats]
    rows, cols, vals = _liouvillian(_table(h, col, keep), keep.size)
    got = sp.csr_matrix((vals, (rows, cols)), shape=(keep.size ** 2,) * 2)
    assert abs(got - _kron_liouvillian(csr(h)[block], sub)).max() <= 1e-15


def _kron_conj(x, y, d):
    """Entries of x (x) conj(y) for two matrices given as entries (rows,
    cols, vals), y of side d. The values are products over flat index
    pairs, as the solver makes them: numpy multiplies a 1 x 1 outer product
    of complex values without the fused multiply-add of its other complex
    products, so an outer product would differ in the last bit for a C_k
    of one entry with a complex value."""
    a = np.repeat(np.arange(x[2].size), y[2].size)
    b = np.tile(np.arange(y[2].size), x[2].size)
    return x[0][a] * d + y[0][b], x[1][a] * d + y[1][b], x[2][a] * y[2].conj()[b]


def _gram_entries(r, c, v):
    """The products conj(C_ia) C_ib, at (a, b), of every pair of entries in
    one row i of C given row-major: the terms of C+ C, rows i ascending."""
    first = np.flatnonzero(np.diff(r, prepend=-1))
    width = np.diff(np.append(first, r.size))  # entries in each row
    partners = np.repeat(width, width)  # entries in the row of each entry
    a = np.repeat(np.arange(r.size), partners)
    b = (np.repeat(np.repeat(first, width), partners) + np.arange(a.size)
         - np.repeat(np.cumsum(partners) - partners, partners))
    return c[a], c[b], v[a].conj() * v[b]


def _per_jump_liouvillian(h, jumps, size):
    """Reference: the generator assembled one jump operator at a time, K
    from each C_k's row pairs and a Kronecker product per C_k, with the
    terms in the order the solver sums them."""
    none = (np.empty(0, dtype=np.intp),) * 2 + (np.empty(0, dtype=complex),)
    k = _summed(size, *map(np.concatenate,
                           zip(none, *[_gram_entries(*c) for c in jumps])))
    a = _summed(size, *map(np.concatenate, zip(
        (h[0], h[1], -1j * h[2]), (k[0], k[1], -(0.5 * k[2])))))
    a = tuple(x[a[2] != 0] for x in a)
    eye = (np.arange(size), np.arange(size), np.ones(size))
    parts = [_kron_conj(a, eye, size), _kron_conj(eye, a, size)]
    parts += [_kron_conj(c, c, size) for c in jumps]
    return _summed(size * size, *map(np.concatenate, zip(*parts)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_noisy_chains().map(lambda chain: _built(chain)[:3]),
                 _random_jump_chains()),
       st.booleans(), st.booleans())
def test_generator_equals_the_per_jump_assembly(chain, no_jumps, reachable):
    # bit for bit, on the full space and on the reachable states: the
    # stacked table sums every coordinate's terms in the same order
    h, col, state = chain
    if no_jumps:
        col = CollapseOperatorSet(operators=(), basis_tag=col.basis_tag)
    keep = np.arange(h.dim)
    if reachable:
        keep = _reachable_states(state.data, h, col)
    want = _per_jump_liouvillian(_on(h, keep),
                                 [_on(op, keep) for op in col.operators],
                                 keep.size)
    got = _liouvillian(_table(h, col, keep), keep.size)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()
