"""Basis bookkeeping, Hamiltonian builders and observable operators."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import event, example, given, settings, strategies as st

from starkchain import (
    ANGULAR_PER_MHZ,
    DeviceParams,
    DomainError,
    OperatorMatrix,
    PotentialSpec,
    build_bose_hubbard_hamiltonian,
    build_observable,
    build_sector_basis,
    build_xy_hamiltonian,
    full_index,
    full_tag,
    make_collapse_ops,
    paper_device,
    prepare_initial_state,
    sector_tag,
    single_particle_matrix,
)
from starkchain import model
from starkchain.config import MAX_QUBITS
from starkchain.model import _operator, fock_tag

from scipy_forms import csr, operator

# local two-level operators, |0> = (1, 0), |1> = (0, 1)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
NUMBER_OP = SIGMA_PLUS @ SIGMA_MINUS


class TestIndexing:
    def test_site1_is_most_significant(self):
        assert full_index((1, 0, 0, 0, 0)) == 16
        assert full_index((0, 0, 0, 0, 1)) == 1
        assert full_index((0, 0, 0, 0, 0)) == 0

    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            occ = tuple(int(b) for b in rng.integers(0, 2, size=n))
            idx = full_index(occ)
            assert tuple(idx >> (n - 1 - j) & 1 for j in range(n)) == occ

    def test_tags(self):
        assert full_tag(5) == "full:n=5"
        assert sector_tag(5, 2) == "sector:n=5,k=2"
        assert fock_tag(5, 3) == "fock:n=5,d=3"


class TestSectorBasis:
    def test_single_excitation_order(self):
        b = build_sector_basis(5, 1)
        assert b.dim == 5
        # descending lexicographic: basis index k holds the excitation on site k+1
        assert b.states == (
            (1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1),
        )

    def test_two_excitation_count_and_order(self):
        b = build_sector_basis(5, 2)
        assert b.dim == 10
        assert b.states[0] == (1, 1, 0, 0, 0)
        assert b.states[-1] == (0, 0, 0, 1, 1)
        ints = [full_index(s) for s in b.states]
        assert ints == sorted(ints, reverse=True)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            build_sector_basis(4, 5)
        with pytest.raises(DomainError):
            build_sector_basis(0, 0)
        for counts in ((2, 1), (-1, 2), (0, 5)):
            with pytest.raises(DomainError):
                build_sector_basis(4, counts)

    @pytest.mark.parametrize("n_sites, counts, match", [
        (5.7, 1, r"^n_sites: expected an integer, got 5\.7$"),
        (True, 1, "^n_sites: expected an integer, got True$"),
        (5, 1.0, r"^n_excitations: expected an integer, got 1\.0$"),
        (5, (0, 2.5), r"^n_excitations: expected an integer, got 2\.5$"),
        (5, (False, 2), "^n_excitations: expected an integer, got False$"),
    ])
    def test_counts_are_integers(self, n_sites, counts, match):
        # 5.7 sites built 5, and True built 1
        with pytest.raises(DomainError, match=match):
            build_sector_basis(n_sites, counts)
        assert build_sector_basis(np.int64(5), (np.uint8(0), 2)) == \
            build_sector_basis(5, (0, 2))

    @pytest.mark.parametrize("k", range(6))
    def test_one_count_range_is_the_count(self, k):
        assert build_sector_basis(5, (k, k)) == build_sector_basis(5, k)
        assert build_sector_basis(5, (k, k)).tag == sector_tag(5, k)

    def test_count_range_order_and_tag(self):
        b = build_sector_basis(5, (0, 2))
        assert b.tag == sector_tag(5, (0, 2)) == "sector:n=5,k=0..2"
        assert b.n_excitations == (0, 2)
        assert b.dim == 1 + 5 + 10
        ints = [full_index(s) for s in b.states]
        assert ints == sorted(ints, reverse=True)
        assert {sum(s) for s in b.states} == {0, 1, 2}
        # the whole space in descending index order
        full = build_sector_basis(3, (0, 3))
        assert [full_index(s) for s in full.states] == list(range(7, -1, -1))


def _dense(op):
    return op.todense()


def _site_operator(local_ops, site, n_sites, local_dim=2):
    # Kronecker reference for the builders: sparse
    # I_{d^(site-1)} (x) local_ops (x) I_{d^(n_sites-site)}, site 1-based
    left = sp.identity(local_dim ** (site - 1), format="csr")
    right = sp.identity(local_dim ** (n_sites - site), format="csr")
    return sp.kron(sp.kron(left, sp.csr_matrix(local_ops), format="csr"),
                   right, format="csr")


def _chained_site_operator(local_ops, site, n_sites, local_dim=2):
    # reference: one Kronecker product per site, left to right
    out = None
    for j in range(1, n_sites + 1):
        block = sp.csr_matrix(local_ops) if j == site else sp.identity(local_dim, format="csr")
        out = block if out is None else sp.kron(out, block, format="csr")
    return out


# the two Kronecker references agree entry for entry
class TestSiteOperator:
    def _assert_same(self, got, ref):
        assert got.format == "csr"
        assert got.dtype == ref.dtype
        assert got.shape == ref.shape
        assert got.nnz == ref.nnz
        assert (got != ref).nnz == 0

    def test_xy_operators_match_chained_kron(self):
        for op in (SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, NUMBER_OP):
            for n in range(1, 7):
                for site in range(1, n + 1):
                    self._assert_same(_site_operator(op, site, n),
                                      _chained_site_operator(op, site, n))

    def test_bosonic_operators_match_chained_kron(self):
        for d in (3, 4):
            lower = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
            num = lower.conj().T @ lower
            for op in (lower, lower.conj().T, num, num @ (num - np.eye(d))):
                for n in range(1, 5):
                    for site in range(1, n + 1):
                        self._assert_same(_site_operator(op, site, n, d),
                                          _chained_site_operator(op, site, n, d))


# Kronecker-product references for the bit-rule builder: each term is a
# product of site operators, summed with sparse additions as written.

def _kron_xy(params, potential):
    n = params.n_qubits
    g = params.coupling_rad_ns
    h = potential.offsets_rad_ns(n)
    ham = sp.csr_matrix((2 ** n, 2 ** n), dtype=complex)
    for j in range(1, n):
        hop = _site_operator(SIGMA_PLUS, j, n) @ _site_operator(SIGMA_MINUS, j + 1, n)
        ham = ham + g[j - 1] * (hop + hop.getH())
    for j in range(1, n + 1):
        ham = ham + h[j - 1] * _site_operator(NUMBER_OP, j, n)
    return ham


def _kron_observable(kind, j, params):
    n = params.n_qubits
    g = params.coupling_rad_ns

    def pair(a, b):
        return _site_operator(a, j, n) @ _site_operator(b, j + 1, n)

    if kind == "density":
        return _site_operator(NUMBER_OP, j, n)
    if kind == "kinetic":
        # g (0.5 (XX + YY)), not 0.5 g (XX + YY): halving a subnormal g
        # rounds it, and the builder's entry is g itself
        return g[j - 1] * (0.5 * (pair(SIGMA_X, SIGMA_X) + pair(SIGMA_Y, SIGMA_Y)))
    return 0.5 * (pair(SIGMA_X, SIGMA_Y) - pair(SIGMA_Y, SIGMA_X))


def _kron_collapse(params, dephasing):
    n = params.n_qubits
    ops = []
    for q in range(1, n + 1):
        gamma1 = 1.0 / params.t1_ns[q - 1]
        ops.append(np.sqrt(gamma1) * _site_operator(SIGMA_MINUS, q, n))
        rate = 1.0 / params.t2star_ns[q - 1]
        if dephasing == "pure":
            rate = max(rate - 0.5 * gamma1, 0.0)
        if rate > 0.0:
            ops.append(np.sqrt(rate) * _site_operator(NUMBER_OP, q, n))
    return ops


def _assert_same_entries(got, ref):
    """Equal entry for entry, dtype and nnz; ref's explicit zeros excluded."""
    ref = sp.csr_matrix(ref)
    ref.eliminate_zeros()
    assert got.format == "csr"
    assert got.dtype == ref.dtype == np.complex128
    assert got.shape == ref.shape
    assert got.nnz == ref.nnz
    assert (got != ref).nnz == 0


# zeros and values whose sums cancel are drawn often, so that dropped
# entries are exercised
_MHZ = st.one_of(st.sampled_from([0.0, 2.5, -2.5, 5.0, -7.5]),
                 st.floats(-40.0, 40.0, allow_subnormal=False))


@st.composite
def _chains(draw):
    n = draw(st.integers(2, 8))
    dev = DeviceParams.uniform(n).replace(
        coupling_mhz=draw(st.lists(_MHZ, min_size=n - 1, max_size=n - 1)),
        t1_us=draw(st.lists(st.floats(0.1, 100.0), min_size=n, max_size=n)),
        t2star_us=draw(st.lists(st.floats(0.1, 100.0), min_size=n, max_size=n)))
    pot = PotentialSpec(gradient_mhz=draw(_MHZ))
    return dev, pot, draw(st.integers(1, n)), draw(st.integers(1, n - 1))


@settings(max_examples=40, deadline=None)
@given(_chains())
# a coupling subnormal in rad/ns (1.26e-308)
@example((DeviceParams.uniform(2).replace(coupling_mhz=[2.00709114e-306]),
          PotentialSpec(gradient_mhz=0.0), 1, 1))
def test_bit_rule_builder_matches_kron(chain):
    dev, pot, site, bond = chain
    n = dev.n_qubits
    refs = {"H": _kron_xy(dev, pot),
            "density": _kron_observable("density", site, dev)}
    for kind in ("kinetic", "spin_current"):
        refs[kind] = _kron_observable(kind, bond, dev)

    def built(name, basis):
        if name == "H":
            return csr(build_xy_hamiltonian(dev, pot, basis=basis))
        j = site if name == "density" else bond
        return csr(build_observable(name, j, dev, basis=basis))

    for name, ref in refs.items():
        _assert_same_entries(built(name, None), ref)
    for k in range(n + 1):
        b = build_sector_basis(n, k)
        rows = [full_index(s) for s in b.states]
        assert rows == sorted(rows, reverse=True)
        for name, ref in refs.items():
            _assert_same_entries(built(name, b), ref[np.ix_(rows, rows)])
    for dephasing in ("as-given", "pure"):
        got = make_collapse_ops(dev, dephasing=dephasing).operators
        ref = _kron_collapse(dev, dephasing)
        assert len(got) == len(ref)
        for op, r in zip(got, ref):
            assert op.basis_tag == full_tag(n)
            _assert_same_entries(csr(op), r)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_bit_operator_on_any_state_list(n, data):
    """Over any ordered list of states the builder gives the restriction of
    the full-space matrix to it, as a reachable support needs."""
    full = np.arange(2 ** n)
    amplitude = st.sampled_from([0.0, 1.0, -0.5, 2.0j, 0.3 - 0.7j])
    terms = [(flip, np.array(data.draw(st.lists(amplitude, min_size=2 ** n,
                                                 max_size=2 ** n))))
             for flip in data.draw(st.lists(st.integers(0, 2 ** n - 1),
                                            min_size=1, max_size=4, unique=True))]
    support = np.array(data.draw(st.permutations(full)))
    support = support[:data.draw(st.integers(1, 2 ** n))]
    flips = np.array([flip for flip, _ in terms])[:, None]
    table = np.array([amps for _, amps in terms])
    got = csr(_operator(support, support ^ flips, table[:, support], "support"))
    ref = csr(_operator(full, full ^ flips, table, full_tag(n)))
    _assert_same_entries(got, ref[np.ix_(support, support)])
    # the full-space matrix itself: one entry per nonzero amplitude
    assert ref.nnz == sum(np.count_nonzero(amps) for _, amps in terms)
    for flip, amps in terms:
        for s in np.flatnonzero(amps):
            assert ref[s ^ flip, s] == amps[s]


def _per_term_operator(states, terms, basis_tag):
    """Reference: the builder as one searchsorted per term, the terms'
    entries concatenated one term after another."""
    order = np.argsort(states)
    ranked = states[order]
    rows, cols, vals = [], [], []
    for targets, amplitudes in terms:
        amplitudes = np.broadcast_to(np.asarray(amplitudes, dtype=complex),
                                     states.shape)
        pos = np.minimum(np.searchsorted(ranked, targets), states.size - 1)
        hit = np.flatnonzero((ranked[pos] == targets) & (amplitudes != 0))
        rows.append(order[pos[hit]])
        cols.append(hit)
        vals.append(amplitudes[hit])
    return OperatorMatrix(
        states.size, np.concatenate(rows), np.concatenate(cols),
        np.concatenate(vals), basis_tag)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_pass_builder_matches_the_per_term_loop(data):
    # any list of distinct states, targets inside and outside it, zero
    # amplitudes and scalar ones; the entries agree to the bit and in order
    top = data.draw(st.integers(1, 200))
    states = np.array(data.draw(st.lists(st.integers(0, top), min_size=1,
                                         max_size=40, unique=True)))
    # sums of three or more of these depend on their order
    amplitude = st.one_of(st.sampled_from([0.0, 1.0, -0.5j, 0.1, 0.2, 0.3]),
                          st.complex_numbers(max_magnitude=1e3,
                                             allow_nan=False))
    target = st.one_of(st.sampled_from(states.tolist()),
                       st.integers(-5, top + 5))
    terms = []
    for _ in range(data.draw(st.integers(1, 6))):
        targets = np.array(data.draw(st.lists(
            target, min_size=states.size, max_size=states.size)))
        if data.draw(st.booleans()):
            amps = data.draw(amplitude)
        else:
            amps = np.array(data.draw(st.lists(
                amplitude, min_size=states.size, max_size=states.size)))
        terms.append((targets, amps))
    # the terms as (terms, states) tables, real when no amplitude is complex
    targets = np.array([t for t, _ in terms])
    amplitudes = np.array([np.broadcast_to(a, states.shape) for _, a in terms])
    got = _operator(states, targets, amplitudes, "t")
    want = _per_term_operator(states, terms, "t")
    assert got.dim == want.dim and got.basis_tag == want.basis_tag
    for a, b in ((got.rows, want.rows), (got.cols, want.cols),
                 (got.vals, want.vals)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_hermitian_residue_is_computed_on_first_read(monkeypatch):
    calls = []
    residue = model._hermitian_residue

    def counted(*args):
        calls.append(args[0])
        return residue(*args)

    monkeypatch.setattr(model, "_hermitian_residue", counted)
    ops = make_collapse_ops(paper_device()).operators
    assert len(ops) == 10 and calls == []
    first = [op.hermitian_residue for op in ops]
    assert len(calls) == len(ops)
    assert [op.hermitian_residue for op in ops] == first
    assert not any(op.is_hermitian() for op in ops[::2])  # sigma- is not
    assert len(calls) == len(ops)


class TestXYHamiltonian:
    def setup_method(self):
        self.dev = paper_device()
        self.pot = PotentialSpec.linear(-15.0)

    def test_hermitian(self):
        h = build_xy_hamiltonian(self.dev, self.pot)
        assert h.basis_tag == "full:n=5"
        assert h.is_hermitian()

    def test_sector_block_matches_full(self):
        """Restricting the full-space matrix to a sector reproduces the
        sector-built matrix, for every excitation number."""
        hf = _dense(build_xy_hamiltonian(self.dev, self.pot))
        for k in range(6):
            b = build_sector_basis(5, k)
            hs = _dense(build_xy_hamiltonian(self.dev, self.pot, basis=b))
            rows = [full_index(s) for s in b.states]
            np.testing.assert_allclose(hs, hf[np.ix_(rows, rows)], atol=1e-13)

    def test_single_excitation_is_single_particle_matrix(self):
        # the k=1 block is literally the tridiagonal single-particle matrix
        b = build_sector_basis(5, 1)
        hs = _dense(build_xy_hamiltonian(self.dev, self.pot, basis=b))
        h1 = single_particle_matrix(self.dev, self.pot)
        np.testing.assert_allclose(hs, h1.matrix, atol=1e-13)

    @pytest.mark.parametrize("counts", [(0, 1), (0, 2), (1, 3), (0, 5)])
    def test_count_range_block_matches_full(self, counts):
        # entry for entry the full-space matrix on the range's states; its
        # one-excitation states keep the single-particle order
        b = build_sector_basis(5, counts)
        hs = _dense(build_xy_hamiltonian(self.dev, self.pot, basis=b))
        rows = [full_index(s) for s in b.states]
        hf = _dense(build_xy_hamiltonian(self.dev, self.pot))
        np.testing.assert_array_equal(hs, hf[np.ix_(rows, rows)])
        one = [i for i, s in enumerate(b.states) if sum(s) == 1]
        if one:
            h1 = single_particle_matrix(self.dev, self.pot)
            np.testing.assert_allclose(hs[np.ix_(one, one)], h1.matrix,
                                       atol=1e-13)

    def test_coupling_units(self):
        # 2-site chain, no potential: off-diagonal element is g in rad/ns
        dev = DeviceParams.uniform(2, coupling_mhz=14.60)
        h = _dense(build_xy_hamiltonian(dev, PotentialSpec.linear(0.0)))
        # |10> = index 2, |01> = index 1
        assert h[2, 1] == pytest.approx(14.60 * ANGULAR_PER_MHZ)
        assert h[0, 0] == 0.0

    def test_vacuum_untouched(self):
        h = _dense(build_xy_hamiltonian(self.dev, self.pot))
        np.testing.assert_allclose(h[0, :], 0.0, atol=1e-15)

    def test_excitation_conservation(self):
        # [H, N] = 0 with N the total number operator
        h = csr(build_xy_hamiltonian(self.dev, self.pot))
        ntot = sp.csr_matrix((32, 32), dtype=complex)
        for j in range(1, 6):
            ntot = ntot + csr(build_observable("density", j, self.dev))
        comm = (h @ ntot - ntot @ h)
        assert sp.linalg.norm(comm) < 1e-12

    def test_basis_size_mismatch(self):
        b = build_sector_basis(4, 1)
        with pytest.raises(DomainError):
            build_xy_hamiltonian(self.dev, self.pot, basis=b)

    def test_chains_above_max_qubits_are_refused(self):
        # a state is the bits of one int64: on 70 sites the 70 states of one
        # excitation mapped to 65 integers, and the Hamiltonian had 198
        # entries instead of 208. DeviceParams stays uncapped, as the
        # free-fermion solver needs longer chains
        n = MAX_QUBITS + 8
        dev = DeviceParams.uniform(n)
        basis = build_sector_basis(n, 1)
        match = f"^a chain of {n} sites is above the {MAX_QUBITS} "
        with pytest.raises(DomainError, match=match):
            build_xy_hamiltonian(dev, self.pot, basis=basis)
        with pytest.raises(DomainError, match=match):
            build_observable("density", 1, dev, basis=basis)
        with pytest.raises(DomainError, match=match):
            prepare_initial_state("1" + "0" * (n - 1), n)
        with pytest.raises(DomainError, match=match):
            make_collapse_ops(dev, basis=basis)
        # at the cap, every state is its own integer
        n = MAX_QUBITS
        h = build_xy_hamiltonian(DeviceParams.uniform(n), self.pot,
                                 basis=build_sector_basis(n, 1))
        assert h.dim == n and h.vals.size == 3 * n - 2


class TestBoseHubbard:
    def test_hardcore_limit_matches_xy(self):
        dev = paper_device()
        pot = PotentialSpec.linear(-10.0)
        hb = build_bose_hubbard_hamiltonian(dev, pot, fock_cutoff=2)
        hx = build_xy_hamiltonian(dev, pot)
        assert hb.basis_tag == "fock:n=5,d=2"
        np.testing.assert_allclose(_dense(hb), _dense(hx), atol=1e-13)

    def test_interaction_energy(self):
        # isolated site with two photons picks up U (the U/2 n(n-1) term)
        dev = DeviceParams.uniform(2, coupling_mhz=0.0, anharmonicity_mhz=-200.0)
        pot = PotentialSpec.linear(3.0)
        h = _dense(build_bose_hubbard_hamiltonian(dev, pot, fock_cutoff=3))
        idx = 2 * 3 + 0  # occupations (2, 0), base-3 with site 1 most significant
        expect = (-200.0 + 2 * 3.0) * ANGULAR_PER_MHZ
        assert h[idx, idx] == pytest.approx(expect, rel=1e-12)

    def test_bosonic_hopping_enhancement(self):
        # <20|H|11> = sqrt(2) g, the bosonic matrix element
        dev = DeviceParams.uniform(2, coupling_mhz=5.0)
        h = _dense(build_bose_hubbard_hamiltonian(dev, PotentialSpec.linear(0.0), fock_cutoff=3))
        i20, i11 = 2 * 3 + 0, 1 * 3 + 1
        assert abs(h[i20, i11]) == pytest.approx(np.sqrt(2) * 5.0 * ANGULAR_PER_MHZ)

    def test_hermitian(self):
        h = build_bose_hubbard_hamiltonian(paper_device(), PotentialSpec.linear(-15.0), fock_cutoff=3)
        assert h.is_hermitian()

    def test_cutoff_validation(self):
        with pytest.raises(DomainError):
            build_bose_hubbard_hamiltonian(paper_device(), PotentialSpec.linear(0.0), fock_cutoff=1)


def _kron_bose_hubbard(params, potential, d):
    """Reference: the truncated bosonic chain and its site densities from
    sparse Kronecker products of the local ladder operators."""
    n = params.n_qubits
    g, u = params.coupling_rad_ns, params.anharmonicity_rad_ns
    h = potential.offsets_rad_ns(n)
    lower = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    num = lower.conj().T @ lower
    ham = sp.csr_matrix((d ** n, d ** n), dtype=complex)
    for j in range(1, n):
        hop = _site_operator(lower.conj().T, j, n, d) @ _site_operator(lower, j + 1, n, d)
        ham = ham + g[j - 1] * (hop + hop.getH())
    for j in range(1, n + 1):
        ham = ham + 0.5 * u[j - 1] * _site_operator(num @ (num - np.eye(d)), j, n, d)
        ham = ham + h[j - 1] * _site_operator(num, j, n, d)
    return ham, [_site_operator(num, j, n, d) for j in range(1, n + 1)]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 5), d=st.integers(2, 4), data=st.data())
def test_bose_hubbard_builder_matches_kron(n, d, data):
    # the reference's number operator is sqrt(m) sqrt(m), a few ulp off m,
    # so the two agree to rounding rather than bit for bit
    dev = DeviceParams.uniform(n).replace(
        coupling_mhz=data.draw(st.lists(_MHZ, min_size=n - 1, max_size=n - 1)),
        anharmonicity_mhz=data.draw(st.lists(_MHZ, min_size=n, max_size=n)))
    pot = PotentialSpec(gradient_mhz=data.draw(_MHZ))
    ham, densities = _kron_bose_hubbard(dev, pot, d)
    got = build_bose_hubbard_hamiltonian(dev, pot, fock_cutoff=d)
    assert got.basis_tag == fock_tag(n, d)
    np.testing.assert_allclose(got.todense(), ham.toarray(), rtol=0, atol=1e-14)
    for j, ref in enumerate(densities, start=1):
        op = build_observable("density", j, dev, fock_cutoff=d)
        assert op.basis_tag == fock_tag(n, d)
        np.testing.assert_allclose(op.todense(), ref.toarray(), rtol=0, atol=1e-14)


class TestObservables:
    def setup_method(self):
        self.dev = paper_device()

    @pytest.mark.parametrize("index", [2.9, "2", True, None])
    def test_index_is_an_integer(self, index):
        # 2.9 and "2" built site 2, and True site 1
        with pytest.raises(DomainError, match="^index: expected an integer, got "):
            build_observable("density", index, self.dev)
        with pytest.raises(DomainError, match="^index: expected an integer, got "):
            build_observable("kinetic", index, self.dev)
        np.testing.assert_array_equal(
            build_observable("density", np.int64(2), self.dev).vals,
            build_observable("density", 2, self.dev).vals)

    def test_density_diagonal(self):
        n3 = _dense(build_observable("density", 3, self.dev))
        for idx in range(32):
            assert n3[idx, idx] == idx >> 2 & 1  # site 3 of 5

    def test_kinetic_matches_sector_hop(self):
        # kinetic bond term restricted to k=1 equals g_j on the hop
        b = build_sector_basis(5, 1)
        k2 = _dense(build_observable("kinetic", 2, self.dev, basis=b))
        g = self.dev.coupling_rad_ns
        expect = np.zeros((5, 5))
        expect[1, 2] = expect[2, 1] = g[1]
        np.testing.assert_allclose(k2, expect, atol=1e-13)

    def test_full_vs_sector_agreement(self):
        for kind in ("density", "kinetic", "spin_current"):
            idx = 2
            full = _dense(build_observable(kind, idx, self.dev))
            for k in (1, 2):
                b = build_sector_basis(5, k)
                sec = _dense(build_observable(kind, idx, self.dev, basis=b))
                rows = [full_index(s) for s in b.states]
                np.testing.assert_allclose(sec, full[np.ix_(rows, rows)],
                                           atol=1e-13, err_msg=f"{kind} k={k}")

    def test_spin_current_hermitian(self):
        j = build_observable("spin_current", 4, self.dev)
        assert j.is_hermitian()

    def test_spin_current_sign(self):
        # on the 1-excitation sector: <j+1| J_j |j> = +i / <j| J_j |j+1> = -i
        b = build_sector_basis(5, 1)
        jm = _dense(build_observable("spin_current", 1, self.dev, basis=b))
        assert jm[1, 0] == pytest.approx(1.0j)
        assert jm[0, 1] == pytest.approx(-1.0j)

    def test_bosonic_density(self):
        nb = _dense(build_observable("density", 1, self.dev, fock_cutoff=3))
        # state (2,0,0,0,0) has n_1 = 2
        assert nb[2 * 3 ** 4, 2 * 3 ** 4] == pytest.approx(2.0)

    def test_error_paths(self):
        for kind in ("charge", "potential", "pauli_pair"):
            with pytest.raises(DomainError, match="^unknown observable kind"):
                build_observable(kind, 1, self.dev)
        with pytest.raises(DomainError):
            build_observable("density", 6, self.dev)
        with pytest.raises(DomainError):
            build_observable("kinetic", 5, self.dev)  # only 4 bonds
        # the Fock space takes the Bose-Hubbard builder's cutoff and size checks
        for cutoff in (1, 17):
            with pytest.raises(DomainError, match="fock"):
                build_observable("density", 1, self.dev, fock_cutoff=cutoff)


class TestOperatorMatrix:
    def test_rejects_nonsquare(self):
        # an entry past the side, as a 2 x 3 matrix would have, or before it
        for row, col in ((0, 2), (2, 0), (-1, 0), (0, -1)):
            with pytest.raises(DomainError, match="in the 2 x 2 square"):
                OperatorMatrix(2, [0, row], [0, col], [1.0, 1.0], "full:n=1")
        assert OperatorMatrix(2, [], [], [], "full:n=1").vals.size == 0

    def test_hermiticity_check(self):
        good = operator(np.array([[0, 1j], [-1j, 0]]), "full:n=1")
        bad = operator(np.array([[0, 1j], [1j, 0]]), "full:n=1")
        assert good.is_hermitian()
        assert not bad.is_hermitian()

    def test_dense_cap(self):
        big = operator(sp.identity(8192), "full:n=13")
        with pytest.raises(DomainError):
            big.todense()


# OperatorMatrix holds the entries of the canonical scipy CSR matrix it held
# as its storage before: the same arrays, the same dense form, the same
# Hermiticity residue.

def _old_canonical(matrix):
    m = sp.csr_matrix(matrix, dtype=complex)
    m.sum_duplicates()
    m.sort_indices()
    return m


def _assert_matches_csr(op, old):
    coo = old.tocoo()
    assert op.dim == old.shape[0] == old.shape[1]
    for got, want in ((op.rows, coo.row), (op.cols, coo.col), (op.vals, coo.data)):
        assert np.array_equal(got, want)
    assert op.todense().tobytes() == np.asarray(old.todense()).tobytes()
    # the parent's is_hermitian formula
    diff, scale = spla.norm(old - old.getH()), max(1.0, spla.norm(old))
    assert op.hermitian_residue == pytest.approx(diff / scale, rel=1e-15, abs=0)
    assert op.is_hermitian() == (diff <= 1e-12 * scale)


@st.composite
def _raw_entries(draw):
    """(dim, rows, cols, vals) of a random complex operator, Hermitian or not,
    in shuffled order. Some coordinates appear twice, some of those summing
    to an exact zero. A sum of two is exact in either order; scipy's order
    for three or more at one coordinate is unspecified, so none has three."""
    dim = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (dim, dim)
    a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        * (rng.random(shape) < rng.uniform(0.0, 0.5))
    if draw(st.booleans()):
        a = a + a.conj().T
    rows, cols = np.nonzero(a)
    vals = a[rows, cols]
    twice = np.flatnonzero(rng.random(rows.size) < draw(st.sampled_from([0.0, 0.2, 1.0])))
    extra = np.where(rng.random(twice.size) < 0.3, -vals[twice],
                     rng.normal(size=twice.size) + 1j * rng.normal(size=twice.size))
    order = rng.permutation(rows.size + twice.size)
    return (dim, np.concatenate([rows, rows[twice]])[order],
            np.concatenate([cols, cols[twice]])[order],
            np.concatenate([vals, extra])[order])


@settings(max_examples=100, deadline=None)
@given(_raw_entries())
def test_entries_match_the_canonical_csr(raw):
    dim, rows, cols, vals = raw
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    old = _old_canonical(coo)
    _assert_matches_csr(OperatorMatrix(dim, rows, cols, vals, "t"), old)


def _union_residue(dim, rows, cols, vals):
    """The Hermitian residue formed over the union of M's and M+'s patterns
    for every operator, as before the transpose permutation."""
    key = rows * dim + cols
    tkey = cols * dim + rows
    union, where = np.unique(np.concatenate([key, tkey]), return_inverse=True)
    a = np.zeros(union.size, dtype=complex)
    b = np.zeros(union.size, dtype=complex)
    a[where[:key.size]] = vals
    b[where[key.size:]] = vals.conj()
    diff = a - b
    diff = diff[diff != 0]
    return float(np.linalg.norm(diff)) / max(1.0, float(np.linalg.norm(vals)))


@settings(max_examples=200, deadline=None)
@given(_raw_entries(), st.sampled_from(["as drawn", "mirrored", "conjugated"]),
       st.integers(0, 2 ** 32 - 1))
def test_hermitian_residue_matches_the_union_formula(raw, pattern, seed):
    # "mirrored" and "conjugated" add every entry at its transposed
    # coordinate, so the pattern is symmetric, stored zeros included: with a
    # new value, or with its conjugate, which may still differ in the last bit
    # from the conjugate of its mirror where sums at a coordinate ran in
    # another order
    dim, rows, cols, vals = raw
    if pattern != "as drawn":
        rng = np.random.default_rng(seed)
        mirrored = (vals.conj() if pattern == "conjugated" else
                    rng.normal(size=vals.size) + 1j * rng.normal(size=vals.size))
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        vals = np.concatenate([vals, mirrored])
    op = OperatorMatrix(dim, rows, cols, vals, "t")
    symmetric = (np.sort(op.cols * dim + op.rows) == op.rows * dim + op.cols).all()
    assert symmetric or pattern == "as drawn"
    event(f"symmetric pattern: {symmetric}")
    event(f"stored zeros: {bool((op.vals == 0).any())}")
    got = model._hermitian_residue(op.dim, op.rows, op.cols, op.vals)
    assert got == _union_residue(op.dim, op.rows, op.cols, op.vals)


@settings(max_examples=30, deadline=None)
@given(_chains(), st.data())
def test_built_operators_match_the_canonical_csr(chain, data):
    dev, pot, site, bond = chain
    n = dev.n_qubits
    sector = build_sector_basis(n, data.draw(st.integers(0, n)))
    keep = np.ix_(*2 * [[full_index(s) for s in sector.states]])
    cases = []
    for basis, cut in ((None, lambda r: r), (sector, lambda r: r[keep])):
        cases.append((build_xy_hamiltonian(dev, pot, basis=basis),
                      cut(_kron_xy(dev, pot))))
        for kind in ("density", "kinetic", "spin_current"):
            j = site if kind == "density" else bond
            cases.append((build_observable(kind, j, dev, basis=basis),
                          cut(_kron_observable(kind, j, dev))))
    cases += zip(make_collapse_ops(dev).operators, _kron_collapse(dev, "as-given"))
    for op, ref in cases:
        old = _old_canonical(ref)
        old.eliminate_zeros()  # the builder drops zero amplitudes
        _assert_matches_csr(op, old)
