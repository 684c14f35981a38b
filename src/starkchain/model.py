"""Hamiltonians, bases and observable operators for the qubit chain.

Basis conventions (fixed, relied on by every other module):

* full two-level space, tag ``full:n=L``: computational states are indexed by
  the integer whose binary digits are the site occupations with site 1 as the
  most significant bit, ascending.  Index 0 is the vacuum.
* excitation sector, tag ``sector:n=L,k=K``: the full-space indices of all
  states with K excitations, descending (site 1 most significant).
  For K = 1 this puts the excitation on site k+1 at basis index k, so the
  sector block of the hopping Hamiltonian is literally the tridiagonal
  single-particle matrix. A range of counts, tag ``sector:n=L,k=lo..hi``,
  holds the states of every count in it, in the same order.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .config import MAX_QUBITS
from .device import DeviceParams, PotentialSpec, _integer
from .errors import DomainError

DENSE_DIM_CAP = 4096


def full_tag(n_sites):
    return f"full:n={n_sites}"


def sector_tag(n_sites, n_excitations):
    k = "%d..%d" % n_excitations if isinstance(n_excitations, tuple) else n_excitations
    return f"sector:n={n_sites},k={k}"


@dataclass(frozen=True)
class SectorBasis:
    """Canonically ordered basis of one excitation number or a range (lo, hi):
    states holds the full-space index (full_tag) of each state, descending."""

    n_sites: int
    n_excitations: int | tuple
    states: tuple = field(repr=False)

    @property
    def dim(self):
        return len(self.states)

    @property
    def tag(self):
        return sector_tag(self.n_sites, self.n_excitations)


def build_sector_basis(n_sites, n_excitations):
    """All states with the given excitation number, or with any number of
    an inclusive range (lo, hi), which may hold one number, as full-space
    indices in descending order, site 1 most significant: (5, 1) gives
    10000, 01000, 00100, 00010, 00001, that is 16, 8, 4, 2, 1.
    """
    n = _integer(n_sites, "n_sites")
    if n < 1:
        raise DomainError(f"n_sites must be >= 1, got {n_sites}")
    ends = n_excitations if isinstance(n_excitations, tuple) else (n_excitations,) * 2
    lo, hi = (_integer(k, "n_excitations") for k in ends)
    if not 0 <= lo <= hi <= n:
        raise DomainError(f"n_excitations must lie in [0, {n}], got {n_excitations}")
    place = [1 << (n - 1 - j) for j in range(n)]
    states = tuple(sorted((sum(place[j] for j in occupied)
                           for k in range(lo, hi + 1)
                           for occupied in combinations(range(n), k)),
                          reverse=True))
    return SectorBasis(n_sites=n, n_excitations=lo if lo == hi else (lo, hi),
                       states=states)


def _hermitian_residue(dim, rows, cols, vals):
    """Frobenius ||M - M+|| / max(1, ||M||) from canonical entries.

    The entries of M - M+ are formed and ordered as scipy's sparse
    subtraction forms them (row-major over the union of both patterns, exact
    zeros dropped), so the norms, and the figure, are bit-equal to
    scipy.sparse.linalg.norm on the CSR matrices. When the transposed
    pattern is the pattern itself, as on every Hamiltonian and observable the
    builders make, that union is M's own entries and M+ is read through one
    permutation of them.
    """
    key = rows * dim + cols
    tkey = cols * dim + rows
    mirror = np.argsort(tkey)
    if np.array_equal(tkey[mirror], key):
        diff = vals - vals[mirror].conj()
    else:  # M's entries, then M+'s negated, summed on the union of patterns
        diff = _summed(dim, np.concatenate([rows, cols]), np.concatenate(
            [cols, rows]), np.concatenate([vals, -vals.conj()]))[2]
    diff = diff[diff != 0]
    # a norm that overflows is inf, and the figure then 0, or nan, which
    # fails every tolerance
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(diff)) / max(1.0, float(np.linalg.norm(vals)))


def _run_starts(key):
    """Indices where a run of equal neighbours in key begins."""
    starts = np.empty(key.size, dtype=bool)
    starts[:1] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _summed(dim, rows, cols, vals):
    """Entries (rows, cols, vals) of a dim x dim matrix given as coordinates
    in any order: row-major, entries at one coordinate summed in the order
    given. The values keep their dtype."""
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    vals = np.asarray(vals)
    key = rows * dim + cols
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    first = _run_starts(key)
    if first.size < key.size:
        # one pass per duplicate, so each sum runs left to right as scipy's
        # sum_duplicates adds; np.add.reduceat would add a0 + (a1 + a2)
        count = np.diff(np.append(first, key.size))
        key, total = key[first], vals[first]
        for j in range(1, count.max()):
            more = np.flatnonzero(count > j)
            total[more] += vals[first[more] + j]
        vals = total
    return key // dim, key % dim, vals


class OperatorMatrix:
    """Square operator tied to a basis tag, held as its nonzero entries.

    ``OperatorMatrix(dim, rows, cols, vals, basis_tag)`` takes coordinates
    in any order, on numpy alone; entries at one coordinate are summed in
    the order given, as scipy's ``sum_duplicates`` adds them. ``rows``,
    ``cols`` and ``vals`` then list the entries in row-major order (rows
    ascending, columns ascending within a row), one entry per coordinate,
    exact zeros kept: the coordinate form of a canonical CSR matrix,
    read-only. ``dim`` is the side of the matrix. ``hermitian_residue`` is
    the Frobenius ||M - M+|| / max(1, ||M||), computed on first read and
    kept.
    """

    __slots__ = ("dim", "rows", "cols", "vals", "basis_tag", "_residue")

    def __init__(self, dim, rows, cols, vals, basis_tag):
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        # as unsigned words a negative index is past every side
        if max(rows.view(np.uintp).max(initial=0),
               cols.view(np.uintp).max(initial=0)) >= dim:
            raise DomainError(f"operator entries must lie in the {dim} x {dim} square")
        self._set(int(dim), *_summed(dim, rows, cols,
                                     np.asarray(vals, dtype=complex)), basis_tag)

    @classmethod
    def _canonical(cls, dim, rows, cols, vals, basis_tag):
        """Operator of side dim from entries already in canonical form."""
        op = cls.__new__(cls)
        op._set(int(dim), rows, cols, vals, basis_tag)
        return op

    def _set(self, dim, rows, cols, vals, basis_tag):
        for a in (rows, cols, vals):
            a.flags.writeable = False
        self.dim, self.rows, self.cols, self.vals = dim, rows, cols, vals
        self.basis_tag = basis_tag
        self._residue = None

    def __repr__(self):
        return (f"OperatorMatrix(dim={self.dim}, nnz={self.vals.size}, "
                f"basis_tag={self.basis_tag!r})")

    @property
    def hermitian_residue(self):
        if self._residue is None:
            self._residue = _hermitian_residue(self.dim, self.rows, self.cols,
                                               self.vals)
        return self._residue

    def todense(self):
        if self.dim > DENSE_DIM_CAP:
            raise DomainError(
                f"dense conversion capped at dim {DENSE_DIM_CAP}, got {self.dim}")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        # added to zeros, as scipy densifies: a -0.0 part becomes +0.0
        out[self.rows, self.cols] += self.vals
        return out

    def is_hermitian(self):
        return self.hermitian_residue <= 1e-12


def _basis_states(basis, n_sites):
    """(states, occupations, tag) of a basis: its integers in the full
    two-level space (full_tag) in basis order, their (dim, n) occupations
    with site 1 in column 0, and its tag. basis None is the full space in
    index order. A chain of no sites is refused, and so is one of more
    than MAX_QUBITS sites: its states would not fit one int64."""
    if n_sites < 1:
        raise DomainError(f"n_sites must be >= 1, got {n_sites}")
    if n_sites > MAX_QUBITS:
        raise DomainError(f"a chain of {n_sites} sites is above the "
                          f"{MAX_QUBITS} whose states fit one int64")
    if basis is None:
        states, tag = np.arange(1 << n_sites), full_tag(n_sites)
    elif isinstance(basis, SectorBasis) and basis.n_sites == n_sites:
        states, tag = np.array(basis.states, dtype=np.int64), basis.tag
    else:
        raise DomainError(
            f"basis must be a SectorBasis over {n_sites} sites, got {basis!r}")
    return (states, states[:, None] >> np.arange(n_sites - 1, -1, -1) & 1,
            tag)


def _operator(states, targets, amplitudes, basis_tag):
    """Operator over an ordered list of integer states: a sector, a whole
    space in index order or any support. targets and amplitudes are
    (terms, states) tables, real or complex: term t maps states[i] to
    targets[t, i] with amplitudes[t, i], where states ^ mask flips bits and
    states itself is diagonal. Zero amplitudes and targets outside the list
    are dropped: on a subset this is the restriction of the full
    operator."""
    order = np.argsort(states)
    ranked = states[order]
    pos = np.minimum(np.searchsorted(ranked, targets), states.size - 1)
    # term-major, as one term after another
    term, hit = np.nonzero((ranked[pos] == targets) & (amplitudes != 0))
    return OperatorMatrix(
        states.size, order[pos[term, hit]], hit, amplitudes[term, hit],
        basis_tag)


def _diagonal(amplitudes, basis_tag):
    """Diagonal operator with amplitudes[i] at (i, i), zeros dropped. Its
    canonical entries are the ascending positions of the nonzero
    amplitudes, so nothing is sorted or summed."""
    at = np.flatnonzero(amplitudes)
    return OperatorMatrix._canonical(len(amplitudes), at, at,
                                     amplitudes[at].astype(complex), basis_tag)


def _restricted(support, rows, cols, *carried):
    """Entries (rows, cols, *carried) between the ascending indices support,
    indexed by position in support and kept in their order: the matrix
    restricted to those indices, stored zeros included. carried are arrays
    with one item per entry, such as its values."""
    r, c = np.searchsorted(support, rows), np.searchsorted(support, cols)
    inside = ((support.take(r, mode="clip") == rows)
              & (support.take(c, mode="clip") == cols))
    return (r[inside], c[inside], *(x[inside] for x in carried))


def _check_params(params):
    if not isinstance(params, DeviceParams):
        raise DomainError("params must be a DeviceParams")


def build_xy_hamiltonian(params, potential, basis=None):
    """Exchange chain sum_j g_j (s+_j s-_{j+1} + h.c.) + sum_j h_j n_j.

    basis None builds on the full 2^L space; a SectorBasis restricts to its
    excitation numbers (the Hamiltonian conserves total excitation number).
    """
    _check_params(params)
    if not isinstance(potential, PotentialSpec):
        raise DomainError("potential must be a PotentialSpec")
    n = params.n_qubits
    states, occ, tag = _basis_states(basis, n)
    # per state, 0 + h_1 n_1 + h_2 n_2 + ..., added left to right in site
    # order: accumulate keeps that order, a sum would pair the terms up
    site_terms = np.zeros((states.size, n + 1))
    site_terms[:, 1:] = potential.offsets_rad_ns(n) * occ
    diag = np.add.accumulate(site_terms, axis=1)[:, -1]
    # hops: row b flips both sites of bond b + 1 where they differ, which is
    # s+ s- on the bond or its conjugate, whichever the state allows. From
    # one state every flip reaches a different state, so no two rows share
    # an entry
    moves = occ[:, :-1] != occ[:, 1:]
    targets = np.concatenate(
        [states[None], states ^ 3 << np.arange(n - 2, -1, -1)[:, None]])
    amplitudes = np.concatenate(
        [diag[None], np.where(moves.T, params.coupling_rad_ns[:, None], 0.0)])
    return _operator(states, targets, amplitudes, tag)


def build_observable(kind, index, params, basis=None):
    """Observable operators used by the transport experiments.

    kind
        "density"      n_j at site index (1-based).
        "kinetic"      (g_j/2)(sx_j sx_{j+1} + sy_j sy_{j+1}) on bond index.
        "spin_current" (1/2)(sx_j sy_{j+1} - sy_j sx_{j+1}) on bond index.

    basis None targets the full two-level space, a SectorBasis the sector.
    """
    _check_params(params)
    n = params.n_qubits
    j = _integer(index, "index")
    on_bond = kind in ("kinetic", "spin_current")
    if kind != "density" and not on_bond:
        raise DomainError(f"unknown observable kind {kind!r}")
    last = n - 1 if on_bond else n
    if not 1 <= j <= last:
        raise DomainError(f"{'bond' if on_bond else 'site'} index must lie in "
                          f"[1, {last}], got {index}")
    states, occ, tag = _basis_states(basis, n)
    a = occ[:, j - 1]
    if kind == "density":
        return _diagonal(a, tag)
    # flip both sites of bond j where they differ, moving an excitation
    # across it: with weight g_j for kinetic, and for the current with -i
    # toward smaller site index and +i toward larger
    b = occ[:, j]
    moves = a != b
    if kind == "kinetic":
        amplitudes = np.where(moves, params.coupling_rad_ns[j - 1], 0.0)
    else:
        amplitudes = np.where(moves, np.where(b == 1, -1.0j, 1.0j), 0.0)
    return _operator(states, states[None] ^ 3 << (n - j - 1), amplitudes[None],
                     tag)
