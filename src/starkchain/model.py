"""Hamiltonians, bases and observable operators for the qubit chain.

Basis conventions (fixed, relied on by every other module):

* full two-level space, tag ``full:n=L``: computational states are indexed by
  the integer whose binary digits are the site occupations with site 1 as the
  most significant bit, ascending.  Index 0 is the vacuum.
* excitation sector, tag ``sector:n=L,k=K``: all occupation tuples with K
  excitations, in descending lexicographic order (site 1 most significant).
  For K = 1 this puts the excitation on site k+1 at basis index k, so the
  sector block of the hopping Hamiltonian is literally the tridiagonal
  single-particle matrix.
* truncated bosonic space, tag ``fock:n=L,d=D``: occupations 0..D-1 per site,
  indexed by the base-D integer with site 1 as the most significant digit.
  For D = 2 the indexing coincides with the full two-level space.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from .device import DeviceParams, PotentialSpec
from .errors import DomainError

DENSE_DIM_CAP = 4096

# local two-level operators, |0> = (1, 0), |1> = (0, 1)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
NUMBER_OP = SIGMA_PLUS @ SIGMA_MINUS


def full_tag(n_sites):
    return f"full:n={n_sites}"


def sector_tag(n_sites, n_excitations):
    return f"sector:n={n_sites},k={n_excitations}"


def fock_tag(n_sites, cutoff):
    return f"fock:n={n_sites},d={cutoff}"


def full_index(occupations):
    """Integer index of an occupation tuple in the full two-level space."""
    idx = 0
    for n in occupations:
        idx = (idx << 1) | int(n)
    return idx


def occupations_of_index(index, n_sites):
    """Inverse of full_index."""
    return tuple((index >> (n_sites - 1 - j)) & 1 for j in range(n_sites))


@dataclass(frozen=True)
class SectorBasis:
    """Canonically ordered basis of a fixed-excitation-number sector."""

    n_sites: int
    n_excitations: int
    states: tuple = field(repr=False)
    index: dict = field(repr=False, compare=False)

    @property
    def dim(self):
        return len(self.states)

    @property
    def tag(self):
        return sector_tag(self.n_sites, self.n_excitations)


def build_sector_basis(n_sites, n_excitations):
    """All occupation tuples with the given excitation number.

    States are sorted in descending lexicographic order, site 1 most
    significant: (5, 1) gives 10000, 01000, 00100, 00010, 00001.
    """
    n, k = int(n_sites), int(n_excitations)
    if n < 1:
        raise DomainError(f"n_sites must be >= 1, got {n_sites}")
    if not 0 <= k <= n:
        raise DomainError(f"n_excitations must lie in [0, {n}], got {n_excitations}")
    states = []
    for occupied in combinations(range(n), k):
        occ = [0] * n
        for j in occupied:
            occ[j] = 1
        states.append(tuple(occ))
    states.sort(reverse=True)
    index = {s: i for i, s in enumerate(states)}
    return SectorBasis(n_sites=n, n_excitations=k, states=tuple(states), index=index)


@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse Hermitian-checkable operator tied to a basis tag."""

    matrix: sp.csr_matrix = field(repr=False)
    basis_tag: str

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix, dtype=complex)
        m.sum_duplicates()
        m.sort_indices()
        if m.shape[0] != m.shape[1]:
            raise DomainError(f"operator must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def entries(self):
        """Canonical coordinate list (rows, cols, values), row-major sorted."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]

    def todense(self):
        if self.dim > DENSE_DIM_CAP:
            raise DomainError(
                f"dense conversion capped at dim {DENSE_DIM_CAP}, got {self.dim}")
        return np.asarray(self.matrix.todense())

    def is_hermitian(self, tol=1e-12):
        diff = (self.matrix - self.matrix.getH())
        scale = max(1.0, sp.linalg.norm(self.matrix))
        return sp.linalg.norm(diff) <= tol * scale


def _site_operator(local_ops, site, n_sites, local_dim=2):
    """Sparse I_{d^(site-1)} (x) local_ops (x) I_{d^(n_sites-site)}, site 1-based."""
    left = sp.identity(local_dim ** (site - 1), format="csr")
    right = sp.identity(local_dim ** (n_sites - site), format="csr")
    return sp.kron(sp.kron(left, sp.csr_matrix(local_ops), format="csr"),
                   right, format="csr")


def _check_chain(params, potential):
    if not isinstance(params, DeviceParams):
        raise DomainError("params must be a DeviceParams")
    if not isinstance(potential, PotentialSpec):
        raise DomainError("potential must be a PotentialSpec")


def build_xy_hamiltonian(params, potential, basis=None):
    """Exchange chain sum_j g_j (s+_j s-_{j+1} + h.c.) + sum_j h_j n_j.

    basis None builds on the full 2^L space; a SectorBasis restricts to one
    excitation sector (the Hamiltonian conserves total excitation number).
    """
    _check_chain(params, potential)
    n = params.n_qubits
    g = params.coupling_rad_ns
    h = potential.offsets_rad_ns(n)
    if basis is None:
        ham = sp.csr_matrix((2 ** n, 2 ** n), dtype=complex)
        for j in range(1, n):
            hop = _site_operator(SIGMA_PLUS, j, n) @ _site_operator(SIGMA_MINUS, j + 1, n)
            ham = ham + g[j - 1] * (hop + hop.getH())
        for j in range(1, n + 1):
            ham = ham + h[j - 1] * _site_operator(NUMBER_OP, j, n)
        return OperatorMatrix(matrix=ham, basis_tag=full_tag(n))
    if basis.n_sites != n:
        raise DomainError(
            f"basis has {basis.n_sites} sites but device has {n} qubits")
    rows, cols, vals = [], [], []
    for i, occ in enumerate(basis.states):
        diag = sum(h[j] for j in range(n) if occ[j])
        rows.append(i); cols.append(i); vals.append(diag)
        for j in range(n - 1):
            if occ[j] != occ[j + 1]:
                target = list(occ)
                target[j], target[j + 1] = occ[j + 1], occ[j]
                t = basis.index[tuple(target)]
                rows.append(t); cols.append(i); vals.append(g[j])
    ham = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim), dtype=complex)
    return OperatorMatrix(matrix=ham.tocsr(), basis_tag=basis.tag)


def build_bose_hubbard_hamiltonian(params, potential, fock_cutoff=2):
    """Truncated bosonic chain on the full product space of dim fock_cutoff^L.

    sum_j g_j (a+_j a_{j+1} + h.c.) + sum_j (U_j/2) n_j (n_j - 1) + sum_j h_j n_j.
    fock_cutoff = 2 is the hard-core limit and reproduces the exchange chain
    matrix entry for entry (the interaction term vanishes on 0/1 occupations).
    """
    _check_chain(params, potential)
    d = int(fock_cutoff)
    if d < 2:
        raise DomainError(f"fock_cutoff must be >= 2, got {fock_cutoff}")
    n = params.n_qubits
    if d ** n > 2 ** 20:
        raise DomainError(f"fock space dim {d}^{n} exceeds the supported size")
    g = params.coupling_rad_ns
    u = params.anharmonicity_rad_ns
    h = potential.offsets_rad_ns(n)
    lower = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)  # annihilation
    raise_op = lower.conj().T
    num = raise_op @ lower
    num2 = num @ (num - np.eye(d))
    dim = d ** n
    ham = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(1, n):
        hop = (_site_operator(raise_op, j, n, d) @ _site_operator(lower, j + 1, n, d))
        ham = ham + g[j - 1] * (hop + hop.getH())
    for j in range(1, n + 1):
        ham = ham + 0.5 * u[j - 1] * _site_operator(num2, j, n, d)
        ham = ham + h[j - 1] * _site_operator(num, j, n, d)
    return OperatorMatrix(matrix=ham, basis_tag=fock_tag(n, d))


_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def build_observable(kind, index, params, potential=None, basis=None,
                     axis=None, fock_cutoff=None):
    """Observable operators used by the transport experiments.

    kind
        "density"      n_j at site index (1-based).
        "kinetic"      (g_j/2)(sx_j sx_{j+1} + sy_j sy_{j+1}) on bond index.
        "potential"    h_j n_j + h_{j+1} n_{j+1} on bond index.  Interior
                       sites are shared by two bonds, so summing over bonds
                       double counts them by construction.
        "spin_current" (1/2)(sx_j sy_{j+1} - sy_j sx_{j+1}) on bond index.
        "pauli_pair"   sa_j sa_{j+1} with axis in {"x","y","z"} on bond index.

    basis None targets the full two-level space, a SectorBasis the sector;
    fock_cutoff targets the truncated bosonic space (density only).
    """
    n = params.n_qubits
    j = int(index)
    if fock_cutoff is not None:
        if basis is not None:
            raise DomainError("pass either basis or fock_cutoff, not both")
        if kind != "density":
            raise DomainError(f"{kind!r} is not available on the bosonic space")
        d = int(fock_cutoff)
        if not 1 <= j <= n:
            raise DomainError(f"site index must lie in [1, {n}], got {index}")
        lower = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
        num = lower.conj().T @ lower
        return OperatorMatrix(matrix=_site_operator(num, j, n, d),
                              basis_tag=fock_tag(n, d))

    if kind == "density":
        if not 1 <= j <= n:
            raise DomainError(f"site index must lie in [1, {n}], got {index}")
    elif kind in ("kinetic", "potential", "spin_current", "pauli_pair"):
        if not 1 <= j <= n - 1:
            raise DomainError(f"bond index must lie in [1, {n - 1}], got {index}")
    else:
        raise DomainError(f"unknown observable kind {kind!r}")
    if kind == "potential" and potential is None:
        raise DomainError("potential observable needs a PotentialSpec")
    if kind == "pauli_pair" and axis not in _PAULI:
        raise DomainError(f"axis must be one of x, y, z, got {axis!r}")

    g = params.coupling_rad_ns
    h = potential.offsets_rad_ns(n) if potential is not None else None

    if basis is None:
        if kind == "density":
            m = _site_operator(NUMBER_OP, j, n)
        elif kind == "kinetic":
            m = 0.5 * g[j - 1] * (
                _site_operator(SIGMA_X, j, n) @ _site_operator(SIGMA_X, j + 1, n)
                + _site_operator(SIGMA_Y, j, n) @ _site_operator(SIGMA_Y, j + 1, n))
        elif kind == "potential":
            m = (h[j - 1] * _site_operator(NUMBER_OP, j, n)
                 + h[j] * _site_operator(NUMBER_OP, j + 1, n))
        elif kind == "spin_current":
            m = 0.5 * (
                _site_operator(SIGMA_X, j, n) @ _site_operator(SIGMA_Y, j + 1, n)
                - _site_operator(SIGMA_Y, j, n) @ _site_operator(SIGMA_X, j + 1, n))
        else:
            op = _PAULI[axis]
            m = _site_operator(op, j, n) @ _site_operator(op, j + 1, n)
        return OperatorMatrix(matrix=m, basis_tag=full_tag(n))

    if basis.n_sites != n:
        raise DomainError(
            f"basis has {basis.n_sites} sites but device has {n} qubits")
    if kind == "pauli_pair" and axis in ("x", "y"):
        raise DomainError(
            "pauli_pair x/y does not conserve excitation number; "
            "build it on the full space")

    rows, cols, vals = [], [], []
    for i, occ in enumerate(basis.states):
        if kind == "density":
            if occ[j - 1]:
                rows.append(i); cols.append(i); vals.append(1.0)
        elif kind == "potential":
            v = h[j - 1] * occ[j - 1] + h[j] * occ[j]
            if v != 0.0:
                rows.append(i); cols.append(i); vals.append(v)
        elif kind == "pauli_pair":  # z axis
            rows.append(i); cols.append(i)
            vals.append((1.0 - 2.0 * occ[j - 1]) * (1.0 - 2.0 * occ[j]))
        else:
            # hop across bond j: kinetic has weight g_j; the Pauli-product
            # current picks up -i when the excitation moves toward smaller
            # site index and +i toward larger
            if occ[j - 1] != occ[j]:
                target = list(occ)
                target[j - 1], target[j] = occ[j], occ[j - 1]
                t = basis.index[tuple(target)]
                if kind == "kinetic":
                    rows.append(t); cols.append(i); vals.append(g[j - 1])
                else:
                    sign = -1.0j if occ[j] else 1.0j
                    rows.append(t); cols.append(i); vals.append(sign)
    m = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim), dtype=complex)
    return OperatorMatrix(matrix=m.tocsr(), basis_tag=basis.tag)
