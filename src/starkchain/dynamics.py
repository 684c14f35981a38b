"""State preparation and time evolution (unitary and dissipative)."""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .config import LINDBLAD_SUPPORT_CAP, _tokenize_state_spec
from .device import DeviceParams, _checked_times
from .errors import DomainError, NumericalConsistencyError, StateSpecError
from .model import (OperatorMatrix, _basis_states, _diagonal, _operator,
                    _restricted, _run_starts, _summed)

DENSE_BLOCK_CAP = 512  # largest real block given a dense propagator
CHECK_STACK_ENTRIES = 1 << 14  # most snapshot entries checked in one stack
TRACE_TOL = 1e-6
POSITIVITY_TOL = 1e-6
_UNIT_ROUNDOFF = 2.0 ** -53

# single-site kets used by the product-state parser
_LOCAL_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "X+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "X-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}


def _checked_stack(a, where=lambda k, message: f"snapshot {k}: {message}"):
    """a, a (T, d) stack of state vectors, after the state rule on vectors:
    a norm within TRACE_TOL of 1. The earliest failing snapshot k raises
    DomainError(where(k, message)). Density matrices are held only as
    LindbladSnapshots, whose rule is _checked_coordinates."""
    with np.errstate(over="ignore"):  # an overflowing norm is inf
        norm = np.linalg.norm(a, axis=1)
    bad = np.flatnonzero(~(np.abs(norm - 1.0) <= TRACE_TOL))
    if len(bad):
        k = bad[0]
        raise DomainError(where(k, f"state vector norm {norm[k]} is not 1"))
    return a


@dataclass(frozen=True, eq=False)
class QuantumState:
    """State vector together with its basis tag. Making one is the state
    check (_checked_stack), and it cannot change: data is a read-only
    complex 1-d array. A complex array that owns its data is taken over; any
    other, a view among them, is copied, so nothing the caller holds writes
    to the checked state. A density matrix is never a QuantumState: the
    Lindblad solver starts from psi psi^dag and returns LindbladSnapshots."""

    data: np.ndarray
    basis_tag: str

    def __post_init__(self):
        a = np.asarray(self.data, dtype=complex)
        if not a.flags.owndata:
            a = a.copy()
        if a.ndim != 1:
            raise DomainError(f"state data must be a vector, got shape {a.shape}")
        _checked_stack(a[None], lambda k, message: message)
        a.flags.writeable = False
        object.__setattr__(self, "data", a)

    @property
    def dim(self):
        return self.data.shape[0]


def prepare_initial_state(spec, n_sites, basis=None):
    """Product state from a per-site token string.

    Tokens: '0', '1', 'X+' (equal superposition), 'X-'.  Examples: "10000",
    "X+X+000". On the full 2^L space (basis None) or a SectorBasis, each
    state's amplitude is the product, site 1 first, of its token's ket entry
    at its occupation; the basis must hold every state the spec weighs.
    """
    tokens = _tokenize_state_spec(spec)
    if len(tokens) != n_sites:
        raise StateSpecError(
            f"{spec!r} describes {len(tokens)} sites, expected {n_sites}")
    _, occ, tag = _basis_states(basis, n_sites)
    vec = np.ones(len(occ), dtype=complex)
    for t, occupied in zip(tokens, occ.T):
        vec = vec * _LOCAL_KETS[t][occupied]
    if np.count_nonzero(vec) != 2 ** sum(t[0] == "X" for t in tokens):
        raise StateSpecError(f"{spec!r} has weight outside the basis {tag}")
    return QuantumState(vec, tag)


def _checked_state(state):
    """state, once it is a QuantumState; DomainError naming it otherwise.
    The state rule of the solvers and of the expectation readers."""
    if not isinstance(state, QuantumState):
        raise DomainError(
            f"state must be a QuantumState, got {type(state).__name__}")
    return state


def _checked_run(hamiltonian, state, times):
    """The times of a run (_checked_times), once hamiltonian is a Hermitian
    OperatorMatrix and state a QuantumState on its basis; DomainError
    otherwise."""
    if not isinstance(hamiltonian, OperatorMatrix):
        raise DomainError("hamiltonian must be an OperatorMatrix")
    if not hamiltonian.is_hermitian():
        raise DomainError("hamiltonian is not Hermitian within 1e-12")
    if _checked_state(state).basis_tag != hamiltonian.basis_tag:
        raise DomainError(f"state tag {state.basis_tag!r} does not match "
                          f"hamiltonian {hamiltonian.basis_tag!r}")
    return _checked_times(times)


def _pruned(size, rows, cols, vals):
    """The entries of a size x size generator, row-major, less those below
    _UNIT_ROUNDOFF times its 1-norm and exact zeros, and that norm. Those
    entries move no state beyond rounding. On them scipy's expm_multiply can
    divide by zero or overflow, as on a step dt with dt times the norm below
    _UNIT_ROUNDOFF, which the one step list (_steps) carries."""
    norm = np.bincount(cols, np.abs(vals), size).max(initial=0.0)
    keep = ~(np.abs(vals) < norm * _UNIT_ROUNDOFF) & (vals != 0)
    return rows[keep], cols[keep], vals[keep], norm


def _steps(times, norm):
    """The one step list of every stepped block, norm the 1-norm of its
    generator: (position, dt) for each of times, ascending, ties in input
    order. dt is the time less the last taken one, or 0 where the interval
    is carried into the next one, not taken: an exact 0, or dt times norm
    below _UNIT_ROUNDOFF, which moves no state beyond rounding. So no
    interval's time is dropped."""
    order, steps, t_prev = np.argsort(times, kind="stable"), [], 0.0
    for t, pos in zip(times[order].tolist(), order.tolist()):
        dt = t - t_prev
        if not dt or dt * norm < _UNIT_ROUNDOFF:
            dt = 0.0
        else:
            t_prev = t
        steps.append((pos, dt))
    return steps


def _pade_rows(m):
    """Rows of coefficients over the even powers I, A^2, A^4, ... of the
    [m/m] Pade approximant p(A) / p(-A) of exp(A), p(x) = sum_k b_k x^k with
    b_k = (2m-k)! / (k! (m-k)!), split as p(A) = V + U and p(-A) = V - U.
    Below m = 13 the rows give U = A (row 0) and V = row 1; at m = 13, whose
    powers end at A^6, U = A (A^6 (row 0) + row 2) and V = A^6 (row 1) + row
    3."""
    b = [math.factorial(2 * m - k) // (math.factorial(k) * math.factorial(m - k))
         for k in range(m + 1)]
    if m < 13:
        return np.array([b[1::2], b[0::2]], dtype=float)
    return np.array([[0, b[9], b[11], b[13]], [0, b[8], b[10], b[12]],
                     b[1:8:2], b[0:7:2]], dtype=float)


# the degrees m of Higham's algorithm, each with its theta_m, the largest
# 1-norm of A at which r_m(A) meets double precision (Higham 2005, Table 2.3)
_PADE_DEGREES = (3, 5, 7, 9, 13)
_PADE_THETAS = (1.495585217958292e-2, 2.539398330063230e-1,
                9.504178996162932e-1, 2.097847961257068, 5.371920351148152)
_PADE_ROWS = tuple(_pade_rows(m) for m in _PADE_DEGREES)


def _expm(a):
    """exp(a) of a real square matrix by scaling and squaring (Higham, SIAM
    J. Matrix Anal. Appl. 26(4), 2005, Algorithm 2.3): the Pade approximant
    r_m(a) of the lowest degree m whose theta_m bounds the 1-norm of a, or
    r_13(a / 2^s) squared s times, s the fewest halvings that bring the
    1-norm to theta_13. r_m = (V - U)^-1 (V + U) takes one np.linalg.solve.
    Where the 1-norm or the result is not finite, every entry is nan, with
    no warning: the caller's state check names the failure."""
    n = len(a)
    norm = np.abs(a).sum(axis=0).max()
    if not norm < math.inf:
        return np.full(a.shape, np.nan)
    j = min(bisect.bisect_left(_PADE_THETAS, norm), len(_PADE_THETAS) - 1)
    m, rows = _PADE_DEGREES[j], _PADE_ROWS[j]
    s = max(0, math.ceil(math.log2(norm / _PADE_THETAS[j]))) if m == 13 else 0
    if s:
        a = a * 0.5 ** s
    powers = np.empty((rows.shape[1], n, n))  # I, A^2, A^4, ...
    powers[0] = np.eye(n)
    np.matmul(a, a, out=powers[1])
    for k in range(2, len(powers)):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    w = (rows @ powers.reshape(len(powers), n * n)).reshape(len(rows), n, n)
    if m == 13:
        w = powers[3] @ w[:2] + w[2:]
    # dropped before U and the solve allocate: held, it raised the heap's
    # peak enough for glibc to return the memory after each call, and each
    # call on a 126-coordinate block then took 280 page faults to regrow it
    del powers
    u, v = a @ w[0], w[1]
    r = np.linalg.solve(v - u, v + u)
    if s:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                r = r @ r
        if not np.isfinite(r).all():
            r.fill(np.nan)  # a later product would warn on inf * 0
    return r


def _csr(size, rows, cols, vals):
    import scipy.sparse as sp

    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def _expm_multiply(gen, vec):
    """scipy's expm_multiply(gen, vec) with the same result on every call.
    Its norm estimates (onenormest) draw random start vectors from numpy's
    global random state, and a different draw can pick a different number
    of steps, which moves the result by rounding; they are drawn from a
    fixed seed, and the caller's global random state is restored."""
    import scipy.sparse.linalg

    saved = np.random.get_state()
    np.random.seed(0)
    try:
        return scipy.sparse.linalg.expm_multiply(gen, vec)
    finally:
        np.random.set_state(saved)


def _eigh_evolved(h, vec, times):
    """expm(-i h t) vec at each of times, from one eigendecomposition of the
    dense h; an overflowing phase is nan, without a warning, as in _expm."""
    evals, evecs = np.linalg.eigh(h)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * np.outer(times, evals))
        return (phases * (evecs.conj().T @ vec)) @ evecs.T


def _expm_stepped(gen, vec, times):
    """(position, expm(t G) vec) for each of times along the step list
    (_steps), G the dense real block gen: one expm(dt G) (_expm, numpy
    alone) per distinct dt, made on its first use, dropped after its last."""
    steps = _steps(times, np.abs(gen).sum(axis=0).max())
    last = {dt: i for i, (_, dt) in enumerate(steps)}
    propagators = {}
    for i, (pos, dt) in enumerate(steps):
        if dt:
            if dt not in propagators:
                propagators[dt] = _expm(dt * gen)
            vec = (propagators.pop(dt) if last[dt] == i
                   else propagators[dt]) @ vec
        yield pos, vec


def _evolved_blocks(rows, cols, vals, start, times, dense):
    """The one block loop of both solvers: expm(t G) start at each of
    times, in their order, as a (T, size) array, G the generator (rows,
    cols, vals) on the indices of start. G splits into the blocks of its
    pattern (_generator_blocks); a block whose start is all zero stays
    zero. A block of up to DENSE_BLOCK_CAP indices is made dense and given
    with its start and the times to dense, the solver's dense propagator,
    which yields (position, row) for each time. The larger blocks go
    together, pruned (_pruned), through scipy's expm_multiply (Al-Mohy &
    Higham 2011), one call per interval of the step list (_steps)."""
    out = np.zeros((times.size, start.size), dtype=start.dtype)
    blocks = [idx for idx in _generator_blocks(rows, cols, start.size)
              if start[idx].any()]
    for idx in (idx for idx in blocks if idx.size <= DENSE_BLOCK_CAP):
        r, c, v = _restricted(idx, rows, cols, vals)
        gen = np.zeros((idx.size, idx.size), dtype=vals.dtype)
        gen[r, c] += v  # added to zeros, as todense: a -0.0 becomes +0.0
        for pos, row in dense(gen, start[idx], times):
            out[pos][idx] = row
    if large := [idx for idx in blocks if idx.size > DENSE_BLOCK_CAP]:
        idx = np.sort(np.concatenate(large))
        *gen, norm = _pruned(idx.size, *_restricted(idx, rows, cols, vals))
        gen, vec = _csr(idx.size, *gen), start[idx]  # keeps only the CSR
        for pos, dt in _steps(times, norm):
            if dt:
                vec = _expm_multiply(dt * gen, vec)
            out[pos][idx] = vec
    return out


def evolve_unitary(hamiltonian, state, times):
    """Pure-state evolution psi(t) = expm(-i H t) psi(0), as an (n_times,
    dim) array in the order of times, which must be finite and non-negative.
    A space of up to DENSE_BLOCK_CAP states is one block, diagonalized
    (numpy's eigh) for all times at once; a larger one goes through the one
    block loop of both solvers (_evolved_blocks) with G = -iH, where each
    dense block gets one eigh of iG = H."""
    times = _checked_run(hamiltonian, state, times)
    h, data = hamiltonian, state.data
    if h.dim <= DENSE_BLOCK_CAP:  # one block: a split picks no other propagator
        return _eigh_evolved(h.todense(), data, times)
    return _evolved_blocks(
        h.rows, h.cols, -1j * h.vals, data, times,
        lambda gen, vec, t: enumerate(_eigh_evolved(1j * gen, vec, t)))


@dataclass(frozen=True)
class CollapseOperatorSet:
    """Rate-weighted jump operators sharing one basis."""

    operators: tuple
    basis_tag: str

    def __post_init__(self):
        for op in self.operators:
            if not isinstance(op, OperatorMatrix):
                raise DomainError("collapse operators must be OperatorMatrix")
            if op.basis_tag != self.basis_tag:
                raise DomainError(
                    f"collapse operator tag {op.basis_tag!r} does not match "
                    f"{self.basis_tag!r}")


def make_collapse_ops(params, dephasing="as-given", basis=None):
    """Per-qubit relaxation sqrt(1/T1) s- and dephasing sqrt(rate) n.

    dephasing "as-given" uses rate 1/T2* directly (coherences then decay at
    1/(2 T2*)); "pure" uses the relaxation-corrected rate
    max(1/T2* - 1/(2 T1), 0). On a SectorBasis the jumps are restricted to
    its states.
    """
    if not isinstance(params, DeviceParams):
        raise DomainError("params must be a DeviceParams")
    if dephasing not in ("as-given", "pure"):
        raise DomainError(f"dephasing must be 'as-given' or 'pure', got {dephasing!r}")
    n = params.n_qubits
    states, occ, tag = _basis_states(basis, n)
    gamma1 = 1.0 / params.t1_ns
    rate = 1.0 / params.t2star_ns
    if dephasing == "pure":
        rate = np.maximum(rate - 0.5 * gamma1, 0.0)
    ops = []
    for q, occupied in enumerate(occ.T):  # q counts sites from 0
        ops.append(_operator(states, states[None] ^ 1 << (n - 1 - q),
                             np.sqrt(gamma1[q]) * occupied[None], tag))
        if rate[q] > 0.0:
            ops.append(_diagonal(np.sqrt(rate[q]) * occupied, tag))
    return CollapseOperatorSet(operators=tuple(ops), basis_tag=tag)


def _entry_table(hamiltonian, collapse):
    """H and every jump operator C_k stacked once as one entry table (rows,
    cols, vals, op): op is 0 on the entries of H and k on those of C_k, H
    first and the jumps in order, each operator's entries row-major."""
    ops = (hamiltonian, *collapse.operators)
    rows, cols, vals = (np.concatenate(x) for x in
                        zip(*((o.rows, o.cols, o.vals) for o in ops)))
    return rows, cols, vals, np.repeat(np.arange(len(ops)),
                                       [o.vals.size for o in ops])


def _pairs(key):
    """Index pairs (a, b) of every two entries in one run of equal
    neighbours in key: a ascending, and for each a, b ascending over its
    run."""
    first = _run_starts(key)
    width = np.diff(np.append(first, key.size))  # entries in each run
    partners = np.repeat(width, width)  # entries in the run of each entry
    a = np.repeat(np.arange(key.size), partners)
    # pair p pairs a with the entry of a's run at p's offset in a's block
    # of pairs: the run's first entry plus p less where that block starts
    shift = np.repeat(first, width) - (np.cumsum(partners) - partners)
    return a, np.arange(a.size) + np.repeat(shift, partners)


def _liouvillian(table, size):
    """Entries (rows, cols, vals), row-major, of the generator acting on the
    row-major vectorized density matrix.

    table is the entry table (_entry_table) of the Hamiltonian and the
    rate-weighted collapse operators C_k on one basis of size states. The
    generator is assembled in one pass as A (x) 1 + 1 (x) conj(A) + sum_k
    C_k (x) conj(C_k), with A = -iH - K/2 and K = sum_k C_k+ C_k summed
    first. Both sums are read from index pairs (_pairs) of the table's jump
    entries: K from every two entries in one row of one C_k, conj(C_ia)
    C_ib at (a, b), and sum_k C_k (x) conj(C_k) from every two entries of
    one C_k, the C_k in order. Exact zeros of A are dropped, and entries at
    one coordinate are summed in the order of those terms, the order of a
    jump-by-jump assembly.
    """
    rows, cols, vals, op = table
    jump = op > 0
    r, c, v, o = rows[jump], cols[jump], vals[jump], op[jump]
    a, b = _pairs(o * size + r)
    k = _summed(size, c[a], c[b], v[a].conj() * v[b])
    h = ~jump
    ar, ac, av = _summed(size, np.concatenate([rows[h], k[0]]),
                         np.concatenate([cols[h], k[1]]),
                         np.concatenate([-1j * vals[h], -(0.5 * k[2])]))
    ar, ac, av = (x[av != 0] for x in (ar, ac, av))
    eye, one = np.arange(size), np.ones(size)
    a, b = _pairs(o)
    terms = [  # A (x) 1, 1 (x) conj(A), sum_k C_k (x) conj(C_k)
        ((ar[:, None] * size + eye).ravel(), (ac[:, None] * size + eye).ravel(),
         (av[:, None] * one).ravel()),
        ((eye[:, None] * size + ar).ravel(), (eye[:, None] * size + ac).ravel(),
         (one[:, None] * av.conj()).ravel()),
        (r[a] * size + r[b], c[a] * size + c[b], v[a] * v[b].conj())]
    return _summed(size * size, *map(np.concatenate, zip(*terms)))


def _reachable(data, table, dim):
    """Sorted indices of the basis states reachable from the support of a
    state vector's data, over the entry table (_entry_table) of H and the
    C_k on a basis of dim states.

    Every term of the master equation moves the row index of rho along a
    nonzero entry of H, of a C_k or of K = sum_k C_k+ C_k. It moves the
    column index along the transposed pattern of H and K, which is the same
    since both are Hermitian, and along C_k itself (C_k rho C_k+). The set
    closed under those patterns therefore holds rho(t) at all times, whatever
    the jump operators are. The closure walks the stored nonzero entries,
    every operator at once: each round scatters the states reached one step
    along each operator, keyed by that operator, then steps back from them
    along the transpose of the same operator, and so covers K; a back-step
    that mixed operators could reach states K does not. A K entry that
    cancels exactly still links, which only adds states.
    """
    rows, cols, vals, op = table
    nonzero = vals != 0
    # each link leads from a column state to a row state of one operator
    src, end = cols[nonzero], op[nonzero] * dim + rows[nonzero]
    keys = (op.max(initial=0) + 1) * dim
    reached = data != 0
    while True:
        size = np.count_nonzero(reached)
        via = np.zeros(keys, dtype=bool)
        via[end[reached[src]]] = True
        reached[src[via[end]]] = True
        reached |= via.reshape(-1, dim).any(axis=0)
        if np.count_nonzero(reached) == size:
            return np.flatnonzero(reached)


def _generator_blocks(rows, cols, size):
    """Index arrays of the weakly connected components of the pattern
    (rows, cols) on size nodes, each ascending, in the order of their
    smallest index.

    The generator maps no entry of one block into another, so each block
    evolves on its own. The split is read from the sparsity, not from a
    conservation law, and so holds for any set of jump operators. Each node
    is labelled with the smallest index of its block: every round lowers the
    label at both ends of each link to the smaller one, then follows labels
    to their own labels, until no label changes.
    """
    label = np.arange(size)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _hermitian_slots(size):
    """The real Hermitian coordinates x of a size x size Hermitian rho: as
    many slots as rho has entries, x[a*size+b] = Re rho_ab for a <= b and
    x[b*size+a] = Im rho_ab for a < b. Returns, for each entry rho_cd
    row-major, (re, im, sign) with rho_cd = x[re] + i sign x[im]: re =
    min(c,d)*size + max(c,d), im = max(c,d)*size + min(c,d), sign +1 for
    c < d and -1 for c > d. On the diagonal im is size * size, a slot that
    holds 0."""
    c, d = np.divmod(np.arange(size * size), size)
    lo, hi = np.minimum(c, d), np.maximum(c, d)
    im = np.where(c == d, size * size, hi * size + lo)
    return lo * size + hi, im, np.where(c > d, -1.0, 1.0)


def _coordinates(stack):
    """The (T, s*s) real Hermitian coordinates of the Hermitian parts
    (rho + rho^dag)/2 of a (T, s, s) stack: Re(rho + rho^T)/2 on and above
    the diagonal, Im(rho^T - rho)/2 below it, so a Hermitian rho's own
    entries, bit for bit."""
    swapped = stack.transpose(0, 2, 1)
    upper = np.triu(np.ones(stack.shape[1:], dtype=bool))
    return 0.5 * np.where(upper, (stack + swapped).real,
                          (swapped - stack).imag).reshape(len(stack), upper.size)


def _matrices(x, size):
    """The (T, size, size) Hermitian matrices of the coordinates x."""
    re, im, sign = _hermitian_slots(size)
    x = np.concatenate([x, np.zeros((len(x), 1))], axis=1)  # the 0 of im
    out = np.empty((len(x), size, size), dtype=complex)
    flat = out.reshape(len(x), size * size)
    flat.real = x[:, re]
    flat.imag = x[:, im] * sign
    return out


def _coordinate_map(coef):
    """(K, s*s) real R with R[k] @ x = Re sum_jl coef[k, j, l] rho_jl for
    every Hermitian rho of coordinates x: the coordinates (_coordinates) of
    C^T, C = coef[k], doubled off the diagonal, Re(C + C^T) above it, Im(C -
    C^T) below it and Re C on it."""
    return (_coordinates(coef.transpose(0, 2, 1))
            * (2.0 - np.eye(coef.shape[1]).ravel()))


def _checked_coordinates(x, size, times):
    """The state rule on density matrices, given the (T, size*size) real
    Hermitian coordinates x of T snapshots at times; a matrix read from x is
    Hermitian exactly. Rows are visited in time order, CHECK_STACK_ENTRIES
    entries at a time, and the earliest failing snapshot raises
    NumericalConsistencyError ending at its time: in this order, a
    non-finite coordinate, a trace off 1 by more than TRACE_TOL, an
    eigenvalue below -POSITIVITY_TOL. Positivity is screened by one batched
    Cholesky factorisation of rho + POSITIVITY_TOL/2 * I, and eigvalsh runs
    only where it fails, as it does wherever eigvalsh would find an
    eigenvalue below -POSITIVITY_TOL."""
    order = np.argsort(times, kind="stable")
    per = max(1, CHECK_STACK_ENTRIES // max(1, size * size))
    for first in range(0, len(order), per):
        at = order[first:first + per]
        stack = x[at]
        finite = np.isfinite(stack).all(axis=1)
        herm = _matrices(stack, size)
        with np.errstate(invalid="ignore"):
            trace = np.trace(herm, axis1=1, axis2=2).real
        bad = ~finite | (np.abs(trace - 1.0) > TRACE_TOL)
        stop = np.argmax(bad) if bad.any() else len(herm)
        message = None if stop == len(herm) else (
            f"density matrix trace {trace[stop]} is not 1" if finite[stop]
            else "density matrix is not finite")
        try:  # these are finite, and trace 1 bounds a positive one's norm
            np.linalg.cholesky(herm[:stop] + 0.5 * POSITIVITY_TOL * np.eye(size))
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(herm[:stop])[:, 0]
            negative = np.flatnonzero(low < -POSITIVITY_TOL)
            if negative.size:
                stop = negative[0]
                message = f"density matrix eigenvalue {low[stop]}"
        if stop < len(stack):
            raise NumericalConsistencyError(
                f"{message} at t = {times[at[stop]]:g} ns")


@dataclass(frozen=True, eq=False, init=False)
class LindbladSnapshots:
    """Density matrices in their real Hermitian coordinates, the one form a
    density matrix takes (states enter as QuantumState vectors): coords, a
    read-only (T, s*s) array, row k at times[k], on the s reached states at
    the ascending positions support of a basis of dim states; shape is (T,
    dim, dim). Making one is the state check (_checked_coordinates), so it
    is read without a second one. An array that owns its data is taken over
    and made read-only; any other, a view among them, is copied, so nothing
    the caller holds writes to the checked coordinates."""

    coords: np.ndarray
    support: np.ndarray
    shape: tuple

    def __init__(self, coords, support, dim, times):
        coords, support = np.asarray(coords, dtype=float), np.array(support)
        if not coords.flags.owndata:
            coords = coords.copy()
        if (support.ndim != 1 or not np.issubdtype(support.dtype, np.integer)
                or np.any(support < 0) or np.any(support >= dim)
                or np.any(np.diff(support) <= 0)
                or coords.shape != (len(times), support.size ** 2)):
            raise DomainError(
                f"need (T, s^2) coordinates at T = {len(times)} times on s "
                f"ascending positions in 0..{dim - 1}, got coordinates of "
                f"shape {coords.shape} and a support of shape {support.shape}")
        _checked_coordinates(coords, support.size, times)
        coords.flags.writeable = False
        support.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "shape", (len(coords), dim, dim))

    def __len__(self):
        return self.shape[0]

    def matrices(self):
        """The (T, dim, dim) complex density matrices on the run's basis,
        zero outside the reached states."""
        out = np.zeros(self.shape, dtype=complex)
        out[:, self.support[:, None], self.support] = _matrices(
            self.coords, self.support.size)
        return out


def _hermitian_coordinates(size, rows, cols, vals):
    """The entries (rows, cols, vals), row-major, of the real generator on
    the Hermitian coordinates of rho (_hermitian_slots), given the complex
    generator's entries on the row-major vectorized rho.

    A Lindblad generator maps Hermitian matrices to Hermitian ones, so the
    rows of d(rho)/dt for rho_ab with a <= b determine the rest. Each of
    them, with every rho_cd written through the coordinates, splits into
    its real part, the row of Re rho_ab, and its imaginary part, the row of
    Im rho_ab. This is exact for any Hermitian H and any jump set. Entries
    at one coordinate are summed in the order: real-part terms of rho_cd,
    then imaginary-part terms.
    """
    side = size * size
    re, im, sign = _hermitian_slots(size)
    upper = re[rows] == rows
    rows, cols, vals = rows[upper], cols[upper], vals[upper]
    # a term per coordinate each rho_cd is read from: rho_ab's row, the
    # coordinate, and its complex weight
    off = im[cols] < side
    term_row = np.concatenate([rows, rows[off]])
    term_col = np.concatenate([re[cols], im[cols[off]]])
    term_val = np.concatenate([vals, 1j * sign[cols[off]] * vals[off]])
    mirror = im[term_row] < side
    return _summed(side, np.concatenate([term_row, im[term_row[mirror]]]),
                   np.concatenate([term_col, term_col[mirror]]),
                   np.concatenate([term_val.real, term_val.imag[mirror]]))


def evolve_lindblad(hamiltonian, state, times, collapse):
    """Master-equation evolution with an exact propagator between snapshots,
    drho/dt = -i[H, rho] + sum_k (C_k rho C_k+ - {C_k+ C_k, rho}/2), as the
    LindbladSnapshots of rho in its real Hermitian coordinates, in the order
    of times, on the basis states reachable from the state (6 of 32 on the
    full space for "10000", all 6 on its counts 0..1).

    H and the C_k are stacked once into one entry table (_entry_table), the
    reachable states are closed over it (_reachable), and a support above
    LINDBLAD_SUPPORT_CAP states is refused before the generator is assembled
    on it. On the coordinates the generator is real
    (_hermitian_coordinates), so every snapshot is Hermitian by
    construction. Pruned (_pruned), it goes through the one block loop of
    both solvers (_evolved_blocks), which splits it into real blocks (26/10
    for "10000", 126/110/20 for "X+X+000"); each of up to DENSE_BLOCK_CAP
    coordinates steps by its dense expm(dt G_b) (_expm_stepped, numpy alone)
    on any grid. Making the LindbladSnapshots is the state check: a
    NumericalConsistencyError names the earliest failure, at its time. The
    start, psi psi^dag of a checked QuantumState's vector psi on the reached
    states, which hold all its weight, needs none.
    """
    times = _checked_run(hamiltonian, state, times)
    if collapse.basis_tag != hamiltonian.basis_tag:
        raise DomainError("collapse operators and hamiltonian bases differ")
    table = _entry_table(hamiltonian, collapse)
    support = _reachable(state.data, table, hamiltonian.dim)
    size = support.size
    if size > LINDBLAD_SUPPORT_CAP:
        raise DomainError(
            f"lindblad solver is capped at {LINDBLAD_SUPPORT_CAP} reachable "
            f"basis states, got {size}")
    psi = state.data[support]
    rows, cols, vals, _ = _pruned(size * size, *_hermitian_coordinates(
        size, *_liouvillian(_restricted(support, *table), size)))
    start = _coordinates(np.outer(psi, psi.conj())[None])[0]
    coords = _evolved_blocks(rows, cols, vals, start, times, _expm_stepped)
    return LindbladSnapshots(coords, support, hamiltonian.dim, times)
