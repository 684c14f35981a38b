"""Simulated noisy single-shot readout, held as per-group outcome histograms,
and the estimators read from them."""

import functools
import re
from dataclasses import dataclass

import numpy as np

from .config import MAX_SHOTS
from .device import ConfusionMatrix, _integer  # ConfusionMatrix re-exported
from .dynamics import LindbladSnapshots, _checked_stack, _hermitian_slots
from .errors import DomainError, StateSpecError

VALID_AXES = frozenset("ZXY")
_M64 = (1 << 64) - 1
_HALF_HADAMARD = np.array([[0.5, 0.5], [0.5, -0.5]])  # on each X or Y qubit


def _checked_basis(basis):
    basis = str(basis).upper()
    if not basis or any(a not in VALID_AXES for a in basis):
        raise DomainError(f"basis must be over {{Z,X,Y}}, got {basis!r}")
    return basis


@dataclass(frozen=True, eq=False, init=False)
class CountRecord:
    """The outcome histograms of the groups of one joint readout.

    counts is a read-only (n_groups, 2^n_qubits) int64 array: row g counts
    each reported outcome of group g, its index read as bits with site 1 the
    most significant. sample_shots returns one; group_means reads its
    estimators from it.
    """

    counts: np.ndarray
    basis: str

    def __init__(self, counts, basis, _owned=False):
        basis = _checked_basis(basis)
        # a caller's array is copied; sample_shots hands over its own
        counts = (np.asarray if _owned else np.array)(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != 1 << len(basis):
            raise DomainError(
                f"counts of shape {counts.shape} for {len(basis)} qubits")
        if np.any(counts < 0):
            raise DomainError("counts must be non-negative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "basis", basis)

    @property
    def n_groups(self):
        return self.counts.shape[0]

    @property
    def n_qubits(self):
        return len(self.basis)

    def site_histograms(self, site_tuples):
        """Float counts (n_groups, 2^k) over the joint outcomes of each
        listed tuple of k sites (ascending, site 1 first), summed over the
        other sites by one product with a 0/1 matrix, a block of columns per
        tuple. Its sums are of integers below 2^53, so they are exact."""
        n = self.n_qubits
        bits = np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1
        widths = [1 << len(sites) for sites in site_tuples]
        marginal = np.zeros((1 << n, sum(widths)))
        for off, sites in zip(np.cumsum([0] + widths), site_tuples):
            picked = bits[:, np.subtract(sites, 1)]  # site 1 most significant
            joint = picked @ (1 << np.arange(len(sites)))[::-1]
            marginal[np.arange(1 << n), off + joint] = 1.0
        hists = np.split(self.counts.astype(float) @ marginal,
                         np.cumsum(widths)[:-1], axis=1)
        return [np.ascontiguousarray(h) for h in hists]


def _per_qubit(cols, maps):
    """(2^n, m) columns with maps[q], a 2x2 matrix or None, applied to qubit
    q's axis, site 1 first; each batched product has at least m columns."""
    for q, m in enumerate(maps):
        if m is not None:
            cols = np.matmul(m, cols.reshape(1 << q, 2, -1))
    return cols.reshape(1 << len(maps), -1)


def _pair_sums(support, coords, phases, basis):
    """(2^n, T) pair sums c with diag(U rho U^dag) = H c, H the half-Hadamard
    on each X and Y qubit: U_xi conj(U_xj) is 1 on a Z qubit with x_q = i_q
    = j_q and phi_q (-1)^(x_q (i_q xor j_q)) / 2 on the others. c[k] sums
    Re(phi rho_ij), phi = phases_i conj(phases_j), over the pairs i <= j
    (doubled for i < j) that agree on the Z qubits, at k = (i xor j on the X
    and Y qubits) | (i on the Z qubits); phi is a power of sqrt(-1), so each
    pair reads one slot of the coordinates (dynamics._hermitian_slots)."""
    n, size = len(basis), support.size
    z = sum(1 << (n - 1 - q) for q, axis in enumerate(basis) if axis == "Z")
    re, im, _ = _hermitian_slots(size)
    a, b = np.divmod(np.arange(size * size), size)
    pairs = np.flatnonzero((a <= b) & ((support[a] ^ support[b]) & z == 0))
    a, b, i, j = a[pairs], b[pairs], support[a[pairs]], support[b[pairs]]
    phi = phases[a] * phases[b].conj() * np.where(a == b, 1.0, 2.0)
    key = (i ^ j) & ((1 << n) - 1 ^ z) | i & z
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    terms = coords[:, np.where(phi.real != 0, re[pairs], im[pairs])[order]]
    terms *= (phi.real - phi.imag)[order]
    sums = np.zeros((1 << n, len(coords)))
    sums[keys] = np.add.reduceat(terms, starts, axis=1).T
    return sums


def _outcome_probabilities(support, stack, basis, confusion=None):
    """(T, 2^n) outcome probabilities of a complex (T, s) stack of state
    vectors or the real (T, s^2) Hermitian coordinates of T density
    matrices (dynamics._hermitian_slots), on the s states with full-space
    indices support, measured in basis, bit 0 for the +1 eigenvector.

    In Z on every qubit these are |amp|^2 or the diagonal slots, scattered
    onto the support. Otherwise, up to phases and scales that |.|^2 and
    normalising drop, the pre-rotation is diag(1, -i) on each Y qubit, then
    the half-Hadamard on each X or Y qubit, one qubit at a time (a fast
    Walsh-Hadamard transform), on the amplitudes scattered onto 2^n or on
    the pair sums: T (s^2 + n 2^n) in all. The confusion (C_1 x ... x C_n)
    p goes on the same way, but for the perfect matrices (f0 = f1 = 1).
    """
    n, size, rows = len(basis), support.size, len(stack)
    if set(basis) == {"Z"}:
        probs = np.zeros((rows, 1 << n))
        probs[:, support] = (np.abs(stack) ** 2 if np.iscomplexobj(stack)
                             else stack[:, ::size + 1])
    else:
        ys = sum((support >> (n - 1 - q) & 1 for q, axis in enumerate(basis)
                  if axis == "Y"), np.zeros_like(support))
        phases = np.array([1, -1j, -1, 1j])[ys % 4]  # (-i)^(Y qubits at 1)
        hadamards = [None if axis == "Z" else _HALF_HADAMARD for axis in basis]
        if np.iscomplexobj(stack):
            amps = np.zeros((1 << n, rows), dtype=complex)
            amps[support] = (stack * phases).T
            parts = _per_qubit(amps.view(float), hadamards)
            born = parts[:, ::2] ** 2 + parts[:, 1::2] ** 2
        else:
            born = _per_qubit(_pair_sums(support, stack, phases, basis),
                              hadamards)
        probs = born.T.copy()
    np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    maps = [None if c.f0 == c.f1 == 1.0 else c.matrix for c in confusion or ()]
    if any(m is not None for m in maps):
        probs = _per_qubit(probs.T.copy(), maps).T.copy()
    # no entry above 1: a readout that reports every outcome as one sums
    # its products to 1 + eps there
    return np.minimum(probs, 1.0, out=probs)


def _keyed_generators(seeds):
    """For each seed, a Generator that draws what a fresh
    Generator(Philox(key=seed)) draws. One Philox serves the whole call:
    its state is reset to counter 0, an empty buffer and the key's two
    64-bit words (low first) before each yield, so a generator is spent
    before the next is drawn. Philox(key=...) itself would first seed a
    throw-away SeedSequence from OS entropy."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, an empty buffer
    for seed in seeds:
        seed = int(seed)
        if not 0 <= seed < 1 << 128:
            raise DomainError(f"seed must be in 0..2**128 - 1, got {seed}")
        state["state"]["key"] = (seed & _M64, seed >> 64)
        bitgen.state = state
        yield gen


def sample_shots(states, confusion, basis, n_shots, seeds, n_groups=1,
                 support=None):
    """Per-group outcome histograms of noisy readouts of a snapshot stack.

    states is a (T, s) stack of state vectors, held to the state rule on
    vectors (dynamics._checked_stack), or the LindbladSnapshots of
    evolve_lindblad, checked when made, with one seed per snapshot; a
    density matrix is sampled only as LindbladSnapshots. support gives the
    distinct full-space index of each of the s states of n qubits, in the
    stack's own order (for LindbladSnapshots, that of the run's basis);
    None, the default, is the whole 2^n space in index order. Each
    snapshot's n_shots split into n_groups groups. With independent
    per-qubit flips, the reported outcome of one shot has the distribution
    q = (C_1 x ... x C_n) p, p the Born probabilities after the basis
    pre-rotation, so each group's histogram is one multinomial draw of
    n_shots // n_groups from q. Snapshot k draws its n_groups histograms
    from Philox keyed by its seed alone, so any snapshot can be regenerated
    on its own. The snapshots draw in order on the calling thread, so a bad
    seed raises at the lowest snapshot that holds one.

    Returns a CountRecord of T * n_groups groups in state-major order (group
    g of snapshot k is row k * n_groups + g).
    """
    basis = _checked_basis(basis)
    n_qubits = len(basis)
    if len(confusion) != n_qubits:
        raise DomainError(
            f"need {n_qubits} confusion matrices, got {len(confusion)}")
    n_shots = _integer(n_shots, "n_shots")
    n_groups = _integer(n_groups, "n_groups")
    if not 1 <= n_shots <= MAX_SHOTS:
        raise DomainError(f"n_shots must be in 1..{MAX_SHOTS}, got {n_shots}")
    if np.ndim(seeds) != 1 or not len(states) or len(seeds) != len(states):
        raise DomainError(
            f"need one seed per state, got {np.size(seeds)} seeds for "
            f"{len(states)} states")
    # an array of an integer dtype passes on its dtype alone
    if not (isinstance(seeds, np.ndarray) and np.issubdtype(seeds.dtype, np.integer)):
        bad = [s for s in seeds
               if isinstance(s, bool) or not isinstance(s, (int, np.integer))]
        if bad:
            raise DomainError(f"seeds must be integers, got {bad[0]!r}")
    if n_groups < 1 or n_shots % n_groups:
        raise DomainError(
            f"{n_shots} shots per state not divisible into {n_groups} groups")
    support = np.arange(1 << n_qubits) if support is None else np.asarray(support)
    ordered = np.sort(support, axis=None)
    if (support.ndim != 1 or not support.size
            or not np.issubdtype(support.dtype, np.integer) or ordered[0] < 0
            or ordered[-1] >= 1 << n_qubits or np.any(np.diff(ordered) <= 0)):
        raise DomainError(
            f"support must be distinct full-space indices of {n_qubits} qubits")
    checked = isinstance(states, LindbladSnapshots)
    stack = states if checked else np.asarray(states, dtype=complex)
    size = support.size
    if stack.shape[1:] != ((size, size) if checked else (size,)):
        raise StateSpecError(
            f"sampling needs states on {size} of the full-space states of "
            f"{n_qubits} qubits, got a stack of shape {stack.shape}")
    if checked:
        support, stack = support[states.support], states.coords
    else:
        stack = _checked_stack(stack)
    reported = _outcome_probabilities(support, stack, basis, confusion)
    counts = np.empty((len(seeds), n_groups, 1 << n_qubits), dtype=np.int64)
    for k, gen in enumerate(_keyed_generators(seeds)):
        counts[k] = gen.multinomial(n_shots // n_groups, reported[k],
                                    size=n_groups)
    return CountRecord(counts.reshape(-1, 1 << n_qubits), basis, _owned=True)


_ESTIMATOR_RE = re.compile(r"^(P|XX|YY|XY|YX|ZZ)([1-9][0-9]*)$")


def _parse_estimator(name, record):
    m = _ESTIMATOR_RE.match(name)
    if not m:
        raise DomainError(f"unknown estimator {name!r} (use e.g. 'P3' or 'XX2')")
    kind, idx = m.group(1), int(m.group(2))
    n = record.n_qubits
    if kind == "P":
        if not 1 <= idx <= n:
            raise DomainError(f"site {idx} outside 1..{n}")
        return kind, (idx,)
    if not 1 <= idx <= n - 1:
        raise DomainError(f"bond {idx} outside 1..{n - 1}")
    want = kind  # two basis letters
    have = record.basis[idx - 1] + record.basis[idx]
    if have != want:
        raise DomainError(
            f"estimator {name!r} needs basis {want} on sites {idx},{idx + 1}; "
            f"record has {have}"
        )
    return kind, (idx, idx + 1)


def _correct_histograms(hist, mats):
    """Apply the tensored inverse confusion matrix to each group's histogram
    (one per row), clamp, and keep each group's shot count. mats holds one
    2x2 inverse per site, the first site most significant."""
    inv = functools.reduce(np.kron, mats)
    # batched matmul makes one matrix-vector product per group, summed in
    # the same order as inv @ h for a single group (hist @ inv.T is not)
    out = np.clip(np.matmul(inv, hist[:, :, None])[:, :, 0], 0.0, None)
    total = out.sum(axis=1)
    if np.any(total <= 0):
        raise DomainError("readout correction produced an empty histogram")
    return out * (hist.sum(axis=1) / total)[:, None]


def group_means(record, estimators, confusion=None):
    """Per-group estimates (n_groups, K) of a sequence of K estimators, in
    group order, column k for name k.

    record: a CountRecord, which gives every estimator's histogram from
    one pass over its counts. Each estimator: 'P{j}' for a site density, or
    a two-letter Pauli pair plus the bond index ('XX2', 'XY1', ...)
    evaluated as (1-2b_i)(1-2b_j). With confusion matrices given, each
    group's joint histogram is inverse-corrected before the estimate.
    """
    if isinstance(estimators, str) or not np.iterable(estimators):
        raise DomainError(f"estimators must be a sequence of names, got "
                          f"{estimators!r}")
    parsed = [_parse_estimator(str(name), record) for name in estimators]
    hists = record.site_histograms([sites for _, sites in parsed])
    out = np.empty((len(parsed), record.n_groups))
    for k, ((kind, sites), hist) in enumerate(zip(parsed, hists)):
        if not hist.sum(axis=1).all():
            raise DomainError("empty groups")
        if confusion is not None:
            hist = _correct_histograms(
                hist, [confusion[s - 1].inverse() for s in sites])
        # outcome values over (b_i) or (b_i b_j): the bit itself for P, the
        # product of (1-2b) for a Pauli pair
        vals = np.array([0.0, 1.0] if kind == "P" else [1.0, -1.0, -1.0, 1.0])
        # one dot product per group, as np.dot(vals, h) for a single group
        out[k] = np.matmul(hist[:, None, :], vals)[:, 0] / hist.sum(axis=1)
    return out.T
