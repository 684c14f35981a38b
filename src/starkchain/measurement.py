"""Simulated noisy single-shot readout and grouped error-bar statistics."""

import functools
import re
from dataclasses import dataclass

import numpy as np

from .dynamics import QuantumState
from .errors import DomainError, StateSpecError
from .model import full_tag

VALID_AXES = frozenset("ZXY")

# Basis pre-rotations: measuring axis A in the computational basis after U
# with U A U^dag = Z, so reported bit 0 is the +1 eigenvalue.
_SQ2 = 1.0 / np.sqrt(2.0)
_ROT = {
    "Z": np.eye(2, dtype=complex),
    # R_y(-pi/2)
    "X": np.array([[_SQ2, _SQ2], [-_SQ2, _SQ2]], dtype=complex),
    # R_x(+pi/2)
    "Y": np.array([[_SQ2, -1j * _SQ2], [-1j * _SQ2, _SQ2]], dtype=complex),
}


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic 2x2 readout map [[F0, 1-F1], [1-F0, F1]]."""

    f0: float
    f1: float

    def __post_init__(self):
        for name in ("f0", "f1"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be in [0, 1], got {v}")
            object.__setattr__(self, name, v)

    @property
    def matrix(self):
        return np.array([[self.f0, 1.0 - self.f1], [1.0 - self.f0, self.f1]])

    @property
    def is_singular(self):
        # det = F0 + F1 - 1
        return abs(self.f0 + self.f1 - 1.0) < 1e-12

    def inverse(self):
        if self.is_singular:
            raise DomainError(
                "confusion matrix is singular (F0 + F1 = 1), cannot invert"
            )
        return np.linalg.inv(self.matrix)

    @classmethod
    def perfect(cls):
        return cls(f0=1.0, f1=1.0)


def confusion_from_device(params):
    """One ConfusionMatrix per qubit from the device readout fidelities."""
    return [
        ConfusionMatrix(f0=f0, f1=f1)
        for f0, f1 in zip(params.readout_f0, params.readout_f1)
    ]


@dataclass(frozen=True, eq=False, init=False)
class ShotRecord:
    """The shots of one joint readout, held as bits.

    bits is a read-only (n_shots, n_qubits) uint8 array with site 1 in
    column 0; the shots split into n_groups equal consecutive groups. Build a
    record from bits=..., or from bitstrings=... (text such as '10011', site
    1 leftmost), which is parsed once here. Text is formatted again only on
    request, by .bitstrings and save_shots.
    """

    bits: np.ndarray
    n_groups: int
    seed: int
    basis: str

    def __init__(self, bitstrings=None, n_groups=1, seed=0, basis="", *,
                 bits=None):
        basis = str(basis).upper()
        if not basis or any(a not in VALID_AXES for a in basis):
            raise DomainError(f"basis must be over {{Z,X,Y}}, got {basis!r}")
        n_qubits = len(basis)
        if (bitstrings is None) == (bits is None):
            raise DomainError("give exactly one of bitstrings and bits")
        if bits is None:
            bits = _parse_bitstrings(bitstrings, n_qubits)
        else:
            bits = np.asarray(bits)
            if bits.ndim != 2 or bits.shape[1] != n_qubits:
                raise DomainError(
                    f"bits of shape {bits.shape} for {n_qubits} qubits")
            if not ((bits == 0) | (bits == 1)).all():
                raise DomainError("bits must be 0 or 1")
            bits = bits.astype(np.uint8)
        bits.flags.writeable = False
        if n_groups < 1 or bits.shape[0] % n_groups != 0:
            raise DomainError(
                f"{bits.shape[0]} shots not divisible into {n_groups} groups"
            )
        for name, value in (("bits", bits), ("n_groups", n_groups),
                            ("seed", seed), ("basis", basis)):
            object.__setattr__(self, name, value)

    @property
    def n_shots(self):
        return self.bits.shape[0]

    @property
    def n_qubits(self):
        return len(self.basis)

    @property
    def bitstrings(self):
        return tuple(_shot_lines(self.bits).splitlines())

    def bit_array(self):
        return self.bits


_BITSTRING_RE = re.compile(r"[01]+")


def _parse_bitstrings(bitstrings, n_qubits):
    rows = [str(b) for b in bitstrings]
    for b in rows:
        if len(b) != n_qubits or not _BITSTRING_RE.fullmatch(b):
            raise DomainError(f"bad bitstring {b!r} for {n_qubits} qubits")
    flat = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return (flat - ord("0")).reshape(len(rows), n_qubits)


def _shot_lines(bits):
    """One line of '0'/'1' characters per shot, each ending in a newline."""
    text = np.full((bits.shape[0], bits.shape[1] + 1), ord("\n"), np.uint8)
    text[:, :-1] = bits + ord("0")
    return text.tobytes().decode("ascii")


def save_shots(record, path):
    """Line-per-shot text format: basis header, then one bitstring per line."""
    with open(path, "w") as fh:
        fh.write(record.basis + "\n")
        fh.write(_shot_lines(record.bits))


def load_shots(path, n_groups=1, seed=0):
    """Inverse of save_shots; group count and seed are not part of the wire
    format, so they are supplied by the caller (defaults documented here)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DomainError(f"empty shot file {path}")
    return ShotRecord(
        bitstrings=tuple(lines[1:]), n_groups=n_groups, seed=seed, basis=lines[0]
    )


def _tensor(maps):
    """The 2^k x 2^k tensor product of k per-qubit 2x2 maps, the first
    qubit most significant."""
    return functools.reduce(np.kron, maps)


def _rotated_probabilities(state, u, n):
    """Outcome probabilities of an n-qubit state after the pre-rotation u."""
    if state.basis_tag != full_tag(n):
        raise StateSpecError(
            f"sampling needs a full-space state on {n} qubits, got {state.basis_tag!r}"
        )
    if state.is_density:
        rho = u @ state.data @ u.conj().T
        probs = np.real(np.diag(rho)).copy()
    else:
        probs = np.abs(u @ state.data) ** 2
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def sample_shots(state, confusion, basis, n_shots, seed, n_groups=1):
    """Draw noisy shots: basis pre-rotation, Born draw, per-qubit bit flips.

    The RNG is counter-based (Philox keyed by the seed) and all uniforms come
    from a single (n_shots, n_qubits + 1) block: column 0 drives each shot's
    Born draw, column q+1 the readout flip of qubit q. Any row can therefore
    be regenerated independently of the others, which is what makes the
    sampler deterministic under parallel evaluation as well.

    state may also be a sequence of K states, with seed a sequence of K
    seeds: the batch draws each state's shots from its own seed, exactly as
    K single calls would, and returns one record holding them one state
    after another. n_shots and n_groups stay per state, so the record has
    K * n_groups groups in state-major order (group g of state k is group
    k * n_groups + g), and its seed is the first state's seed.
    """
    basis = str(basis).upper()
    if any(a not in VALID_AXES for a in basis):
        raise DomainError(f"invalid basis axis in {basis!r}")
    n_qubits = len(basis)
    if len(confusion) != n_qubits:
        raise DomainError(
            f"need {n_qubits} confusion matrices, got {len(confusion)}"
        )
    if n_shots < 1:
        raise DomainError("n_shots must be positive")
    states = [state] if isinstance(state, QuantumState) else list(state)
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    if not states or len(seeds) != len(states):
        raise DomainError(
            f"need one seed per state, got {len(seeds)} seeds for "
            f"{len(states)} states"
        )
    n_shots = int(n_shots)
    if n_groups < 1 or n_shots % n_groups:
        raise DomainError(
            f"{n_shots} shots per state not divisible into {n_groups} groups")
    rotation = _tensor([_ROT[a] for a in basis])  # the basis pre-rotation
    # row o of the table holds the bits of outcome o, site 1 = most
    # significant
    shifts = n_qubits - 1 - np.arange(n_qubits)
    table = ((np.arange(1 << n_qubits)[:, None] >> shifts) & 1).astype(np.uint8)
    flip0 = np.array([1.0 - c.f0 for c in confusion])  # P(report 1 | true 0)
    flip1 = np.array([1.0 - c.f1 for c in confusion])  # P(report 0 | true 1)
    u = np.empty((n_shots, n_qubits + 1))
    reported = np.empty((len(states) * n_shots, n_qubits), dtype=np.uint8)
    for k, (snapshot, key) in enumerate(zip(states, seeds)):
        cdf = np.cumsum(_rotated_probabilities(snapshot, rotation, n_qubits))
        cdf[-1] = 1.0
        np.random.Generator(np.random.Philox(key=int(key))).random(out=u)
        bits = table[np.searchsorted(cdf, u[:, 0], side="right")]
        flips = u[:, 1:] < np.where(bits, flip1, flip0)
        np.bitwise_xor(bits, flips, out=reported[k * n_shots:(k + 1) * n_shots])
    return ShotRecord(bits=reported, n_groups=len(states) * int(n_groups),
                      seed=int(seeds[0]), basis=basis)


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


def _group_histograms(record, sites):
    """Counts (n_groups, 2^k) over the joint outcomes of the k listed sites
    (site 1 first) in each group, from one bincount: the group index sits in
    the bits above the k outcome bits."""
    k = len(sites)
    group_size = record.n_shots // record.n_groups
    idx = np.repeat(np.arange(record.n_groups, dtype=np.int64) << k, group_size)
    for i, s in enumerate(sites):
        idx |= record.bits[:, s - 1].astype(np.int64) << (k - 1 - i)
    counts = np.bincount(idx, minlength=record.n_groups << k)
    return counts.reshape(record.n_groups, 1 << k).astype(float)


def _correct_histograms(hist, mats):
    """Apply the tensored inverse confusion matrix to each group's histogram
    (one per row), clamp, and keep each group's shot count."""
    inv = _tensor(mats)
    # batched matmul makes one matrix-vector product per group, summed in
    # the same order as inv @ h for a single group (hist @ inv.T is not)
    out = np.clip(np.matmul(inv, hist[:, :, None])[:, :, 0], 0.0, None)
    total = out.sum(axis=1)
    if np.any(total <= 0):
        raise DomainError("readout correction produced an empty histogram")
    return out * (hist.sum(axis=1) / total)[:, None]


def group_means(record, estimator, confusion=None):
    """Per-group estimates of one estimator, in group order.

    estimator: 'P{j}' for a site density, or a two-letter Pauli pair plus the
    bond index ('XX2', 'XY1', ...) evaluated as (1-2b_i)(1-2b_j). With
    confusion matrices given, each group's joint histogram is inverse-corrected
    before the estimate.
    """
    kind, sites = _parse_estimator(str(estimator), record)
    if record.n_shots < record.n_groups:
        raise DomainError("empty groups")
    hist = _group_histograms(record, sites)
    if confusion is not None:
        hist = _correct_histograms(
            hist, [confusion[s - 1].inverse() for s in sites])
    # outcome values over (b_i) or (b_i b_j): the bit itself for P, the
    # product of (1-2b) for a Pauli pair
    if kind == "P":
        vals = np.array([0.0, 1.0])
    else:
        vals = np.array([1.0, -1.0, -1.0, 1.0])
    # one dot product per group, as np.dot(vals, h) for a single group
    return np.matmul(hist[:, None, :], vals)[:, 0] / hist.sum(axis=1)


def grouped_statistics(record, estimator, confusion=None):
    """Grand mean and the std across group means (the convention used for all
    quoted error bars here: the spread of group estimates, not SEM)."""
    means = group_means(record, estimator, confusion=confusion)
    grand = float(means.mean())
    spread = float(means.std(ddof=1)) if means.shape[0] > 1 else 0.0
    return grand, spread


def readout_correct(measured, confusion):
    """Apply inverse confusion matrices to probabilities.

    measured of length n_qubits: per-qubit P(report 1) marginals, corrected
    qubit by qubit and clamped to [0, 1]. measured of length 2^n_qubits: a
    full histogram, corrected with the tensor-product inverse and
    renormalized.
    """
    measured = np.asarray(measured, dtype=float)
    n = len(confusion)
    if measured.shape == (n,):  # 2^n > n always, so the dispatch is unambiguous
        out = np.empty(n)
        for q, c in enumerate(confusion):
            vec = np.array([1.0 - measured[q], measured[q]])
            corrected = c.inverse() @ vec
            out[q] = np.clip(corrected[1], 0.0, 1.0)
        return out
    if measured.shape == (2 ** n,):
        inv = _tensor([c.inverse() for c in confusion])
        out = np.clip(inv @ measured, 0.0, None)
        total = out.sum()
        if total <= 0:
            raise DomainError("correction produced an empty distribution")
        return out / total
    raise DomainError(
        f"expected {n} marginals or a {2 ** n}-entry histogram, got shape "
        f"{measured.shape}"
    )
