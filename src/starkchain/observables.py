"""Expectation values and observable trajectories on state snapshots."""

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .device import _checked_times
from .dynamics import (LindbladSnapshots, _checked_state, _coordinate_map,
                       evolve_lindblad, evolve_unitary)
from .errors import DomainError, NumericalConsistencyError
from .model import OperatorMatrix, _restricted

IMAG_ERROR_TOL = 1e-8


@dataclass(frozen=True)
class TrajectoryTable:
    """Time series of named observables.

    Column names follow the fixed scheme P{j}, K{j}, V{j}, J{j} (site or bond
    index) so CSV headers stay stable; nothing enforces the scheme here, the
    builders in the cli module use it.
    """

    times_ns: np.ndarray
    columns: dict

    def __post_init__(self):
        t = np.asarray(self.times_ns, dtype=float)
        object.__setattr__(self, "times_ns", t)
        nt = t.shape[0]
        cols = {}
        for name, vals in self.columns.items():
            v = np.asarray(vals, dtype=float)
            if v.shape != (nt,):
                raise DomainError(
                    f"column {name!r} has length {v.shape}, expected ({nt},)"
                )
            cols[str(name)] = v
        object.__setattr__(self, "columns", cols)

    @property
    def names(self):
        return list(self.columns)

    def column(self, name):
        return self.columns[name]


def _expectations(snapshots, operators):
    """(T, K) <O_k> on T stacked state vectors (T, d), gathered at each
    OperatorMatrix's stored entries (r, c, v): <psi|O|psi> = sum v psi*[r]
    psi[c], complex, whose imaginary part _real_parts checks.
    On LindbladSnapshots, the real Re tr(O rho), one product of their
    coordinates with the (K, s^2) real map (dynamics._coordinate_map) of
    the operators' entries among the reached states (model._restricted)."""
    if isinstance(snapshots, LindbladSnapshots):
        size = snapshots.support.size
        coef = np.zeros((len(operators), size, size), dtype=complex)
        for k, o in enumerate(operators):
            r, c, v = _restricted(snapshots.support, o.rows, o.cols, o.vals)
            coef[k, c, r] = v
        return snapshots.coords @ _coordinate_map(coef).T
    out = np.empty((len(snapshots), len(operators)), dtype=complex)
    for k, o in enumerate(operators):
        out[:, k] = (snapshots[:, o.rows].conj() * snapshots[:, o.cols]) @ o.vals
    return out


def _check_observables(tag, observables):
    """DomainError unless observables is a mapping, name -> OperatorMatrix,
    whose every operator is on the basis tag and Hermitian."""
    if not isinstance(observables, Mapping):
        raise DomainError("observables must be a mapping of names to "
                          f"OperatorMatrix, got {observables!r}")
    for n, o in observables.items():
        if not isinstance(o, OperatorMatrix):
            raise DomainError(f"observable {n!r} must be an OperatorMatrix, "
                              f"got {o!r}")
        if o.basis_tag != tag:
            raise DomainError(
                f"observable {n!r} basis {o.basis_tag!r} does not match state"
            )
        if not o.is_hermitian():
            raise DomainError(f"observable {n!r} is not Hermitian")


def _real_parts(data, times_ns):
    """The real parts of (T, K) expectations; NumericalConsistencyError if
    one is not finite or an imaginary residue reaches IMAG_ERROR_TOL. A
    trajectory gives times_ns, the time of each row, for its messages; a
    lone expectation None."""
    prefix = "" if times_ns is None else "trajectory "
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        at = "" if times_ns is None else f" at t = {times_ns[~finite].min():g} ns"
        raise NumericalConsistencyError(f"{prefix}expectation is not finite{at}")
    imax = float(np.max(np.abs(data.imag), initial=0.0))
    if imax >= IMAG_ERROR_TOL:
        raise NumericalConsistencyError(f"{prefix}imaginary residue {imax:.3e}")
    return data.real


def expectation(state, obs):
    """<psi|O|psi> of a QuantumState; the imaginary residue must be
    numerical noise.

    A non-finite value or |Im| >= 1e-8 raises; a smaller |Im| is discarded.
    """
    _check_observables(_checked_state(state).basis_tag, {"obs": obs})
    return _real_parts(_expectations(state.data[None], [obs]), None)[0, 0]


def trajectory(hamiltonian, state, times_ns, observables, collapse=None):
    """Evolve once and tabulate exact expectations of each named observable.

    observables: mapping name -> OperatorMatrix (insertion order fixes the
    column order). Without a collapse operator set the state stays pure; with
    one it evolves under the master equation and pays the density-matrix
    cost.
    """
    _check_observables(_checked_state(state).basis_tag, observables)
    times_ns = _checked_times(times_ns)
    if collapse is None:
        snapshots = evolve_unitary(hamiltonian, state, times_ns)
    else:
        snapshots = evolve_lindblad(hamiltonian, state, times_ns, collapse)
    data = _real_parts(_expectations(snapshots, list(observables.values())),
                       times_ns)
    return TrajectoryTable(times_ns=times_ns,
                           columns=dict(zip(observables, data.T)))
