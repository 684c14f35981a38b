"""Fast exact solver for the non-interacting chain.

The hard-core chain maps to free fermions; densities and the 1- and
2-excitation observables used here never see the string factors, so the
mapping reduces to the L x L single-particle matrix. The test suite carries
the proof obligation by brute-force comparison against exact
diagonalization of the many-body Hamiltonian.
"""

from dataclasses import dataclass

import numpy as np

from .device import _POSITIVE, _checked_times, _integer, _real
from .errors import DomainError, FitDomainError

# A fitted length above this is reported as "no decay resolved" by raising,
# keeping degenerate flat profiles out of downstream scans.
XI_CAP_SITES = 1e3

PROFILE_REL_FLOOR = 1e-3


@dataclass(frozen=True)
class SingleParticleHamiltonian:
    """Real symmetric tridiagonal hopping matrix, angular rad/ns."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise DomainError("single-particle matrix must be square, L >= 2")
        if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
            raise DomainError("single-particle matrix must be symmetric")
        band = np.triu(m, 2)
        if np.any(band != 0.0):
            raise DomainError("single-particle matrix must be tridiagonal")
        object.__setattr__(self, "matrix", m)

    @property
    def size(self):
        return self.matrix.shape[0]


def single_particle_matrix(params, potential):
    """Tridiagonal matrix identical to the 1-excitation block of the chain."""
    length = params.n_qubits
    if length < 2:
        raise DomainError("need at least 2 sites")
    g = params.coupling_rad_ns
    h = potential.offsets_rad_ns(length)
    m = np.diag(h) + np.diag(g, 1) + np.diag(g, -1)
    return SingleParticleHamiltonian(matrix=m)


def _amplitudes(h, site0, times_ns):
    times_ns = _checked_times(times_ns)
    energies, modes = np.linalg.eigh(h.matrix)
    c0 = modes[site0 - 1, :]
    phases = np.exp(-1j * np.outer(energies, times_ns))
    return modes @ (phases * c0[:, None])  # (L, nt)


def propagate_single_particle(h, site0, times_ns):
    """P_j(t) for a particle starting on site0; rows are time points."""
    site0 = _integer(site0, "site0")
    if not 1 <= site0 <= h.size:
        raise DomainError(f"site0 {site0} outside 1..{h.size}")
    amps = _amplitudes(h, site0, times_ns)
    return (np.abs(amps) ** 2).T


def two_excitation_slater(h, sites0, times_ns):
    """Two-particle dynamics from a pair of occupied sites.

    Returns (densities, pair_corr): densities[t, j] = <n_j>, and
    pair_corr[t, i, j] = <n_i n_j> with zeros on the diagonal (hard-core).
    Amplitudes are 2x2 Slater determinants of propagator columns.
    """
    if not isinstance(sites0, (tuple, list, np.ndarray)) or len(sites0) != 2:
        raise DomainError(f"sites0: expected a pair of sites, got {sites0!r}")
    i0, j0 = (_integer(s, f"sites0[{k}]") for k, s in enumerate(sites0))
    if i0 == j0:
        raise DomainError("initial sites must be distinct")
    for s in (i0, j0):
        if not 1 <= s <= h.size:
            raise DomainError(f"site {s} outside 1..{h.size}")
    ua = _amplitudes(h, i0, times_ns)  # column of e^{-iht} from i0, (L, nt)
    ub = _amplitudes(h, j0, times_ns)
    # A[i,j] = U_ia U_jb - U_ja U_ib, antisymmetric; |A_ij|^2 = <n_i n_j>
    a = ua[:, None, :] * ub[None, :, :] - ua[None, :, :] * ub[:, None, :]
    pair = np.abs(a) ** 2  # (L, L, nt)
    dens = pair.sum(axis=1)  # (L, nt); diagonal is zero by antisymmetry
    return dens.T, np.transpose(pair, (2, 0, 1))


def time_averaged_profile(h, site0, gradient_mhz):
    """Mean of P_j(t) over 1500 times evenly spaced on [5 T_B, 10 T_B];
    averages out the BO phase."""
    f = abs(_real(gradient_mhz, "gradient_mhz"))
    if f == 0:
        raise DomainError("averaging window needs a nonzero gradient")
    t_b = 1e3 / f
    t = np.linspace(5 * t_b, 10 * t_b, 1500)
    return propagate_single_particle(h, site0, t).mean(axis=0)


def fit_localization_length(profile, center, xi_guess=None):
    """Tail fit of a density profile; returns xi from the amplitude decay.

    The tail model is an amplitude envelope e^(-d/xi), so the fitted line is
    0.5*ln(profile) against distance d and xi = -1/slope. Window: d from 1 to
    min(3*xi_guess, L/2 - 1), the center site and the two boundary sites
    excluded, truncated where the side-averaged density falls below
    PROFILE_REL_FLOOR times the center value. The floor matches the dynamic
    range a few-thousand-shot measurement resolves; beyond it the true tail
    is superexponential and would bias the slope steep.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 1:
        raise DomainError(f"profile must be 1-d, got shape {profile.shape}")
    if not np.isfinite(profile).all():
        raise DomainError("profile must be finite")
    length = profile.shape[0]
    center = _integer(center, "center")
    if not 1 <= center <= length:
        raise DomainError("center outside the profile")
    p0 = profile[center - 1]
    if p0 <= 0:
        raise FitDomainError("center density must be positive")
    d_cap = length // 2 - 1
    if xi_guess is not None:
        xi_guess = _real(xi_guess, "xi_guess", _POSITIVE)
        d_cap = int(min(np.floor(3.0 * xi_guess), d_cap))
    dists, logs = [], []
    for d in range(1, d_cap + 1):
        sites = [j for j in (center - d, center + d) if 1 < j < length]
        if not sites:
            break
        vals = profile[[j - 1 for j in sites]]
        if np.mean(vals) < PROFILE_REL_FLOOR * p0:
            break
        if np.any(vals <= 0):
            raise FitDomainError(f"non-positive density at distance {d}")
        for v in vals:
            dists.append(float(d))
            logs.append(0.5 * np.log(v))
    if len(dists) < 4:
        raise FitDomainError(f"only {len(dists)} tail sites, need at least 4")
    dists = np.asarray(dists)
    logs = np.asarray(logs)
    design = np.vstack([dists, np.ones_like(dists)]).T
    (slope, _), *_ = np.linalg.lstsq(design, logs, rcond=None)
    if slope >= 0 or -1.0 / slope > XI_CAP_SITES:
        raise FitDomainError(
            f"profile does not decay on the window (slope {slope:.3e})"
        )
    return -1.0 / slope
