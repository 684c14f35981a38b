"""Device parameters, the readout confusion map and the on-site potential.

Unit conventions used throughout the package:

* coupling strengths and potential offsets are entered as ordinary
  frequencies nu = omega / 2pi in MHz,
* internally every Hamiltonian matrix element is an angular frequency in
  rad/ns, obtained as  omega = 2pi * 1e-3 * nu,
* times are in ns, relaxation times T1 and T2* are entered in us.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# nu [MHz] -> omega [rad/ns]
ANGULAR_PER_MHZ = 2.0 * np.pi * 1e-3
NS_PER_US = 1000.0


def _as_float_array(x, n, name):
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.ndim != 1 or a.size != n:
        raise DomainError(f"{name} must be a length-{n} sequence, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class DeviceParams:
    """Static parameters of a linear chain of n_qubits transmons.

    coupling_mhz
        nearest-neighbour exchange couplings g_{j,j+1}/2pi, length n-1.
    anharmonicity_mhz
        on-site anharmonicities U_j/2pi, length n (negative for transmons).
    t1_us, t2star_us
        per-qubit relaxation and dephasing times, length n.
    readout_f0, readout_f1
        per-qubit assignment fidelities P(read 0|prepared 0) and
        P(read 1|prepared 1), length n.
    """

    n_qubits: int
    coupling_mhz: np.ndarray
    anharmonicity_mhz: np.ndarray
    t1_us: np.ndarray
    t2star_us: np.ndarray
    readout_f0: np.ndarray
    readout_f1: np.ndarray

    def __post_init__(self):
        n = self.n_qubits
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise DomainError(f"n_qubits must be an integer >= 2, got {n!r}")
        object.__setattr__(self, "n_qubits", int(n))
        object.__setattr__(self, "coupling_mhz",
                           _as_float_array(self.coupling_mhz, n - 1, "coupling_mhz"))
        for name in ("anharmonicity_mhz", "t1_us", "t2star_us",
                     "readout_f0", "readout_f1"):
            object.__setattr__(self, name, _as_float_array(getattr(self, name), n, name))
        if np.any(self.t1_us <= 0) or np.any(self.t2star_us <= 0):
            raise DomainError("t1_us and t2star_us must be positive")
        for name in ("readout_f0", "readout_f1"):
            a = getattr(self, name)
            if np.any(a < 0) or np.any(a > 1):
                raise DomainError(f"{name} entries must lie in [0, 1]")

    # angular-frequency views used by Hamiltonian builders
    @property
    def coupling_rad_ns(self):
        return self.coupling_mhz * ANGULAR_PER_MHZ

    @property
    def anharmonicity_rad_ns(self):
        return self.anharmonicity_mhz * ANGULAR_PER_MHZ

    @property
    def t1_ns(self):
        return self.t1_us * NS_PER_US

    @property
    def t2star_ns(self):
        return self.t2star_us * NS_PER_US

    def replace(self, **kwargs):
        """Copy with some fields overridden."""
        unknown = set(kwargs) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise DomainError(f"unknown DeviceParams fields: {sorted(unknown)}")
        return dataclasses.replace(self, **kwargs)

    @classmethod
    def uniform(cls, n_qubits, coupling_mhz=14.4, anharmonicity_mhz=-200.0,
                t1_us=1e6, t2star_us=1e6, readout_f0=1.0, readout_f1=1.0):
        """Synthetic uniform chain, mainly for scaling studies."""
        n = int(n_qubits)
        return cls(
            n_qubits=n,
            coupling_mhz=np.full(n - 1, float(coupling_mhz)),
            anharmonicity_mhz=np.full(n, float(anharmonicity_mhz)),
            t1_us=np.full(n, float(t1_us)),
            t2star_us=np.full(n, float(t2star_us)),
            readout_f0=np.full(n, float(readout_f0)),
            readout_f1=np.full(n, float(readout_f1)),
        )


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


def paper_device():
    """Characterized values of the bundled five-qubit chain preset."""
    return DeviceParams(
        n_qubits=5,
        coupling_mhz=[14.60, 14.65, 14.17, 14.26],
        anharmonicity_mhz=[-242.0, -196.0, -239.0, -196.0, -242.0],
        t1_us=[17.0, 30.0, 42.0, 17.0, 36.0],
        t2star_us=[1.53, 4.39, 2.20, 2.19, 2.25],
        readout_f0=[0.981, 0.957, 0.957, 0.923, 0.971],
        readout_f1=[0.853, 0.897, 0.891, 0.859, 0.917],
    )


DEVICE_PRESETS = {"paper-device": paper_device}


def device_preset(name):
    try:
        return DEVICE_PRESETS[name]()
    except KeyError:
        raise DomainError(
            f"unknown device preset {name!r}; available: {sorted(DEVICE_PRESETS)}"
        ) from None


@dataclass(frozen=True)
class PotentialSpec:
    """Linear on-site potential h_j = F * j + shift, 1-based site index.

    Only differences of the h_j enter the dynamics; shift_mhz is a gauge
    freedom that multiplies every amplitude by a global phase within a fixed
    excitation sector and leaves all densities unchanged.
    """

    gradient_mhz: float
    shift_mhz: float = 0.0

    def __post_init__(self):
        for name in ("gradient_mhz", "shift_mhz"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise DomainError(f"{name} must be finite")
            object.__setattr__(self, name, float(v))

    @classmethod
    def linear(cls, gradient_mhz):
        return cls(gradient_mhz=gradient_mhz)

    def offsets_mhz(self, n_sites):
        j = np.arange(1, n_sites + 1, dtype=float)
        return self.gradient_mhz * j + self.shift_mhz

    def offsets_rad_ns(self, n_sites):
        return self.offsets_mhz(n_sites) * ANGULAR_PER_MHZ

    @property
    def bloch_period_ns(self):
        """T_B = 1/|F| for the ordinary-frequency gradient F (66.7 ns at 15 MHz).

        The period does not depend on which way the ramp points, so a signed
        gradient is accepted; only F = 0 is undefined.
        """
        if self.gradient_mhz == 0:
            raise DomainError("Bloch period requires a nonzero gradient")
        return 1e3 / abs(self.gradient_mhz)  # 1 / (|F|[MHz] * 1e-3 /ns)
