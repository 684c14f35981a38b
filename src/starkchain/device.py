"""Device parameters, the readout confusion map and the on-site potential,
and the number, count and time rules the other modules share.

Unit conventions used throughout the package:

* coupling strengths and potential offsets are entered as ordinary
  frequencies nu = omega / 2pi in MHz,
* internally every Hamiltonian matrix element is an angular frequency in
  rad/ns, obtained as  omega = 2pi * 1e-3 * nu,
* times are in ns, relaxation times T1 and T2* are entered in us.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass

from .errors import DomainError

# nu [MHz] -> omega [rad/ns]
ANGULAR_PER_MHZ = 2.0 * math.pi * 1e-3
NS_PER_US = 1000.0

# (test, text) rules a value keeps beyond being finite
_POSITIVE = (lambda v: v > 0, "must be positive")
_FIDELITY = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")


def _real(value, name, rule=None, error=DomainError):
    """value as a float: the one number rule for device and config values.
    bool, str and other non-real values are refused, and so are values past
    the float range and non-finite ones, each as an error naming the field."""
    # float and int first: they skip the slower numbers.Real check
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise error(f"{name}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int beyond the float range
        v = math.inf if value > 0 else -math.inf
    if not math.isfinite(v):
        raise error(f"{name}: must be finite, got {v}")
    if rule is not None and not rule[0](v):
        raise error(f"{name}: {rule[1]}, got {v}")
    return v


def _integer(value, name, error=DomainError):
    """value as an int: the one count rule beside _real. bool and anything
    that is not a numbers.Integral are refused, as an error naming the
    field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _checked_times(times):
    """Requested times as a 1-d float array; DomainError unless they form a
    scalar or a 1-d sequence and every one is finite and non-negative: the
    time rule of every solver."""
    np = _np()
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim > 1:
        raise DomainError(f"times must be a scalar or 1-d, got shape {times.shape}")
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise DomainError("times must be finite and non-negative")
    return times


# each per-qubit field of DeviceParams and the rule its values keep
_FIELD_RULES = {"coupling_mhz": None, "anharmonicity_mhz": None,
                "t1_us": _POSITIVE, "t2star_us": _POSITIVE}


def _qubit_count(n):
    """n as a chain's qubit count: an integer >= 2, or DomainError."""
    if not isinstance(n, numbers.Integral) or n < 2:
        raise DomainError(f"n_qubits must be an integer >= 2, got {n!r}")
    return int(n)


def _np():
    import numpy  # loaded by the first call that returns an array

    return numpy


@dataclass(frozen=True)
class DeviceParams:
    """Static parameters of a linear chain of n_qubits transmons.

    coupling_mhz
        nearest-neighbour exchange couplings g_{j,j+1}/2pi, length n-1.
    anharmonicity_mhz
        on-site anharmonicities U_j/2pi, length n (negative for transmons);
        no solver reads them, as the XY chain is the chain's hard-core limit.
    t1_us, t2star_us
        per-qubit relaxation and dephasing times, length n.

    Each is given as a list, tuple or 1-d array and kept as a tuple of
    floats, checked once, so a device compares with == and hashes; the
    *_rad_ns and *_ns views are numpy arrays.
    """

    n_qubits: int
    coupling_mhz: tuple
    anharmonicity_mhz: tuple
    t1_us: tuple
    t2star_us: tuple

    def __post_init__(self):
        n = _qubit_count(self.n_qubits)
        object.__setattr__(self, "n_qubits", n)
        for name, rule in _FIELD_RULES.items():
            size = n - 1 if name == "coupling_mhz" else n
            values = getattr(self, name)
            items = values.tolist() if hasattr(values, "tolist") else values
            if not isinstance(items, (list, tuple)) or len(items) != size:
                raise DomainError(f"{name}: expected a list of {size} numbers, "
                                  f"got {values!r}")
            object.__setattr__(self, name, tuple(
                _real(v, f"{name}[{i}]", rule) for i, v in enumerate(items)))

    # angular-frequency views used by Hamiltonian builders
    @property
    def coupling_rad_ns(self):
        return _np().array(self.coupling_mhz) * ANGULAR_PER_MHZ

    @property
    def t1_ns(self):
        return _np().array(self.t1_us) * NS_PER_US

    @property
    def t2star_ns(self):
        return _np().array(self.t2star_us) * NS_PER_US

    def replace(self, **kwargs):
        """Copy with some fields overridden."""
        unknown = set(kwargs) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise DomainError(f"unknown DeviceParams fields: {sorted(unknown)}")
        return dataclasses.replace(self, **kwargs)

    @classmethod
    def uniform(cls, n_qubits, coupling_mhz=14.4, anharmonicity_mhz=-200.0,
                t1_us=1e6, t2star_us=1e6):
        """Synthetic uniform chain, mainly for scaling studies."""
        n = _qubit_count(n_qubits)
        return cls(n, (coupling_mhz,) * (n - 1), *((v,) * n for v in (
            anharmonicity_mhz, t1_us, t2star_us)))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic 2x2 readout map [[F0, 1-F1], [1-F0, F1]]."""

    f0: float
    f1: float

    def __post_init__(self):
        for name in ("f0", "f1"):
            object.__setattr__(self, name, _real(getattr(self, name), name, _FIDELITY))

    @property
    def matrix(self):
        return _np().array([[self.f0, 1.0 - self.f1], [1.0 - self.f0, self.f1]])

    @property
    def is_singular(self):
        # det = F0 + F1 - 1
        return abs(self.f0 + self.f1 - 1.0) < 1e-12

    def inverse(self):
        if self.is_singular:
            raise DomainError("confusion matrix is singular (F0 + F1 = 1), "
                              "cannot invert")
        return _np().linalg.inv(self.matrix)

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
    )


# the paper's Table S1: assignment fidelities (f0, f1) = (P(read 0|prepared
# 0), P(read 1|prepared 1)) of qubits 1..5 of the five-qubit chain, the set
# `readout: table-s1` reads
TABLE_S1 = ((0.981, 0.853), (0.957, 0.897), (0.957, 0.891), (0.923, 0.859),
            (0.971, 0.917))


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
    """Linear on-site potential h_j = F * j, 1-based site index."""

    gradient_mhz: float

    def __post_init__(self):
        object.__setattr__(self, "gradient_mhz",
                           _real(self.gradient_mhz, "gradient_mhz"))

    @classmethod
    def linear(cls, gradient_mhz):
        return cls(gradient_mhz=gradient_mhz)

    def offsets_mhz(self, n_sites):
        j = _np().arange(1, n_sites + 1, dtype=float)
        return self.gradient_mhz * j

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
