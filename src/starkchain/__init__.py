"""Desk-scale simulator and analysis toolkit for tilted-chain transport.

A five-ish-qubit chain with nearest-neighbor exchange under a linear
potential: the hard-core XY Hamiltonian, unitary and Lindblad dynamics,
transport observables, simulated noisy readout, a free-fermion fast
solver, and the fitting pipeline that turns boundary arrival into a
localization length.

The public names load their submodule on first use (PEP 562), so
``import starkchain`` loads no submodule and ``starkchain.config`` alone
loads only ``device`` and ``errors``, and no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "FitResult", "boundary_peak", "detect_first_wavefront",
        "first_wavefront_peak", "gaussian_fit_wavefront", "linear_fit",
        "moving_average3", "wsl_length_from_boundary",
    ),
    "config": ("ExperimentConfig", "ShotPlan", "load_config", "parse_config"),
    "device": (
        "ANGULAR_PER_MHZ", "ConfusionMatrix", "DeviceParams", "PotentialSpec",
        "device_preset", "paper_device",
    ),
    "dynamics": (
        "CollapseOperatorSet", "QuantumState", "evolve_lindblad",
        "evolve_unitary", "make_collapse_ops", "prepare_initial_state",
    ),
    "errors": (
        "ConfigError", "DomainError", "FitDomainError", "NoWavefrontError",
        "NumericalConsistencyError", "StarkchainError", "StateSpecError",
    ),
    "freefermion": (
        "SingleParticleHamiltonian", "fit_localization_length",
        "propagate_single_particle", "single_particle_matrix",
        "time_averaged_profile", "two_excitation_slater",
    ),
    "measurement": (
        "CountRecord", "group_means", "sample_shots",
    ),
    "model": (
        "OperatorMatrix", "SectorBasis", "build_observable",
        "build_sector_basis", "build_xy_hamiltonian", "full_tag", "sector_tag",
    ),
    "observables": ("expectation", "trajectory"),
}

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
