"""Desk-scale simulator and analysis toolkit for tilted-chain transport.

A five-ish-qubit chain with nearest-neighbor exchange under a linear
potential: Hamiltonians (hard-core XY and truncated Bose-Hubbard), unitary
and Lindblad dynamics, transport observables, simulated noisy readout, a
free-fermion fast solver, and the fitting pipeline that turns boundary
arrival into a localization length.
"""

from .analysis import (
    FitResult,
    boundary_peak,
    detect_first_wavefront,
    first_wavefront_peak,
    gaussian_fit_wavefront,
    linear_fit,
    moving_average3,
    p5max_scan,
    wsl_length_from_boundary,
)
from .config import (
    ExperimentConfig,
    ShotPlan,
    load_config,
    parse_config,
)
from .device import (
    ANGULAR_PER_MHZ,
    DeviceParams,
    PotentialSpec,
    device_preset,
    paper_device,
)
from .dynamics import (
    CollapseOperatorSet,
    QuantumState,
    embed_in_full,
    evolve_lindblad,
    evolve_unitary,
    make_collapse_ops,
    prepare_initial_state,
)
from .errors import (
    ConfigError,
    DomainError,
    FitDomainError,
    NoWavefrontError,
    NumericalConsistencyError,
    StarkchainError,
    StateSpecError,
)
from .freefermion import (
    SingleParticleHamiltonian,
    fit_localization_length,
    max_density_profile,
    propagate_single_particle,
    single_particle_matrix,
    time_averaged_profile,
    two_excitation_slater,
    wsl_length_analytic,
    wsl_profile_ansatz,
)
from .measurement import (
    ConfusionMatrix,
    CountRecord,
    ShotRecord,
    confusion_from_device,
    group_means,
    grouped_statistics,
    load_shots,
    readout_correct,
    sample_counts,
    sample_shots,
    save_shots,
)
from .model import (
    OperatorMatrix,
    SectorBasis,
    build_bose_hubbard_hamiltonian,
    build_observable,
    build_sector_basis,
    build_xy_hamiltonian,
    full_index,
    full_tag,
    occupations_of_index,
    sector_tag,
)
from .observables import TrajectoryTable, expectation, trajectory

__version__ = "0.1.0"

__all__ = [
    "ANGULAR_PER_MHZ",
    "CollapseOperatorSet",
    "ConfigError",
    "ConfusionMatrix",
    "CountRecord",
    "DeviceParams",
    "DomainError",
    "ExperimentConfig",
    "FitDomainError",
    "FitResult",
    "NoWavefrontError",
    "NumericalConsistencyError",
    "OperatorMatrix",
    "PotentialSpec",
    "QuantumState",
    "SectorBasis",
    "ShotPlan",
    "ShotRecord",
    "SingleParticleHamiltonian",
    "StarkchainError",
    "StateSpecError",
    "TrajectoryTable",
    "boundary_peak",
    "build_bose_hubbard_hamiltonian",
    "build_observable",
    "build_sector_basis",
    "build_xy_hamiltonian",
    "confusion_from_device",
    "detect_first_wavefront",
    "device_preset",
    "embed_in_full",
    "evolve_lindblad",
    "evolve_unitary",
    "expectation",
    "first_wavefront_peak",
    "fit_localization_length",
    "full_index",
    "full_tag",
    "gaussian_fit_wavefront",
    "group_means",
    "grouped_statistics",
    "linear_fit",
    "load_config",
    "load_shots",
    "make_collapse_ops",
    "max_density_profile",
    "moving_average3",
    "occupations_of_index",
    "p5max_scan",
    "paper_device",
    "parse_config",
    "prepare_initial_state",
    "propagate_single_particle",
    "readout_correct",
    "sample_counts",
    "sample_shots",
    "save_shots",
    "sector_tag",
    "single_particle_matrix",
    "time_averaged_profile",
    "trajectory",
    "two_excitation_slater",
    "wsl_length_analytic",
    "wsl_length_from_boundary",
    "wsl_profile_ansatz",
]
