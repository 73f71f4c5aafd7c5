"""Reduced drift and diffusion for a pulsed oscillator coupled to a bosonic bath.

The package propagates the full linear phase-space dynamics of one
frequency-modulated oscillator bilinearly coupled, through a shared pulse
profile, to a finite bath of harmonic modes; extracts the exact local drift,
damping and diffusion of the reduced Gaussian state; compares them with
short-time closed forms (equal damping rates from a single coupling factor,
structured diffusion for excitation-exchange couplings, the minimal
commutator-preserving noise set); and exercises a phenomenological damped
oscillator model with an asymmetric damping split against those results.
"""

from .errors import (
    ConfigError,
    IntegrationError,
    ProfileDomainError,
    UnsupportedFormError,
)
from .profiles import (
    Affine,
    Constant,
    ExpPulse,
    GaussianPulse,
    PiecewiseLinear,
    PulseTrain,
    TimeProfile,
    lambda_factor,
    profile_from_dict,
    profile_to_dict,
)
from .system import (
    BathSpec,
    SystemSpec,
    GeneratorBlocks,
    assemble_generator,
    bath_from_rwa,
    build_A11,
    build_A12,
    build_A21,
    build_A22,
    coupling_layout_12,
    coupling_layout_21,
    generator_blocks,
    hamiltonian_hessian,
    random_couplings,
    rwa_couplings,
    symplectic_unit,
    thermal_F,
    thermal_f_values,
    uniform_bath_frequencies,
)
from .propagate import (
    PropagatorState,
    PropagatorTrajectory,
    default_time_step,
    expm_bath,
    free_central_R11,
    integrate_R,
    symplectic_defect,
)
from .reduced import (
    CentralGaussian,
    ReducedDynamics,
    damping_rate,
    diffusion_exact,
    drift_exact,
    evolve_gaussian,
    extract_reduced,
    noise_matrix,
    photon_number,
    reduced_covariance,
)
from .perturb import (
    D_closed_form,
    MuMatrix,
    NoiseSet,
    R12_first_order,
    R21_first_order,
    coupling_profiles,
    diffusion_first_order,
    drift_first_order,
    min_noise_set,
    mu_elements,
    mu_single_factor,
    thermal_G,
)
from .langevin import (
    EpsilonSolution,
    LangevinModel,
    MomentTrajectory,
    SampledMoments,
    diffusion_matrix,
    drift_matrix,
    effective_frequency_squared,
    effective_frequency_terms,
    epsilon_solver,
    evolve_moments,
    evolve_moments_tabulated,
    sample_trajectories,
    stationary_covariance,
)
from .scenarios import (
    SCENARIOS,
    ScenarioReport,
    Verdict,
    config_digest,
    run_closure,
    run_mir_pulse_train,
    run_rwa_check,
    run_scenarios,
    run_short_time_convergence,
)

__version__ = "0.1.0"
