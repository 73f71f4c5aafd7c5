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

from .errors import ConfigError, IntegrationError, ProfileDomainError
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
    bath_from_rwa,
    build_A22,
    coupling_layout_12,
    coupling_layout_21,
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
)
from .reduced import (
    CentralGaussian,
    MomentTrajectory,
    ReducedDynamics,
    damping_rate,
    evolve_gaussian,
    extract_reduced,
    noise_matrix,
    photon_number,
)
from .perturb import (
    D_closed_form,
    MuMatrix,
    NoiseSet,
    coupling_profiles,
    min_noise_set,
    mu_elements,
    mu_single_factor,
    thermal_G,
)
from .langevin import (
    EpsilonSolution,
    LangevinModel,
    diffusion_matrix,
    drift_matrix,
    effective_frequency_terms,
    epsilon_solver,
    evolve_moments,
    evolve_moments_tabulated,
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
    run_short_time_convergence,
)

__version__ = "0.1.0"
