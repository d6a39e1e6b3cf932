"""Pseudospectral construction and verification of modified scattering
for the one-dimensional cubic Schrodinger equation.

The package builds a solution backward from prescribed final data via a
contraction fixed point, evolves it forward with an interaction-picture
Dormand-Prince 5(4) solver, and quantifies how well the prescribed
long-time profile is realized.
"""

import os

# One OpenBLAS thread, unless the caller chose a number: OpenBLAS reads the
# variable once, when numpy loads, so it is set before any module here
# imports numpy.  The worker pool (campaigns._pool_map) is the package's only
# parallelism; its only BLAS work is fit_decay's small np.polyfit line fits and
# the 64-point oracle's matmul, and verify-forcing's check values are bit for bit
# the same with one and with two BLAS threads.  The idle pool thread would
# otherwise spin for about 0.1 s of CPU in every process while numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .campaigns import CAMPAIGNS, CampaignResult, run_campaign
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .evolve import (
    EvolutionState,
    asymptotic_error,
    dispersive_ratio,
    evolve,
    scattering_deviation,
)
from .fitting import DecayFit, fit_decay
from .fixedpoint import (
    Drive,
    PicardReport,
    ProfileTrajectory,
    TimeGrid,
    apply_phi,
    build_drive,
    picard_iterate,
    xt_distance,
    xt_norm,
)
from .profile import (
    FINAL_DATA_KINDS,
    SolverParams,
    asymptotic_profile,
    make_final_data,
)
from .spectral import (
    FrequencyField,
    NormBundle,
    PhysicalField,
    SpectralGrid,
    forward_transform,
    free_propagate,
    inverse_transform,
    norms,
)
from .trilinear import (
    forcing_identity_residual,
    pulled_back_forcing,
    remainder,
    remainder_oracle,
)

__version__ = "0.1.0"
