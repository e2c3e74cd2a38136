"""Multiscale diffeomorphic landmark registration.

Kernels over scale x space (closed forms, a Fourier-domain solver, and a
fitted positive basis), landmark flow integration with adjoint-gradient
registration, and grid exports of deformations, inter-scale residuals, and
log-Jacobian fields.
"""

from .config import ExperimentConfig
from .flow import (
    DeformationField,
    FlowTrajectory,
    LandmarkSystem,
    integrate_forward,
    inverse_map,
    log_jacobian,
    residual_maps,
    transport_grid,
)
from .kernel_fit import HankelBasis, KernelTable, certify_pairwise_positivity, fit_kernel_table
from .ladder import DiracMeasure, LebesgueMeasure, ScaleLadder
from .registration import Objective, optimize
from .scale_kernels import (
    DiracPiecewiseKernel,
    GaussianScaleFamily,
    IntegratedDiracKernel,
    dirac_kernel,
    gauss_scale_integral,
    integrated_dirac_kernel,
    piecewise_scale_integral,
    sum_dirac_kernel_hat,
)
from .spectral import (
    SpectralGrid,
    SpectralKernelEvaluator,
    SpectralTable,
    chi_gaussian,
    compute_spectral_table,
)

__version__ = "0.1.0"
