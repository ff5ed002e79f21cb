"""Relative reparameterization of singular statistical models.

Gaussian-mixture densities and dynamics, the constrained relative-ECM
algorithm, Fisher-information covariance checks, and singularity detection
for toy feed-forward networks, plus a CLI experiment runner.
"""

__version__ = "0.1.0"

from .gmm import (Dataset, MixtureParams, density, log_density, log_likelihood,
                  make_rng, mixture_moments, sample, score)
from .reparam import (RelativeParams, ReparamSpec, SingularityReport,
                      SingularPointError, classify_singularities, jacobian,
                      to_absolute, to_relative)
from .dynamics import (FlowField, Trajectory, TrueModel, UVWState,
                       base_partials, expected_velocity_original,
                       expected_velocity_relative, flow_field, integrate_gd)
from .ecm import (ECMConfig, FitResult, Responsibilities, cm_step_delta,
                  cm_step_reference_mean, e_step, fit_ecm_relative,
                  fit_em_standard, m_step_standard, q_function)
from .fim import (ExpFamilySpec, FisherMatrix, SingularFimError,
                  bernoulli_family, crouzeix_check, fim_estimate,
                  gaussian_natural_family, length_element, transform_fim)
from .nn import (MLPParams, NNSingularityReport, decode_rows,
                 detect_singularities, forward, reparameterize_rows)
