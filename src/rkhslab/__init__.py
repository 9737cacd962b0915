"""Sampling recovery and discretization experiments for spectral kernels."""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateDensityError, DomainError,
                     RankDeficientError, RkhsLabError, TruncationError)
from .kernels import (CosineBasis, ExplicitEigenvalues, FourierBasis,
                      GeometricDecay, PolynomialDecay, SobolevDecay,
                      SpectralKernelModel, get_basis)
from .densities import (NodeSet, NormalizedKernelView, SamplingDensity,
                        draw_nodes, nodes_from_points, spectral_budget,
                        trial_rng)
from .leastsq import (DesignSystem, assemble_design, dump_design,
                      gram_eig_check, recover)
from .worstcase import (BOUND_NAMES, FAIL_MULT, bound, choose_m,
                        exact_wce_discretization, exact_wce_recovery,
                        max_m_under, mc_sup_quadratic, mc_sup_singular,
                        model_bound_inputs, power_iteration_norm,
                        recovery_error_matrix, wce_nullspace_component)
from .concentration import (KAPPA, KAPPA_SQ, WILSON_Z, KernelVectorFamily,
                            SphereVectorFamily, TailExperiment,
                            TwoPointVectorFamily, chernoff_c, chernoff_d,
                            default_t_grid, deviation_threshold, fail_prob,
                            deviation_trial, eig_tail_envelopes,
                            tail_envelope, wilson_interval)
from .experiment import (ExperimentConfig, ExperimentReport, build_config,
                         build_model, parse_config, resolve_m, run)

__all__ = [name for name in dir() if not name.startswith("_")]
