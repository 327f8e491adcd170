"""Distributed optimal output consensus over weight-unbalanced digraphs.

Two-layer architecture: an optimal coordinator generates per-agent reference
signals converging to the minimizer of the aggregate cost, while a
decentralized adaptive tracker with an internal model drives each uncertain
second-order plant onto its reference despite persistent disturbances.
"""

from .coordinator import (CoordinatorGains, coordinator_only_run, coordinator_rhs,
                          select_gains)
from .costs import (CostFunction, composite, convexity_bounds, exp_sum,
                    global_optimum, quadratic)
from .digraph import (Digraph, SpectralData, is_strongly_connected, laplacian,
                      lambda2, left_eigenvector, spectral_data)
from .errors import (BracketNotFound, DegenerateRoots, Diverged, InvalidSpectrum,
                     NonConvexDetected, NotHurwitz, NotStronglyConnected, OocError,
                     SchemaError, SingularSystem, SingularT, Unsupported, XiUnderflow)
from .integrate import rk4_step
from .plant import (Exosystem, Plant, damping_spring, feedforward_truth, plant_drift,
                    rotation_exosystem, vdp_like)
from .scenario import parse_scenario
from .sim import (InitPolicy, Scenario, Trajectory, VerificationReport, ablate_compare,
                  assemble, metrics, run, sweep, verify)
from .tracker import (FeedforwardTruth, InternalModelSpec, StackedInternalModel,
                      TrackerParams, companion_pair, phi_gamma, psi_true, solve_sylvester,
                      tracker_rhs)

__version__ = "0.1.0"
