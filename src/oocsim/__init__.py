"""Distributed optimal output consensus over weight-unbalanced digraphs.

Two-layer architecture: an optimal coordinator generates per-agent reference
signals converging to the minimizer of the aggregate cost, while a
decentralized adaptive tracker with an internal model drives each uncertain
second-order plant onto its reference despite persistent disturbances.
"""

from .coordinator import CoordinatorGains, coordinator_linear, coordinator_only_run, select_gains
from .costs import (CostFunction, composite, convexity_bounds, exp_sum,
                    global_optimum, quadratic)
from .digraph import Digraph, SpectralData, is_strongly_connected, laplacian, spectral_data
from .errors import (BracketNotFound, DegenerateRoots, Diverged, GradientNotVectorized,
                     InvalidSpectrum, NonConvexDetected, NotHurwitz, NotStronglyConnected,
                     OocError, SchemaError, SingularSystem, SingularT, Unsupported,
                     XiUnderflow)
from .plant import (Exosystem, Plant, damping_spring, feedforward_truth, plant_linear,
                    plant_remainder, rotation_exosystem, vdp_like)
from .scenario import parse_scenario
from .sim import (InitPolicy, Scenario, Trajectory, VerificationReport, ablate_compare,
                  assemble, metrics, run, sweep, verify)
from .tracker import (FeedforwardTruth, InternalModelSpec, StackedInternalModel,
                      TrackerParams, companion_pair, phi_gamma, psi_true, solve_sylvester,
                      tracker_linear)

__version__ = "0.1.0"
