"""Online obstacle-surface estimation from contact, constraint-aware
dataset refinement, and sampling-based MPC in planar worlds."""

from .gp import KernelParams, PosteriorStats, SolverError, fit_hyperparams, \
    gp_posterior, log_marginal_likelihood, matern32
from .gpis import Gpis, GridSpec, OccupancyGrid, inv_norm_cdf, lcb, norm_cdf
from .contact import DatasetPair, LabelBatch, gen_labels, local_minimum, \
    pre_process
from .constraints import NoPenetration, PathExists, all_satisfied, \
    connected_components, no_penetration, path_exists
from .refine import RefinementProblem, compute_weights, phi, refine_contacts, \
    run_cmawm
from .mppi import CostWeights, Goal, MppiConfig, mppi_step, select_component
from .envs import Box, CableEnv, PegEnv, Scene, WorldGeometry, make_scene, \
    parse_scene
from .harness import EpisodeConfig, EpisodeReport, run_batch, run_episode

__version__ = "0.1.0"
