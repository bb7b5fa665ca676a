"""Simulation and verification toolkit for exchangeable-increment
excursions, weight-proportional random trees, and their continuum limits."""

from . import errors
from .icrt import EdgeTree, edge_tree_stats, line_breaking_tree, sample_function_tree, spanning_subtree
from .paths import (
    CadlagPath,
    Theta,
    build_ei_bridge,
    continuous_path,
    first_passage_below,
    sample_brownian_bridge,
    sup_distance,
    theta_from_atoms,
    validate_theta,
    vervaat_transform,
)
from .ptree import (
    PSeq,
    RootedTree,
    approximating_pseq,
    breadth_tree,
    classical_exploration,
    corrected_excursion,
    depth_tree,
    exploration_gap,
    exploration_height,
    generation_error,
    generation_weights,
    particle_bridge,
    particle_excursion,
    pending_mass_error,
    ptree_probability,
    regime_diagnostics,
    repeat_time_sample,
    uniform_pseq,
    width_profile,
)
from .reflect import (
    JumpInterval,
    infimum_range_measure,
    jump_intervals,
    reflect_component,
    reflected_excursion,
    sample_excursion,
    sample_reflected,
    truncated_coupling,
)
from .rng import RngState
from .stats import (
    TestReport,
    chi_square_gof,
    ks_two_sample,
    lamperti_time,
    occupation_density,
    time_changed_width,
)
from .verify import jeulin_check

__version__ = "0.1.0"
