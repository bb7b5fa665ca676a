"""Simulation and verification toolkit for exchangeable-increment
excursions, weight-proportional random trees, and their continuum limits."""

from . import errors
from .icrt import EdgeTree, line_breaking_tree, sample_function_tree, spanning_subtree
from .paths import (
    CadlagPath,
    Theta,
    build_ei_bridge,
    continuous_path,
    first_passage_below,
    sample_brownian_bridge,
    sup_distance,
    validate_theta,
    vervaat_transform,
)
from .ptree import (
    PSeq,
    Relocation,
    RootedTree,
    approximating_pseq,
    breadth_tree,
    corrected_excursion,
    depth_tree,
    exploration_gap,
    exploration_height,
    generation_error,
    particle_excursion,
    pending_mass_error,
    ptree_probability,
    relocate,
    repeat_time_sample,
    uniform_pseq,
    width_error,
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
from .stats import TestReport, chi_square_gof, ks_two_sample
from .verify import jeulin_check

__version__ = "0.1.0"
