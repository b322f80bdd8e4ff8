"""Bidirectional personalized PageRank and graph-diffusion estimation on
undirected graphs: forward local push from the source combined with reverse
random walks from the target, with work budgets and accuracy guarantees."""

from .estimator import (BipprParams, PprEstimate, PreparedSource, chernoff_c,
                        choose_r_max, estimate_ppr, num_walks,
                        significance_delta)
from .exact import (exact_diffusion, exact_mstp, exact_ppr, exact_ppr_from,
                    exact_ppr_matrix)
from .graph import EdgeListParseError, Graph, load_edge_list
from .mc import mc_estimate, mc_num_walks
from .mstp import (DiffusionEstimate, DiffusionWeights, MstpState,
                   approximate_mstp, bidir_mstp, choose_ell_max,
                   estimate_diffusion, heat_kernel_weights, pagerank_weights)
from .push import PushResult, approximate_pagerank
from .walk import RandomStream, fixed_walk_positions, geometric_terminals

__all__ = [
    "Graph", "EdgeListParseError", "load_edge_list",
    "RandomStream", "geometric_terminals", "fixed_walk_positions",
    "exact_ppr", "exact_ppr_from", "exact_ppr_matrix", "exact_mstp",
    "exact_diffusion",
    "PushResult", "approximate_pagerank",
    "BipprParams", "PprEstimate", "PreparedSource", "chernoff_c",
    "choose_r_max", "num_walks", "significance_delta", "estimate_ppr",
    "mc_estimate", "mc_num_walks",
    "MstpState", "DiffusionWeights", "DiffusionEstimate", "approximate_mstp",
    "bidir_mstp", "pagerank_weights", "heat_kernel_weights", "choose_ell_max",
    "estimate_diffusion",
]

__version__ = "0.1.0"
