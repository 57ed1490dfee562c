"""Online contention resolution schemes with verification harness.

Subpackages follow the pipeline: `core` (seeded streams and the trial
decoder), `matroids` (oracles), `schemes` (the OCRS constructions),
`harness` (statistical verification), `optimize` (relaxation solvers),
`applications` (prophet and probing pipelines), `submodular` (multilinear
machinery), and `cli` (the batch runner).
"""

from .core import FractionalPoint, SeedSpec, scale_point, trial_columns
from .matroids import (ExplicitMatroid, GraphicMatroid, LaminarMatroid,
                       Matroid, MatroidPolytope, MatroidView,
                       PartitionMatroid, UniformMatroid,
                       check_matroid_axioms, in_scaled_matroid_polytope,
                       matroid_from_json, max_weight_independent,
                       random_point_in_polytope)
from .schemes import (ChainDecomposition, FeasibleFamily, Graph,
                      GreedyOcrsFactory, IntersectionFactory, KnapsackFactory,
                      MatchingFactory, MatroidChainFactory, combine_families,
                      factory_from_json, graph_from_json,
                      matroid_chain_decompose, run_greedy_mask)
from .harness import (AdversarySearchResult, MeanEstimate,
                      SelectabilityReport, brute_force_selectability,
                      estimate_selectability,
                      knapsack_deterministic_impossibility, worst_order_value)
from .optimize import (DiscreteDistribution, KnapsackConstraint,
                       LinearProgram, adaptive_probing_optimum,
                       distribution_from_json, simplex_solve,
                       solve_probing_lp, solve_prophet_relaxation, tail_value,
                       threshold)
from .applications import (ProbingInstance, ProphetInstance, RatioReport,
                           brute_force_prophet_opt, deadline_matroid,
                           estimate_competitive_ratio, prepare_probing,
                           prepare_prophet, probe, probing_mean_value,
                           probing_trial_states, prophet_almighty_value,
                           prophet_thresholds, prophet_trial_states,
                           prophet_worst_order)
from .submodular import (SubmodularOracle, continuous_greedy,
                         coverage_function, directed_cut, half_subsample_value,
                         multilinear_exact, ocrs_submodular_value,
                         run_submodular_probing, submodular_from_json,
                         weighted_matroid_rank)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
