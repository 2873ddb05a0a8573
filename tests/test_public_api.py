"""The package's public surface, pinned by name.

`pushpull` re-exports the `__all__` of `core`, `inference`, `metrics`,
`scenarios` and `solver`; this list is the union, sorted, plus
`__version__`. A change that adds or removes a public name updates this
list and the README together.
"""

import pushpull as pp

PUBLIC = [
    "AgencyMetrics", "Allocation", "BRUTE_FORCE_LIMIT", "Catalog", "DP_SUBSET_LIMIT",
    "DiscountCurve", "Frontier", "GroupGap", "GroupSummary", "Instance", "KINDS",
    "MetricStats", "NoisePoint", "PRESETS", "PROB_TOL", "Partition", "PopulationSummary",
    "PosteriorModel", "RefineComparison", "RefinePoint", "STRATEGIES", "ScenarioSpec",
    "SignalChannel", "SolveRequest", "SolveResult", "SolverContractError", "TIE_TOL",
    "TypeSpace", "UtilityTable", "ValidationError", "__version__", "agency_metrics",
    "aggregate", "allocation_value", "brute_force_oracle", "build_allocation",
    "combined_scores", "critical_lambda", "expected_scores", "frontier", "garble",
    "generate", "is_refinement", "lambda_grid", "make_discount", "noise_sweep",
    "posterior", "prior_posterior", "refine_compare", "refine_partition",
    "signal_marginal", "singletonize", "solve", "solve_grid",
]


def test_all_lists_each_public_name_once():
    assert len(pp.__all__) == len(set(pp.__all__))
    assert sorted(pp.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in PUBLIC if not hasattr(pp, name)]
    assert not missing


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from pushpull import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC


def test_strategy_names_and_their_order():
    assert pp.STRATEGIES == ("auto", "sort", "subset_dp", "geometric_index", "local_search", "brute_force")
