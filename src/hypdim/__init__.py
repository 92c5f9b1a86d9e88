"""Pressure, expansion rates and dimension bounds for affine hyperbolic models."""

__version__ = "0.1.0"

from .models import (
    AffineBranch,
    AmbientSpace,
    ModelSystem,
    Potential,
    build_cantor_repeller,
    build_cat_map,
    build_doubling_map,
    build_golden_mean,
    build_linear_horseshoe,
    evaluate,
    jacobian,
    potential,
)
from .symbolic import (
    MarkovMeasureStats,
    SeparatedSet,
    admissible_words,
    birkhoff_sum,
    cylinders,
    equilibrium_markov_chain,
    is_primitive,
    markov_measure_stats,
    partition_sum,
    power_model,
    pressure_spectral,
    separated_set,
)
from .pressure import (
    BowenBallSpec,
    PressureEstimate,
    ProductCloud,
    VolumeCurve,
    bowen_ball_contains,
    default_epsilon,
    distance_to_repeller,
    neighborhood_volume,
    pressure_from_partition_sums,
    pressure_from_volume_growth,
    sample_local_stable_set,
    spectral_estimate,
    volume_curve,
)
from .dimension import (
    BoundReport,
    DimensionEstimate,
    ExpansionRate,
    bound_report,
    box_count,
    box_dimension,
    classify,
    contraction_rho_schedule,
    dimension_bound,
    expansion_rate,
    horseshoe_for_target_dimension,
    invariant_set_sample,
    measure_box_dimension,
    minkowski_content_curve,
    srb_equivalence_report,
)
