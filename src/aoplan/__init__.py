"""Sampling-based motion planning with asymptotic-optimality guarantees.

Kinematic roadmap/tree planners with the shrinking connection-radius rules,
steering-free kinodynamic planners, a minimal multi-robot tensor-roadmap
search, brute-force oracles, and a reproducible benchmark harness.
"""

from .bench import (
    ReportRow,
    ResultRow,
    RunSpec,
    convergence_report,
    derive_seed,
    rows_from_csv,
    rows_to_csv,
    run_benchmark,
    run_planner,
    summary_to_csv,
)
from .errors import (
    AuditError,
    PlanningError,
    SaturationError,
    ScenarioParseError,
    ScenarioValidationError,
    UsageError,
)
from .geometric import (
    PlanResult,
    RadiusRule,
    Roadmap,
    SearchTree,
    connection_radius,
    default_rule,
    k_connection,
    prm_star,
    rgg_connectivity_radius,
    rrt,
    rrt_star,
    shortest_path,
    steer,
    unit_ball_volume,
)
from .geometry import (
    BallObstacle,
    Box,
    BoxObstacle,
    CollisionChecker,
    GoalRegion,
    Path,
    RobotSpec,
    Scenario,
    clearance_of_points,
    edge_valid,
    load_scenario,
    load_scenario_file,
    make_path,
    path_clearance,
    path_cost,
    points_valid,
    refine_path,
    scenario_from_dict,
    segments_valid,
)
from .kinodynamic import (
    DynamicalSystem,
    Trajectory,
    ao_meta,
    ao_rrt_plan,
    cost_bounded_rrt,
    kinematic_car,
    monte_carlo_propagate,
    single_integrator_2d,
    sst_plan,
)
from .multirobot import (
    CompositeConfig,
    CompositePath,
    build_per_robot_roadmaps,
    composite_edge_valid,
    drrt_star,
)
from .nn import NeighborIndex, knn_lists, radius_pairs
from .oracles import optimal_cost_2d_boxes, tiling_cover_check
from .sampling import (
    DispersionReport,
    HaltonStream,
    UniformStream,
    make_stream,
    measure_dispersion,
    radical_inverse,
    sample_free,
    samples_free,
)

__version__ = "0.1.0"
