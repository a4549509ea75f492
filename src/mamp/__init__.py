"""Multi-agent motion planning on lattices: conflict-based search with
experience reuse, a grid and a planar-arm domain, and a benchmark CLI."""

from .core import (Config, Conflict, Constraint, ConstraintIndex, Path,
                   Solution, conflict_to_constraints, detect_conflicts,
                   path_cost, violates)
from .domains import (ArmDomain, ArmSpec, Disc, GridDomain, Segment,
                      forward_kinematics, get_successors)
from .lowlevel import (FocalQueue, LLParams, LowLevelResult,
                       push_partial_experience, solve, suffix,
                       try_insert_or_update)
from .highlevel import (CTNode, CTQueue, OracleGuardError, PlanResult,
                        PlannerConfig, certify, expand_ct_node, plan,
                        plan_coupled_oracle, plan_prioritized, run_planner)
from .postprocess import ShortcutReport, shortcut_solution
from .scene import Scene, SceneError, parse_scene, serialize_scene
from .bench import (ExperimentSpec, MetricsRow, default_paper_params,
                    generate_scene, revalidate_dump, run_experiments)

__version__ = "0.1.0"

__all__ = [
    "ArmDomain", "ArmSpec", "CTNode", "CTQueue", "Config", "Conflict",
    "Constraint", "ConstraintIndex", "Disc", "ExperimentSpec", "FocalQueue",
    "GridDomain", "LLParams", "LowLevelResult", "MetricsRow",
    "OracleGuardError", "Path", "PlanResult", "PlannerConfig", "Scene",
    "SceneError", "ShortcutReport", "Solution", "certify",
    "conflict_to_constraints", "default_paper_params", "detect_conflicts",
    "expand_ct_node", "forward_kinematics", "generate_scene",
    "get_successors", "parse_scene", "path_cost", "plan",
    "plan_coupled_oracle", "plan_prioritized", "push_partial_experience",
    "revalidate_dump", "run_experiments", "run_planner",
    "serialize_scene", "shortcut_solution", "solve", "suffix",
    "try_insert_or_update", "violates",
]
