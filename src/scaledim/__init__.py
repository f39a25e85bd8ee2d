"""Exact dimension-at-scale computations on finite metric spaces."""

from .construction import (ConditionLevel, ConditionsReport, Profile,
                           ProfileSample, SmallCircleWarning, WeightSchedule,
                           check_conditions, group_truncation,
                           l1_axis_subsets, profile, profile_csv,
                           schedule_csv, truncation_factors,
                           wedge_arm_subsets, wedge_truncation,
                           weight_schedule)
from .covers import (Certificate, ScaledCover, ValidationReport, Violation,
                     format_certificate, parse_certificate, read_certificate,
                     shrink_to_partition, validate_cover, write_certificate)
from .solver import (DEFAULT_NODE_BUDGET, FEASIBLE, INFEASIBLE, UNKNOWN,
                     ComponentPartition, DimResult, ExhaustionEvidence,
                     OracleReport, SearchOutcome, dim_at_scale,
                     dim_at_scale_bruteforce, dim_le, lambda_components,
                     lift_product_cover, oracle_check)
from .spaces import (FiniteMetricSpace, MetricError, ScalePair, check_metric,
                     cyclic_group, from_matrix, interval, l1_blocks,
                     l1_sum, random_metric_space, read_matrix_file, relabel,
                     scale, subspace, wedge, wedge_points)
from .spacespec import (SpaceSpec, SpecParseError, build_space,
                        build_with_witnesses, format_spec, parse_spec)

__all__ = [name for name in dir() if not name.startswith("_")]
