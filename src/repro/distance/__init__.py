"""Distance layer: per-type distance functions and tuple-pair patterns."""

from repro.distance.extra import (
    jaro_similarity,
    jaro_winkler_distance,
    jaro_winkler_function,
    jaro_winkler_similarity,
    relative_difference,
    relative_difference_function,
    token_jaccard_distance,
    token_jaccard_function,
)
from repro.distance.base import (
    DistanceFunction,
    absolute_difference,
    boolean_equality,
    distance_for_type,
    string_edit_distance,
)
from repro.distance.kernels import DonorScanKernels
from repro.distance.levenshtein import (
    levenshtein,
    levenshtein_bounded,
    levenshtein_bounded_many,
    normalized_levenshtein,
)
from repro.distance.pattern import DistancePattern, PatternCalculator

__all__ = [
    "DistanceFunction",
    "DistancePattern",
    "DonorScanKernels",
    "PatternCalculator",
    "absolute_difference",
    "boolean_equality",
    "distance_for_type",
    "jaro_similarity",
    "jaro_winkler_distance",
    "jaro_winkler_function",
    "jaro_winkler_similarity",
    "levenshtein",
    "levenshtein_bounded",
    "levenshtein_bounded_many",
    "normalized_levenshtein",
    "relative_difference",
    "relative_difference_function",
    "string_edit_distance",
    "token_jaccard_distance",
    "token_jaccard_function",
]
