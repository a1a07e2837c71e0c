"""The discovery test oracle: the per-combination lattice walk.

Production discovery (:func:`repro.discovery.discover_rfds`) walks each
LHS set once, groups its pairs by rank-encoded threshold cell and reads
every grid combination off cumulative cubes; dominance pruning is one
blocked numpy comparison.  This module keeps the direct transcription
both replaced, the way ``tests/oracle.py`` keeps the scalar donor-scan
engine:

* for every RHS, every LHS set and every grid combination, AND the
  per-threshold pair masks and take the masked maximum RHS distance;
* drop an RFD when any other one of its group dominates it, comparing
  pairs one at a time.

The differential suite (``test_grouped_equivalence.py``) asserts both
produce the same lists, element by element.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryConfig
from repro.discovery.dime import _cap_per_rhs, _threshold_grid
from repro.discovery.lattice import iter_lhs_sets
from repro.discovery.pattern_matrix import PairDistanceMatrix
from repro.discovery.pruning import dominates
from repro.rfd.constraint import Constraint
from repro.rfd.rfd import RFD


def oracle_discover(
    relation: Relation,
    config: DiscoveryConfig,
    matrix: PairDistanceMatrix | None = None,
) -> tuple[list[RFD], list[RFD]]:
    """``(rfds, key_rfds)`` as :func:`~repro.discovery.discover_rfds`
    must return them for ``relation`` under ``config`` (over ``matrix``
    when given; it must equal the matrix discovery builds itself)."""
    if matrix is None:
        matrix = PairDistanceMatrix(
            relation,
            string_limit=max(
                config.threshold_limit, config.effective_lhs_limit
            ),
            max_pairs=config.max_pairs,
            seed=config.seed,
        )
    names = list(relation.attribute_names)
    grids = {
        name: _threshold_grid(
            matrix.distances(name),
            config.lhs_limit_for(name),
            config.grid_size,
        )
        for name in names
    }
    match_masks = {
        name: _grid_masks(matrix.distances(name), grids[name])
        for name in names
    }
    emitted: list[RFD] = []
    keys: list[RFD] = []
    for rhs in names:
        d_rhs = matrix.distances(rhs)
        rhs_defined = ~np.isnan(d_rhs)
        for lhs_set in iter_lhs_sets(names, rhs, config.max_lhs_size):
            _discover_for_lhs(
                lhs_set, rhs, d_rhs, rhs_defined, grids, match_masks,
                config, emitted, keys,
            )
    rfds = oracle_remove_dominated(emitted)
    keys = oracle_remove_dominated(keys)
    if config.max_per_rhs is not None:
        rfds = _cap_per_rhs(rfds, config.max_per_rhs)
    return rfds, (keys if config.include_keys else [])


def oracle_remove_dominated(rfds: Iterable[RFD]) -> list[RFD]:
    """Deduplicate, then drop every RFD another one of its RHS group
    dominates (the earlier of two equivalent RFDs survives)."""
    by_rhs: dict[str, list[RFD]] = {}
    for rfd in dict.fromkeys(rfds):
        by_rhs.setdefault(rfd.rhs_attribute, []).append(rfd)
    kept: list[RFD] = []
    for group in by_rhs.values():
        for candidate in group:
            if not _is_dominated(candidate, group):
                kept.append(candidate)
    return kept


def _is_dominated(candidate: RFD, group: Sequence[RFD]) -> bool:
    for other in group:
        if other is candidate:
            continue
        if dominates(other, candidate):
            if dominates(candidate, other):
                if group.index(other) > group.index(candidate):
                    continue
            return True
    return False


def _discover_for_lhs(
    lhs_set: tuple[str, ...],
    rhs: str,
    d_rhs: np.ndarray,
    rhs_defined: np.ndarray,
    grids: dict[str, np.ndarray],
    match_masks: dict[str, list[np.ndarray]],
    config: DiscoveryConfig,
    emitted: list[RFD],
    keys: list[RFD],
) -> None:
    grid_lists = [grids[name] for name in lhs_set]
    if any(grid.size == 0 for grid in grid_lists):
        if config.include_keys:
            constraints = tuple(
                Constraint(
                    name,
                    float(grid_lists[position][-1])
                    if grid_lists[position].size
                    else float(config.lhs_limit_for(name)),
                )
                for position, name in enumerate(lhs_set)
            )
            keys.append(RFD(constraints, Constraint(rhs, 0.0)))
        return
    saw_supported = False
    for combo in itertools.product(*(range(g.size) for g in grid_lists)):
        mask = match_masks[lhs_set[0]][combo[0]]
        for position in range(1, len(lhs_set)):
            mask = mask & match_masks[lhs_set[position]][combo[position]]
        if not mask.any():
            continue
        saw_supported = True
        witnesses = mask & rhs_defined
        support = int(witnesses.sum())
        if support < config.min_support_pairs:
            continue
        beta = float(np.max(d_rhs[witnesses]))
        if beta > config.rhs_limit_for(rhs):
            continue
        constraints = tuple(
            Constraint(name, float(grid_lists[position][combo[position]]))
            for position, name in enumerate(lhs_set)
        )
        emitted.append(RFD(constraints, Constraint(rhs, beta)))
    if not saw_supported and config.include_keys:
        constraints = tuple(
            Constraint(name, float(grid_lists[position][-1]))
            for position, name in enumerate(lhs_set)
        )
        keys.append(RFD(constraints, Constraint(rhs, 0.0)))


def _grid_masks(
    distances: np.ndarray, grid: np.ndarray
) -> list[np.ndarray]:
    """Per grid value, the mask of pairs within it (NaN never matches)."""
    defined = ~np.isnan(distances)
    return [defined & (distances <= threshold) for threshold in grid]
