"""Distance-based RFD discovery.

The paper sources its RFD sets from the dominance-based discovery
algorithm of Caruccio, Deufemia, Naumann and Polese (TKDE 2021), which is
not publicly available; this module provides a faithful-in-interface
substitute (see DESIGN.md, substitution 2).

Method, per candidate LHS set ``X`` and RHS attribute ``A``:

1. materialize all-pairs distances (:class:`PairDistanceMatrix`),
2. pick a small grid of candidate thresholds per LHS attribute
   (quantiles of the observed pair distances, capped at the LHS limit)
   and encode every pair distance once as its *rank*: the index of the
   tightest grid threshold that admits it (one extra rank for "none"
   and for missing),
3. per LHS set, group the pairs inside the loosest grid by their rank
   cell (one cell of a ``grid_size ** |X|`` cube).  A grid combination
   ``alpha`` matches exactly the pairs whose cell is ``<= alpha`` on
   every axis, so per RHS one grouped count and one grouped maximum of
   ``d_A``, accumulated along each axis, give every combination's
   support and minimal RHS threshold ``beta = max d_A`` at once,
4. emit ``X(alpha) -> A(beta)`` when ``beta`` is within the run's
   threshold limit, unless one grid step looser on some axis keeps the
   same ``beta`` (that combination dominates it); when *no* pair matches
   the LHS at its loosest grid, emit a key RFD (Definition 3.4) so
   downstream pre-processing sees realistic input,
5. prune dominated dependencies across LHS sets
   (:func:`~repro.discovery.pruning.remove_dominated`).

All emitted non-key RFDs *hold* on the instance by construction (exactly
when pairs are exhaustive; approximately under ``max_pairs`` sampling).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryConfig
from repro.discovery.pattern_matrix import PairDistanceMatrix
from repro.discovery.pruning import remove_dominated
from repro.rfd.constraint import Constraint
from repro.rfd.rfd import RFD
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.logs import get_logger
from repro.utils.timer import Timer

logger = get_logger("discovery.dime")


@dataclass
class DiscoveryResult:
    """Outcome of one discovery run."""

    rfds: list[RFD]
    key_rfds: list[RFD]
    config: DiscoveryConfig
    n_pairs: int
    exact: bool
    elapsed_seconds: float = 0.0
    per_rhs_counts: dict[str, int] = field(default_factory=dict)

    @property
    def all_rfds(self) -> list[RFD]:
        """Non-key and key RFDs together — the paper's ``Sigma``."""
        return list(self.rfds) + list(self.key_rfds)

    def __len__(self) -> int:
        return len(self.rfds) + len(self.key_rfds)

    def summary(self) -> str:
        """Human-readable digest of the run."""
        lines = [
            f"discovered {len(self.rfds)} RFDs "
            f"(+{len(self.key_rfds)} keys) over {self.n_pairs} pairs"
            f"{'' if self.exact else ' (sampled)'}",
            f"threshold limit {self.config.threshold_limit}, "
            f"max LHS size {self.config.max_lhs_size}",
        ]
        for rhs, count in sorted(self.per_rhs_counts.items()):
            lines.append(f"  RHS {rhs}: {count}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A JSON-serializable payload round-tripping the result.

        RFDs render in the paper's textual notation (the same grammar
        :func:`repro.rfd.parser.parse_rfd` reads back), so persisted
        artifacts stay human-inspectable and versionable.
        """
        from dataclasses import asdict

        config = asdict(self.config)
        if config.get("attribute_limits") is not None:
            config["attribute_limits"] = dict(config["attribute_limits"])
        return {
            "rfds": [str(rfd) for rfd in self.rfds],
            "key_rfds": [str(rfd) for rfd in self.key_rfds],
            "config": config,
            "n_pairs": self.n_pairs,
            "exact": self.exact,
            "elapsed_seconds": self.elapsed_seconds,
            "per_rhs_counts": dict(self.per_rhs_counts),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "DiscoveryResult":
        """Restore a result persisted with :meth:`to_json`.

        Textual RFDs are re-parsed with the standard parser; a malformed
        payload raises the parser's / config's own validation errors
        (the artifact cache treats any of them as a cache miss).
        """
        from repro.rfd.parser import parse_rfd

        return cls(
            rfds=[parse_rfd(text) for text in payload["rfds"]],
            key_rfds=[parse_rfd(text) for text in payload["key_rfds"]],
            config=DiscoveryConfig(**payload["config"]),
            n_pairs=int(payload["n_pairs"]),
            exact=bool(payload["exact"]),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            per_rhs_counts=dict(payload.get("per_rhs_counts", {})),
        )


def discover_rfds(
    relation: Relation,
    config: DiscoveryConfig | None = None,
    *,
    telemetry: Telemetry | None = None,
) -> DiscoveryResult:
    """Discover RFDc dependencies holding on ``relation``.

    See the module docstring for the method.  Returns non-key RFDs in
    :attr:`DiscoveryResult.rfds` and key RFDs separately.  A live
    ``telemetry`` wraps the run in a ``discover`` span with one child
    span per LHS-set size of the lattice walk (docs/OBSERVABILITY.md).
    """
    config = config or DiscoveryConfig()
    telemetry = telemetry or NULL_TELEMETRY
    timer = Timer()
    timer.start()

    with telemetry.tracer.span(
        "discover",
        relation=relation.name,
        n_tuples=relation.n_tuples,
        max_lhs_size=config.max_lhs_size,
    ) as span:
        string_limit = max(
            config.threshold_limit, config.effective_lhs_limit
        )
        matrix = PairDistanceMatrix(
            relation,
            string_limit=string_limit,
            max_pairs=config.max_pairs,
            seed=config.seed,
        )
        span.set_attribute("n_pairs", matrix.n_pairs)
        names = list(relation.attribute_names)
        grids = {
            name: _threshold_grid(
                matrix.distances(name),
                config.lhs_limit_for(name),
                config.grid_size,
            )
            for name in names
        }
        ranks = {
            name: _grid_ranks(matrix.distances(name), grids[name])
            for name in names
        }

        # LHS sets outer, RHS inner: each set's grouping is built once
        # and is the only one alive.  Per RHS, the sets arrive in
        # ``iter_lhs_sets`` order, so concatenating the per-RHS lists in
        # attribute order reproduces the RHS-outer emission order.
        emitted: dict[str, list[RFD]] = {name: [] for name in names}
        emitted_keys: dict[str, list[RFD]] = {name: [] for name in names}
        pool = sorted(names)
        lhs_sets_walked = telemetry.metrics.counter(
            "renuver_discovery_lhs_sets_total",
            "Candidate LHS sets walked by RFD discovery.",
        )
        for size in range(1, min(config.max_lhs_size, len(pool) - 1) + 1):
            with telemetry.tracer.span("discover_level", size=size) as child:
                walked = 0
                level_emitted = 0
                for lhs_set in itertools.combinations(pool, size):
                    rhs_names = [
                        name for name in names if name not in lhs_set
                    ]
                    walked += len(rhs_names)
                    level_emitted += _walk_lhs_set(
                        lhs_set, rhs_names, matrix, grids, ranks, config,
                        emitted, emitted_keys,
                    )
                child.set_attribute("lhs_sets", walked)
                child.set_attribute("emitted", level_emitted)
            lhs_sets_walked.inc(walked)

        rfds = remove_dominated(
            itertools.chain.from_iterable(emitted.values())
        )
        keys = remove_dominated(
            itertools.chain.from_iterable(emitted_keys.values())
        )
        if config.max_per_rhs is not None:
            rfds = _cap_per_rhs(rfds, config.max_per_rhs)
        per_rhs: dict[str, int] = {}
        for rfd in rfds:
            per_rhs[rfd.rhs_attribute] = (
                per_rhs.get(rfd.rhs_attribute, 0) + 1
            )
        result = DiscoveryResult(
            rfds=rfds,
            key_rfds=keys if config.include_keys else [],
            config=config,
            n_pairs=matrix.n_pairs,
            exact=matrix.exact,
            per_rhs_counts=per_rhs,
        )
        result.elapsed_seconds = timer.stop()
        span.set_attribute("rfds", len(result.rfds))
        span.set_attribute("key_rfds", len(result.key_rfds))
    metrics = telemetry.metrics
    metrics.counter(
        "renuver_discovery_rfds_total",
        "RFDs emitted by discovery runs (after pruning).",
    ).inc(len(result.rfds))
    metrics.gauge(
        "renuver_discovery_elapsed_seconds",
        "Elapsed seconds of the most recent discovery run.",
    ).set(result.elapsed_seconds)
    logger.info(
        "discovered %d RFDs (+%d keys) over %d pairs in %.3fs",
        len(result.rfds), len(result.key_rfds),
        result.n_pairs, result.elapsed_seconds,
    )
    return result


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _walk_lhs_set(
    lhs_set: tuple[str, ...],
    rhs_names: list[str],
    matrix: PairDistanceMatrix,
    grids: dict[str, np.ndarray],
    ranks: dict[str, np.ndarray],
    config: DiscoveryConfig,
    emitted: dict[str, list[RFD]],
    keys: dict[str, list[RFD]],
) -> int:
    """Emit every RFD ``lhs_set(alpha) -> rhs(beta)`` for each RHS in
    ``rhs_names``; returns how many non-key RFDs it emitted.

    Grid combination ``alpha`` matches exactly the pairs whose rank cell
    is ``<= alpha`` on every axis, so grouping the pairs by cell once
    turns every combination's support and ``beta`` into a cumulative sum
    and a cumulative maximum over a ``grid_size ** |X|`` cube.
    """
    grid_lists = [grids[name] for name in lhs_set]
    shape = tuple(grid.size for grid in grid_lists)
    grouping = None if 0 in shape else _group_by_cell(lhs_set, shape, ranks)
    if grouping is None or grouping[0].size == 0:
        # No pair comes within the LHS limit on some attribute (an empty
        # grid), or even the loosest grid matches no pair: every grid
        # choice yields a key RFD (Definition 3.4).  Emit it at the
        # loosest admissible LHS with the tightest RHS.
        if config.include_keys:
            constraints = tuple(
                Constraint(
                    name,
                    float(grid[-1])
                    if grid.size
                    else float(config.lhs_limit_for(name)),
                )
                for name, grid in zip(lhs_set, grid_lists)
            )
            for rhs in rhs_names:
                keys[rhs].append(RFD(constraints, Constraint(rhs, 0.0)))
        return 0
    pairs, starts, occupied = grouping
    thresholds = [grid.tolist() for grid in grid_lists]
    n_cells = int(np.prod(shape))
    count = 0
    for rhs in rhs_names:
        d_rhs = matrix.distances(rhs)[pairs]
        support = np.zeros(n_cells, dtype=np.int64)
        support[occupied] = np.add.reduceat(
            ~np.isnan(d_rhs), starts, dtype=np.int64
        )
        group_max = np.fmax.reduceat(d_rhs, starts)
        beta = np.full(n_cells, -np.inf)
        beta[occupied] = np.where(np.isnan(group_max), -np.inf, group_max)
        support = support.reshape(shape)
        beta = beta.reshape(shape)
        for axis in range(len(shape)):
            np.cumsum(support, axis=axis, out=support)
            np.maximum.accumulate(beta, axis=axis, out=beta)
        emit = (support >= config.min_support_pairs) & (
            beta <= config.rhs_limit_for(rhs)
        )
        # ``beta`` never falls as a threshold loosens, so a combination
        # is dominated inside its own LHS set exactly when one grid step
        # looser on some axis keeps ``beta``; that looser one is emitted
        # too, and pruning would drop this one.
        for axis in range(len(shape)):
            tighter = [slice(None)] * len(shape)
            looser = [slice(None)] * len(shape)
            tighter[axis] = slice(None, -1)
            looser[axis] = slice(1, None)
            emit[tuple(tighter)] &= beta[tuple(tighter)] != beta[tuple(looser)]
        cells = np.nonzero(emit)  # row-major: itertools.product order
        for combo, value in zip(
            zip(*(axis.tolist() for axis in cells)), beta[cells].tolist()
        ):
            constraints = tuple(
                Constraint(name, thresholds[position][combo[position]])
                for position, name in enumerate(lhs_set)
            )
            emitted[rhs].append(RFD(constraints, Constraint(rhs, value)))
        count += len(cells[0])
    return count


def _group_by_cell(
    lhs_set: tuple[str, ...],
    shape: tuple[int, ...],
    ranks: dict[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs inside the loosest grid on every axis of ``lhs_set``,
    sorted by rank cell, with each occupied cell's start offset and flat
    index: ``(pairs, starts, occupied)``."""
    inside = ranks[lhs_set[0]] < shape[0]
    for name, size in zip(lhs_set[1:], shape[1:]):
        inside &= ranks[name] < size
    pairs = np.flatnonzero(inside).astype(
        np.int32 if inside.size <= np.iinfo(np.int32).max else np.int64
    )
    n_cells = int(np.prod(shape))
    cell = np.zeros(pairs.size, dtype=np.min_scalar_type(n_cells - 1))
    for name, size in zip(lhs_set, shape):
        cell *= size
        cell += ranks[name][pairs]
    order = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=n_cells)
    occupied = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[occupied]
    return pairs[order], starts, occupied


def _cap_per_rhs(rfds: list[RFD], cap: int) -> list[RFD]:
    """Keep at most ``cap`` RFDs per RHS attribute: tightest RHS
    threshold first, smaller LHS preferred, deterministic order."""
    by_rhs: dict[str, list[RFD]] = {}
    for rfd in rfds:
        by_rhs.setdefault(rfd.rhs_attribute, []).append(rfd)
    kept: list[RFD] = []
    for group in by_rhs.values():
        group.sort(
            key=lambda rfd: (
                rfd.rhs_threshold,
                len(rfd.lhs),
                sum(c.threshold for c in rfd.lhs),
                str(rfd),
            )
        )
        kept.extend(group[:cap])
    return kept


def _threshold_grid(
    distances: np.ndarray, limit: float, grid_size: int
) -> np.ndarray:
    """Candidate LHS thresholds: quantiles of observed distances <= limit.

    Always includes the minimum and maximum observed distance within the
    limit; rounds to 6 decimals to merge float noise.
    """
    defined = distances[~np.isnan(distances)]
    within = defined[defined <= limit]
    if within.size == 0:
        return np.empty(0, dtype=np.float64)
    unique = np.unique(np.round(within, 6))
    if unique.size <= grid_size:
        return unique
    positions = np.linspace(0, unique.size - 1, grid_size)
    indices = np.unique(positions.round().astype(int))
    return unique[indices]


def _grid_ranks(distances: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per pair, the index of the tightest grid threshold ``g`` with
    ``d <= g``; ``grid.size`` when none admits it (and for ``NaN``).

    Counted with the same ``d <= g`` comparison the thresholds are
    checked with, in the smallest unsigned dtype holding ``grid.size``.
    """
    ranks = np.full(
        distances.shape, grid.size, dtype=np.min_scalar_type(grid.size)
    )
    for threshold in grid:
        ranks -= distances <= threshold
    return ranks
