"""Future-work extensions in action: incremental + multi-source.

Demonstrates the two imputation extensions the paper's conclusion
proposes (Section 7):

1. an :class:`~repro.extensions.ImputationSession` receiving physician
   records in batches, maintaining its RFD set under each batch
   (incremental discovery), imputing only the newly arrived missing
   cells and retrying previously un-imputable ones once a donor appears;
2. a :class:`~repro.extensions.MultiSourceRenuver` borrowing donor
   tuples from a second dataset when the target has none.

Run with::

    python examples/incremental_stream.py
"""

from repro import (
    DiscoveryConfig,
    MISSING,
    MultiSourceRenuver,
    discover_rfds,
    load_dataset,
)
from repro.discovery.incremental import IncrementalDiscovery
from repro.extensions import ImputationSession


def incremental_demo() -> None:
    print("--- Incremental session (streaming physician records) ---")
    full = load_dataset("physician", n_tuples=240, seed=0)
    head, stream = full.head(120), full
    config = DiscoveryConfig(
        threshold_limit=3, max_lhs_size=1, grid_size=3, max_per_rhs=15
    )
    discovery = discover_rfds(head, config)
    print(f"RFDs from the first 120 records: {len(discovery.all_rfds)}")

    session = ImputationSession(
        head,
        discovery.all_rfds,
        maintainer=IncrementalDiscovery(head, config, initial=discovery),
    )
    batch_size = 40
    for start in range(120, stream.n_tuples, batch_size):
        batch = []
        for row in range(start, min(start + batch_size, stream.n_tuples)):
            values = list(stream.row_values(row))
            # Simulate transmission loss: drop the City of every 7th row.
            if row % 7 == 0:
                values[stream.index_of("City")] = MISSING
            batch.append(values)
        session.append(batch)
        result = session.impute_pending()
        print(
            f"batch @{start:>4}: {session.maintenance.summary()}; "
            f"{result.report.imputed_count} imputed, "
            f"{len(session.unimputed_cells())} awaiting retry"
        )
    print(f"session relation: {session.relation.n_tuples} tuples, "
          f"{session.relation.count_missing()} still missing")


def multi_source_demo() -> None:
    print()
    print("--- Multi-source candidates (two restaurant snapshots) ---")
    # Two snapshots of the same integration pipeline: the target holds a
    # 150-row excerpt, the auxiliary snapshot the remaining listings.
    full = load_dataset("restaurant", n_tuples=600, seed=1)
    target = full.take(list(range(150)), name="target-snapshot")
    source = full.take(
        list(range(150, full.n_tuples)), name="aux-snapshot"
    )
    discovery = discover_rfds(
        source,
        DiscoveryConfig(
            threshold_limit=6, max_lhs_size=2, grid_size=3, max_per_rhs=20
        ),
    )
    # Blank some cities in the target.
    from repro import inject_missing

    injection = inject_missing(
        target, count=12, seed=5, attributes=["City", "Phone"]
    )

    dirty = injection.relation
    from repro import Renuver

    alone = Renuver(discovery.all_rfds).impute(dirty)
    engine = MultiSourceRenuver(discovery.all_rfds, [source])
    result = engine.impute(dirty)
    from_source = sum(
        1
        for outcome in result.report.imputed_cells()
        if engine.donor_origin(outcome, dirty) == source.name
    )
    print(
        f"target alone : {alone.report.imputed_count}/{injection.count} "
        f"cells imputed"
    )
    print(
        f"with source  : {result.report.imputed_count}/{injection.count} "
        f"cells imputed ({from_source} donors from the auxiliary snapshot)"
    )


if __name__ == "__main__":
    incremental_demo()
    multi_source_demo()
