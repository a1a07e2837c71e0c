"""Tests for dominance pruning."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery.pruning import dominates, remove_dominated
from repro.rfd import make_rfd


class TestDominates:
    def test_looser_lhs_tighter_rhs_dominates(self):
        strong = make_rfd({"A": 5}, ("C", 1))
        weak = make_rfd({"A": 3}, ("C", 2))
        assert dominates(strong, weak)
        assert not dominates(weak, strong)

    def test_subset_lhs_dominates(self):
        small = make_rfd({"A": 3}, ("C", 1))
        big = make_rfd({"A": 3, "B": 2}, ("C", 1))
        assert dominates(small, big)
        assert not dominates(big, small)

    def test_different_rhs_never_dominates(self):
        first = make_rfd({"A": 3}, ("C", 1))
        second = make_rfd({"A": 3}, ("D", 1))
        assert not dominates(first, second)

    def test_incomparable_thresholds(self):
        first = make_rfd({"A": 5, "B": 1}, ("C", 1))
        second = make_rfd({"A": 1, "B": 5}, ("C", 1))
        assert not dominates(first, second)
        assert not dominates(second, first)

    def test_equal_rfds_dominate_each_other(self):
        first = make_rfd({"A": 3}, ("C", 1))
        second = make_rfd({"A": 3}, ("C", 1))
        assert dominates(first, second)
        assert dominates(second, first)

    def test_tighter_rhs_wins_same_lhs(self):
        tight = make_rfd({"A": 3}, ("C", 0))
        loose = make_rfd({"A": 3}, ("C", 2))
        assert dominates(tight, loose)


class TestRemoveDominated:
    def test_drops_dominated(self):
        strong = make_rfd({"A": 5}, ("C", 1))
        weak = make_rfd({"A": 3}, ("C", 2))
        assert remove_dominated([weak, strong]) == [strong]

    def test_keeps_incomparable(self):
        first = make_rfd({"A": 5}, ("C", 1))
        second = make_rfd({"B": 5}, ("C", 1))
        kept = remove_dominated([first, second])
        assert set(map(str, kept)) == {str(first), str(second)}

    def test_dedupes_equal(self):
        rfd = make_rfd({"A": 3}, ("C", 1))
        clone = make_rfd({"A": 3}, ("C", 1))
        assert remove_dominated([rfd, clone]) == [rfd]

    def test_chain_keeps_only_top(self):
        top = make_rfd({"A": 9}, ("C", 0))
        middle = make_rfd({"A": 5}, ("C", 1))
        bottom = make_rfd({"A": 1}, ("C", 2))
        assert remove_dominated([bottom, middle, top]) == [top]

    def test_groups_by_rhs(self):
        c_rfd = make_rfd({"A": 1}, ("C", 2))
        d_rfd = make_rfd({"A": 9}, ("D", 0))
        kept = remove_dominated([c_rfd, d_rfd])
        assert len(kept) == 2

    def test_empty(self):
        assert remove_dominated([]) == []


_LHS_POOL = ("A", "B", "C", "D", "E")


def _brute_force(rfds):
    """Deduplicate, group by RHS in first-appearance order, and keep an
    RFD unless another one dominates it — except an equivalent RFD that
    comes later."""
    by_rhs = {}
    for rfd in dict.fromkeys(rfds):
        by_rhs.setdefault(rfd.rhs_attribute, []).append(rfd)
    kept = []
    for group in by_rhs.values():
        for j, candidate in enumerate(group):
            if not any(
                i != j
                and dominates(other, candidate)
                and not (dominates(candidate, other) and i > j)
                for i, other in enumerate(group)
            ):
                kept.append(candidate)
    return kept


@st.composite
def _rfds(draw, rhs_names=("R", "S")):
    lhs = draw(st.dictionaries(
        st.sampled_from(_LHS_POOL),
        st.sampled_from([0, 0.5, 1, 2, 3]),  # few values: many ties
        min_size=1, max_size=3,
    ))
    return make_rfd(
        lhs,
        (draw(st.sampled_from(rhs_names)),
         draw(st.sampled_from([0, 1, 1.5, 2]))),
    )


@st.composite
def _groups(draw):
    rfds = draw(st.lists(_rfds(), max_size=40))
    copies = draw(st.lists(st.sampled_from(rfds), max_size=10)) if rfds else []
    # Equal but distinct objects, so deduplication has work to do.
    return rfds + [
        make_rfd(
            {c.attribute: c.threshold for c in rfd.lhs},
            (rfd.rhs_attribute, rfd.rhs_threshold),
        )
        for rfd in copies
    ]


class TestRemoveDominatedProperties:
    @settings(max_examples=200, deadline=None)
    @given(_groups())
    def test_matches_brute_force(self, rfds):
        assert remove_dominated(rfds) == _brute_force(rfds)

    def test_large_group_takes_the_blocked_path(self):
        rng = random.Random(7)
        rfds = [
            make_rfd(
                {
                    name: rng.choice([0, 1, 2, 3, 4, 5])
                    for name in rng.sample(_LHS_POOL, rng.randint(1, 3))
                },
                ("R", rng.choice([0, 1, 2, 3, 4])),
            )
            for _ in range(3000)
        ]
        kept = remove_dominated(rfds)
        assert kept == _brute_force(rfds)
        assert 1 < len(kept) < len(set(rfds))
