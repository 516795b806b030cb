"""Unit tests for the 1-extension pruning (section 4.1, Definition 5)."""

from repro.core.pruning import one_extension_mask, prune_low_patterns
from repro.core.topk import PatternBook


def split(high, low):
    """High and low snapshots of a book holding exactly ``high`` and ``low``."""
    book = PatternBook(k=max(1, len(high)))
    for cells in high:
        book.insert_exact(cells, 0.0)
    for cells in low:
        book.insert_bounded(cells, -1.0)
    book.update_omega()
    return book.high_patterns(), book.low_patterns()


def satisfies(cells, high) -> bool:
    high_set, low_set = split(high, [cells])
    return bool(one_extension_mask(len(cells), low_set.keys(len(cells)), high_set)[0])


class TestDefinition5:
    def test_singular_always_satisfies(self):
        assert satisfies((7,), high=[])

    def test_prefix_high(self):
        assert satisfies((1, 2, 3), high=[(1, 2)])

    def test_suffix_high(self):
        assert satisfies((1, 2, 3), high=[(2, 3)])

    def test_neither_high(self):
        assert not satisfies((1, 2, 3), high=[(1, 3), (2,)])

    def test_interior_subpattern_does_not_count(self):
        # (2,) is a sub-pattern but not obtained by deleting first/last once.
        assert not satisfies((1, 2, 3), high=[(2,)])

    def test_accepts_valued_high_snapshot(self):
        # The high set is a book snapshot carrying the exact values.
        high, low = split([(1,)], [(1, 2)])
        assert high.by_length[1].values.tolist() == [0.0]
        assert one_extension_mask(2, low.keys(2), high).tolist() == [True]

    def test_multiword_keys(self):
        # Over 100k cell ids a 6-pattern's key no longer fits one int64
        # word; prefix and suffix come from the cells instead.
        long = (90_000, 1, 2, 3, 4, 5)
        assert satisfies(long, high=[(1, 2, 3, 4, 5)])
        assert satisfies(long, high=[(90_000, 1, 2, 3, 4)])
        assert not satisfies(long, high=[(90_000, 1, 2, 3, 5)])


class TestPrune:
    def test_partition(self):
        high, low = split([(1, 2), (5,)], [(9,), (1, 2, 3), (4, 5, 6), (5, 7)])
        kept, pruned = prune_low_patterns(low, high)
        assert set(kept) == {(9,), (1, 2, 3), (5, 7)}
        assert list(pruned) == [(4, 5, 6)]

    def test_empty_low(self):
        high, low = split([(1,)], [])
        kept, pruned = prune_low_patterns(low, high)
        assert len(kept) == 0 and len(pruned) == 0

    def test_everything_pruned_without_high(self):
        high, low = split([], [(1, 2), (3, 4)])
        kept, pruned = prune_low_patterns(low, high)
        assert len(kept) == 0
        assert set(pruned) == {(1, 2), (3, 4)}
