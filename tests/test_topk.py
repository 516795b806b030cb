"""Unit tests for the PatternBook (Q / omega / high-low bookkeeping)."""

import math

import numpy as np
import pytest

from repro.core.topk import PatternBook, cells_from_keys, row_keys, sort_key


class TestSortKey:
    def test_orders_by_nm_then_length_then_cells(self):
        items = [((2,), -5.0), ((1,), -3.0), ((1, 2), -3.0), ((0,), -3.0)]
        ordered = sorted(items, key=lambda it: sort_key(*it))
        assert ordered == [((0,), -3.0), ((1,), -3.0), ((1, 2), -3.0), ((2,), -5.0)]


class TestRowKeys:
    @pytest.mark.parametrize("length", [1, 2, 5, 6, 9])
    def test_round_trip_and_cell_order(self, length):
        # 5,929 cells (the ingest grid): one int64 word up to 5 cells,
        # big-endian row bytes from 6 on.
        rng = np.random.default_rng(length)
        cells = rng.integers(0, 5929, (500, length))
        keys = row_keys(cells, 5929)
        assert keys.dtype.kind == ("i" if length <= 5 else "V")
        assert np.array_equal(cells_from_keys(keys, length, 5929), cells)
        by_key = cells[np.argsort(keys, kind="stable")]
        by_cells = cells[np.lexsort(cells.T[::-1])]
        assert np.array_equal(by_key, by_cells)


class TestInsertion:
    def test_exact_and_bounded_membership(self):
        book = PatternBook(k=2)
        book.insert_exact((1,), -1.0)
        book.insert_bounded((2, 3), -9.0)
        assert (1,) in book
        assert (2, 3) in book
        assert len(book) == 2
        assert book.n_exact == 1
        assert book.n_bounded == 1

    def test_value_prefers_exact(self):
        book = PatternBook(k=2)
        book.insert_exact((1,), -1.0)
        assert book.value((1,)).tolist() == [-1.0]
        book.insert_bounded((2,), -4.0)
        assert book.value((2,)).tolist() == [-4.0]

    def test_exact_supersedes_bounded(self):
        book = PatternBook(k=2)
        book.insert_bounded((1, 2), -9.0)
        book.insert_exact((1, 2), -10.0)
        assert book.n_bounded == 0
        assert book.value((1, 2)).tolist() == [-10.0]

    def test_bounded_never_downgrades_exact(self):
        book = PatternBook(k=2)
        book.insert_exact((1,), -1.0)
        book.insert_bounded((1,), -9.0)
        assert book.value((1,)).tolist() == [-1.0]

    def test_remove_keeps_exact_cache(self):
        book = PatternBook(k=1)
        book.insert_exact((1, 2), -3.0)
        book.remove((1, 2))
        assert (1, 2) not in book
        assert book.is_evaluated((1, 2)).tolist() == [True]
        book.reactivate((1, 2))
        assert book.value((1, 2)).tolist() == [-3.0]

    def test_remove_bounded(self):
        book = PatternBook(k=1)
        book.insert_bounded((1, 2), -3.0)
        book.remove((1, 2))
        assert (1, 2) not in book
        assert book.is_evaluated((1, 2)).tolist() == [False]

    def test_batch_matrix_and_lookup(self):
        book = PatternBook(k=1)
        book.insert_exact([[3, 4], [1, 2]], [-1.0, -2.0])
        book.insert_bounded([[5, 6]], [-7.0])
        book.remove((3, 4))
        keys = row_keys(np.array([[1, 2], [3, 4], [5, 6], [7, 0]]), book.radix)
        active, cached = book.lookup(2, keys)
        assert active.tolist() == [True, False, True, False]
        assert cached.tolist() == [False, True, False, False]

    def test_radix_growth_rekeys_stored_rows(self):
        book = PatternBook(k=1)
        book.insert_exact((1, 2), -1.0)
        book.insert_exact((9_000, 3), -2.0)  # a larger id re-keys (1, 2)
        assert book.radix == 9_001
        assert (1, 2) in book and (9_000, 3) in book
        assert list(book.membership()) == [(1, 2), (9_000, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            PatternBook(k=0)
        with pytest.raises(ValueError):
            PatternBook(k=1, min_length=0)


class TestOmega:
    def test_omega_is_kth_best(self):
        book = PatternBook(k=2)
        for i, nm in enumerate([-1.0, -3.0, -2.0]):
            book.insert_exact((i,), nm)
        assert book.update_omega() == -2.0

    def test_omega_inf_until_k_patterns(self):
        book = PatternBook(k=3)
        book.insert_exact((0,), -1.0)
        assert math.isinf(book.update_omega())

    def test_omega_never_decreases(self):
        book = PatternBook(k=1)
        book.insert_exact((0,), -1.0)
        assert book.update_omega() == -1.0
        book.insert_exact((1,), -5.0)
        assert book.update_omega() == -1.0

    def test_omega_ignores_bounded(self):
        book = PatternBook(k=1)
        book.insert_bounded((0, 1), -0.5)
        assert math.isinf(book.update_omega())

    def test_min_length_variant(self):
        book = PatternBook(k=1, min_length=2)
        book.insert_exact((0,), -0.1)  # short: does not qualify
        assert math.isinf(book.update_omega())
        book.insert_exact((0, 1), -2.0)
        assert book.update_omega() == -2.0


class TestHighLow:
    def make_book(self):
        book = PatternBook(k=2)
        book.insert_exact((0,), -1.0)
        book.insert_exact((1,), -2.0)
        book.insert_exact((2,), -3.0)
        book.insert_bounded((0, 1), -9.0)
        book.update_omega()
        return book

    def test_split(self):
        book = self.make_book()
        assert set(book.high_patterns()) == {(0,), (1,)}
        assert set(book.low_patterns()) == {(2,), (0, 1)}

    def test_everything_high_while_omega_inf(self):
        book = PatternBook(k=5)
        book.insert_exact((0,), -1.0)
        book.insert_bounded((0, 1), -9.0)
        assert set(book.high_patterns()) == {(0,)}
        assert set(book.low_patterns()) == {(0, 1)}

    def test_partners_by_length_sorted(self):
        book = self.make_book()
        partners = book.partners_by_length()
        values = partners[1].values.tolist()
        assert values == sorted(values, reverse=True)
        assert cells_from_keys(partners[1].keys, 1, book.radix)[0].tolist() == [0]
        assert cells_from_keys(partners[2].keys, 2, book.radix).tolist() == [[0, 1]]

    def test_partners_floor_keeps_the_sorted_prefix(self):
        book = self.make_book()
        assert book.partners_by_length(floor=-2.0)[1].values.tolist() == [-1.0, -2.0]
        assert len(book.partners_by_length(floor=-2.0)[2].keys) == 0


class TestTopK:
    def test_top_k_deterministic(self):
        book = PatternBook(k=2)
        book.insert_exact((5,), -1.0)
        book.insert_exact((1,), -1.0)
        book.insert_exact((9,), -2.0)
        top = book.top_k()
        assert [c for c, _ in top] == [(1,), (5,)]

    def test_top_k_respects_min_length(self):
        book = PatternBook(k=2, min_length=2)
        book.insert_exact((0,), -0.1)
        book.insert_exact((1, 2), -5.0)
        top = book.top_k()
        assert [c for c, _ in top] == [(1, 2)]

    def test_top_k_follows_sort_key(self):
        items = [((4, 0), -1.0), ((2, 9), -1.0), ((7,), -1.0), ((3,), -0.5)]
        book = PatternBook(k=3)
        for cells, nm in items:
            book.insert_exact(cells, nm)
        expected = sorted(items, key=lambda it: sort_key(*it))[:3]
        assert book.top_k() == expected == [((3,), -0.5), ((7,), -1.0), ((2, 9), -1.0)]
