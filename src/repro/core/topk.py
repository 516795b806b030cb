"""Top-k bookkeeping for the miner: the pattern set ``Q`` and threshold ``omega``.

The TrajPattern algorithm maintains a growing set ``Q`` of patterns, a
dynamic NM threshold ``omega`` (the k-th largest NM seen so far), and the
induced split of ``Q`` into *high* (NM >= omega) and *low* patterns
(section 4, observation 2).  :class:`PatternBook` centralises that
bookkeeping with deterministic tie-breaking so mining results are stable
across runs and match the brute-force oracle in tests.

Columnar layout: the book keeps one bucket per pattern length.  A bucket
is a set of parallel arrays -- row keys, values, *exact* and *active*
flags -- sorted by key.  A row key encodes the pattern's grid cell ids
(:func:`row_keys`): while ``radix ** L`` fits in int64 it is the
mixed-radix number ``c0 c1 ... c(L-1)`` in base ``radix`` (one past the
largest cell id the book has seen); longer rows use the cells themselves
as big-endian bytes (one ``void`` scalar per row).  Both forms decode back
to cells (:func:`cells_from_keys`) and order rows lexicographically by
cells, so a bucket is always in cell order and no length is capped.  Every
operation of the miner's loop is a handful of array passes over these
buckets: ``searchsorted`` membership, masked selection, ``partition`` for
``omega`` and a stable value sort for the partner order.

Lazy evaluation: a pattern may be stored with an *exact* NM or with an
*upper bound* (from the min-max property's weighted-mean inequality).
Bounded patterns were provably below ``omega`` when inserted, and ``omega``
never decreases, so they are permanently low: they participate in candidate
generation (their bound is a valid ingredient of further concatenation
bounds) and in the 1-extension pruning, but never in ``omega`` or the final
top-k.  This is what keeps the paper's ``O(kG)`` low-pattern population from
costing ``O(kG)`` full dataset scans per iteration.  A removed exact pattern
stays in its bucket, inactive, so a later regeneration reuses its score; a
removed bounded pattern is dropped.

The minimum-length variant of section 5 changes only how ``omega`` is
computed: it is the k-th largest NM *among patterns of length >= d*, while
the high/low split of the whole book still uses plain NM comparison.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

Cells = tuple[int, ...]

_KEY_LIMIT = 2**63


def sort_key(cells: Cells, nm: float) -> tuple:
    """Deterministic "better first" ordering: NM desc, shorter first, cells asc."""
    return (-nm, len(cells), cells)


def fits_int64(radix: int, length: int) -> bool:
    """Whether base-``radix`` keys of ``length`` cells fit in one int64."""
    return radix**length <= _KEY_LIMIT


def row_keys(cells: np.ndarray, radix: int) -> np.ndarray:
    """One sortable key per row of an ``(n, L)`` cell matrix.

    The mixed-radix int64 ``((c0 * radix + c1) * radix + ...)`` when it
    fits, else the row's big-endian bytes as one ``void`` scalar.  Either
    way keys compare like the rows do lexicographically.
    """
    length = cells.shape[1]
    if fits_int64(radix, length):
        keys = cells[:, 0].astype(np.int64)
        for col in range(1, length):
            keys *= radix
            keys += cells[:, col]
        return keys
    rows = np.ascontiguousarray(cells, dtype=">i8")
    return rows.view(np.dtype((np.void, 8 * length))).ravel()


def member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of ``keys`` present in the ascending array ``sorted_keys``."""
    if not len(sorted_keys) or not len(keys):
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    np.minimum(pos, len(sorted_keys) - 1, out=pos)
    return sorted_keys[pos] == keys


def cells_from_keys(keys: np.ndarray, length: int, radix: int) -> np.ndarray:
    """Invert :func:`row_keys`: the ``(n, length)`` cell matrix of ``keys``."""
    if keys.dtype.kind == "V":
        rows = np.ascontiguousarray(keys).view(">i8").reshape(-1, length)
        return rows.astype(np.int64)
    powers = np.int64(radix) ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return keys[:, None] // powers % radix


def as_matrix(cells) -> np.ndarray:
    """One pattern (a cell sequence) or an ``(n, L)`` matrix, as int64 rows."""
    return np.atleast_2d(np.asarray(cells, dtype=np.int64))


class PatternRows(NamedTuple):
    """Same-length patterns as columns: row keys and values."""

    keys: np.ndarray  # (n,) row keys, see :func:`row_keys`
    values: np.ndarray  # (n,) exact NM or upper bound

    def take(self, index) -> "PatternRows":
        return PatternRows(self.keys[index], self.values[index])


class PatternSet:
    """A snapshot of book patterns, bucketed by length, each in key order.

    Iterating yields cell tuples (shorter first), so small sets read like
    the sets they stand for; the miner works on :attr:`by_length`.
    """

    def __init__(self, by_length: dict[int, PatternRows], radix: int) -> None:
        self.by_length = {j: rows for j, rows in by_length.items() if len(rows.keys)}
        self.radix = radix

    def __len__(self) -> int:
        return sum(len(rows.keys) for rows in self.by_length.values())

    def __iter__(self) -> Iterator[Cells]:
        for length in sorted(self.by_length):
            yield from map(tuple, self.cells(length).tolist())

    def __eq__(self, other: object) -> bool:
        """Same patterns (values are not compared)."""
        if not isinstance(other, PatternSet):
            return NotImplemented
        if self.by_length.keys() != other.by_length.keys():
            return False
        if self.radix == other.radix:
            return all(
                np.array_equal(rows.keys, other.by_length[j].keys)
                for j, rows in self.by_length.items()
            )
        return all(np.array_equal(self.cells(j), other.cells(j)) for j in self.by_length)

    def keys(self, length: int) -> np.ndarray:
        """Sorted row keys of the ``length``-patterns (empty if none)."""
        rows = self.by_length.get(length)
        return rows.keys if rows is not None else np.empty(0, dtype=np.int64)

    def cells(self, length: int) -> np.ndarray:
        """The ``(n, length)`` cell matrix of the ``length``-patterns."""
        return cells_from_keys(self.keys(length), length, self.radix)


class _Bucket:
    """All book rows of one length, sorted by key."""

    __slots__ = ("keys", "values", "exact", "active")

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.values = np.empty(0)
        self.exact = np.empty(0, dtype=bool)
        self.active = np.empty(0, dtype=bool)

    def locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row position, found mask) of each key."""
        if not len(self.keys):
            return np.zeros(len(keys), dtype=np.intp), np.zeros(len(keys), dtype=bool)
        pos = np.searchsorted(self.keys, keys)
        found = pos < len(self.keys)
        found[found] = self.keys[pos[found]] == keys[found]
        return pos, found

    def rows(self, mask: np.ndarray) -> PatternRows:
        return PatternRows(self.keys[mask], self.values[mask])

    def select(self, mask: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[mask])

    def add(self, keys: np.ndarray, values: np.ndarray, exact: bool) -> None:
        """Insert active rows whose keys are absent (and distinct)."""
        if not len(keys):
            return
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        if not len(self.keys):
            self.keys, self.values = keys, values
            self.exact = np.full(len(keys), exact)
            self.active = np.ones(len(keys), dtype=bool)
            return
        pos = np.searchsorted(self.keys, keys)
        self.keys = np.insert(self.keys, pos, keys)
        self.values = np.insert(self.values, pos, values)
        self.exact = np.insert(self.exact, pos, exact)
        self.active = np.insert(self.active, pos, True)


class PatternBook:
    """The pattern store behind the miner's ``Q`` / ``H`` / ``L`` sets.

    Every mutator and lookup takes either one pattern (a cell sequence) or
    an ``(n, L)`` matrix of same-length patterns; the miner wraps cells
    into :class:`~repro.core.pattern.TrajectoryPattern` only at the API
    surface.
    """

    def __init__(self, k: int, min_length: int = 1) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if min_length < 1:
            raise ValueError("min_length must be at least 1")
        self.k = k
        self.min_length = min_length
        self.radix = 1
        self._buckets: dict[int, _Bucket] = {}
        self._omega = -math.inf

    # -- keys ------------------------------------------------------------------

    def _keys(self, cells: np.ndarray) -> np.ndarray:
        """Row keys of ``cells``, first growing the radix past its largest id.

        Growing re-keys the stored rows (their order is unchanged); the
        miner introduces new cell ids only while seeding, before it takes
        any :class:`PatternSet`.
        """
        if cells.size:
            top = int(cells.max()) + 1
            if top > self.radix:
                for length, bucket in self._buckets.items():
                    old = cells_from_keys(bucket.keys, length, self.radix)
                    bucket.keys = row_keys(old, top)
                self.radix = top
        return row_keys(cells, self.radix)

    def _bucket(self, length: int) -> _Bucket:
        bucket = self._buckets.get(length)
        if bucket is None:
            bucket = self._buckets[length] = _Bucket()
        return bucket

    def encode(self, cells) -> tuple[int, np.ndarray]:
        """(length, row keys) of one pattern or an ``(n, L)`` matrix."""
        cells = as_matrix(cells)
        return cells.shape[1], self._keys(cells)

    def _locate(self, cells) -> tuple[_Bucket, np.ndarray, np.ndarray]:
        """(bucket, row positions, found mask) of a cell matrix."""
        length, keys = self.encode(cells)
        bucket = self._bucket(length)
        return (bucket, *bucket.locate(keys))

    # -- insertion / lookup --------------------------------------------------
    #
    # The keyed methods (``lookup``, ``insert``, ``set_active``) are the
    # miner's; the cell-taking ones encode and delegate.

    def __contains__(self, cells) -> bool:
        bucket, pos, found = self._locate(cells)
        return bool(found[0] and bucket.active[pos[0]])

    def __len__(self) -> int:
        return sum(int(b.active.sum()) for b in self._buckets.values())

    @property
    def n_exact(self) -> int:
        return sum(int((b.active & b.exact).sum()) for b in self._buckets.values())

    @property
    def n_bounded(self) -> int:
        return sum(int((b.active & ~b.exact).sum()) for b in self._buckets.values())

    def value(self, cells) -> np.ndarray:
        """Exact NM or upper bound of active patterns (``KeyError`` if absent)."""
        bucket, pos, found = self._locate(cells)
        if not found.all() or not bucket.active[pos].all():
            raise KeyError(cells)
        return bucket.values[pos]

    def is_evaluated(self, cells) -> np.ndarray:
        """Whether each pattern was ever scored exactly (active or pruned)."""
        bucket, pos, found = self._locate(cells)
        out = np.zeros(len(found), dtype=bool)
        out[found] = bucket.exact[pos[found]]
        return out

    def lookup(self, length: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(active, cached) masks of ``length``-patterns given by row keys.

        *Active* patterns are in ``Q``; *cached* ones were scored exactly
        and later pruned.  ``keys`` must use the book's current radix.
        """
        bucket = self._bucket(length)
        pos, found = bucket.locate(keys)
        pos = pos[found]
        active = np.zeros(len(keys), dtype=bool)
        cached = np.zeros(len(keys), dtype=bool)
        active[found] = bucket.active[pos]
        cached[found] = bucket.exact[pos] & ~bucket.active[pos]
        return active, cached

    def insert(self, length: int, keys: np.ndarray, values, *, exact: bool) -> None:
        """Add (distinct) ``length``-patterns by row key, active.

        An exact score promotes a bounded pattern; a bound never replaces
        an exact score (active or pruned).
        """
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        bucket = self._bucket(length)
        pos, found = bucket.locate(keys)
        hit = found.copy()
        hit[found] = exact | ~bucket.exact[pos[found]]
        bucket.values[pos[hit]] = values[hit]
        bucket.exact[pos[hit]] |= exact
        bucket.active[pos[hit]] = True
        bucket.add(keys[~found], values[~found], exact)

    def set_active(self, length: int, keys: np.ndarray, active: bool) -> None:
        """Return patterns to ``Q`` or drop them (an exact score stays cached)."""
        bucket = self._bucket(length)
        pos, found = bucket.locate(keys)
        pos = pos[found]
        bucket.active[pos] = active
        dropped = pos[~bucket.exact[pos]] if not active else pos[:0]
        if len(dropped):
            keep = np.ones(len(bucket.keys), dtype=bool)
            keep[dropped] = False
            bucket.select(keep)

    def insert_exact(self, cells, values) -> None:
        """Add (or promote to) exactly evaluated patterns."""
        self.insert(*self.encode(cells), values, exact=True)

    def insert_bounded(self, cells, bounds) -> None:
        """Add provably-low patterns known only through their upper bound."""
        self.insert(*self.encode(cells), bounds, exact=False)

    def reactivate(self, cells) -> None:
        """Bring previously pruned exact patterns back into ``Q`` (cache hit)."""
        self.set_active(*self.encode(cells), True)

    def remove(self, cells) -> None:
        """Drop patterns from ``Q`` (an exact score stays cached)."""
        self.set_active(*self.encode(cells), False)

    # -- threshold and split ----------------------------------------------------

    @property
    def omega(self) -> float:
        """Current NM threshold (non-decreasing over the run)."""
        return self._omega

    def update_omega(self) -> float:
        """Recompute ``omega`` as the k-th largest exact NM among qualifying patterns.

        With fewer than ``k`` qualifying patterns the threshold stays at
        ``-inf`` (everything counts as high), matching section 5's treatment
        of the minimum-length variant before enough long patterns exist.
        """
        parts = [
            b.values[b.active & b.exact]
            for length, b in self._buckets.items()
            if length >= self.min_length
        ]
        n = sum(len(part) for part in parts)
        if n >= self.k:
            kth = np.partition(np.concatenate(parts), n - self.k)[n - self.k]
            self._omega = max(self._omega, float(kth))
        return self._omega

    def _split(self, high: bool) -> PatternSet:
        out = {}
        for length, b in self._buckets.items():
            exact = b.active & b.exact
            if math.isinf(self._omega):
                mask = exact if high else b.active & ~b.exact
            elif high:
                mask = exact & (b.values >= self._omega)
            else:
                mask = (b.active & ~b.exact) | (exact & (b.values < self._omega))
            out[length] = b.rows(mask)
        return PatternSet(out, self.radix)

    def high_patterns(self) -> PatternSet:
        """Patterns with exact NM >= omega, i.e. the seed set ``H``."""
        return self._split(high=True)

    def low_patterns(self) -> PatternSet:
        """The complement of :meth:`high_patterns` within ``Q`` (bounds included)."""
        return self._split(high=False)

    def membership(self) -> PatternSet:
        """Snapshot of the active pattern set (exact scores and bounds).

        The miner filters this down to the relevant extension partners
        (Lemma 1) and compares successive snapshots to detect convergence:
        candidates are a function of the high set *and* of the available
        partners, so the loop is at a fixed point only when both are
        unchanged.
        """
        return PatternSet(
            {length: b.rows(b.active) for length, b in self._buckets.items()},
            self.radix,
        )

    # -- candidate-generation support -----------------------------------------------

    def partners_by_length(self, floor: float = -math.inf) -> dict[int, PatternRows]:
        """Active patterns grouped by length, each group sorted by value desc.

        Ties keep cell order.  Only patterns valued at least ``floor`` are
        listed.  The miner binary-searches these groups for extension
        partners whose concatenation bound can still reach ``omega``.
        """
        out = {}
        for length, b in self._buckets.items():
            rows = b.rows(b.active & (b.values >= floor))
            out[length] = rows.take(np.argsort(-rows.values, kind="stable"))
        return out

    # -- results -----------------------------------------------------------------

    def top_k(self) -> list[tuple[Cells, float]]:
        """The final answer: k best qualifying patterns, deterministically ordered."""
        lengths, ranks, values = [], [], []
        for length, b in self._buckets.items():
            if length >= self.min_length:
                rows = np.flatnonzero(b.active & b.exact)
                lengths.append(np.full(len(rows), length))
                ranks.append(rows)
                values.append(b.values[rows])
        if not ranks:
            return []
        lengths_all, ranks_all = np.concatenate(lengths), np.concatenate(ranks)
        values_all = np.concatenate(values)
        n = len(values_all)
        if n > self.k:
            # Only rows tied with or above the k-th best can make the cut.
            keep = values_all >= np.partition(values_all, n - self.k)[n - self.k]
            lengths_all, ranks_all = lengths_all[keep], ranks_all[keep]
            values_all = values_all[keep]
        # Sort key (-NM, length, cells); bucket rows are already in cell order.
        order = np.lexsort((ranks_all, lengths_all, -values_all))[: self.k]
        out = []
        for i in order:
            length = int(lengths_all[i])
            key = self._buckets[length].keys[ranks_all[i : i + 1]]
            cells = cells_from_keys(key, length, self.radix)[0]
            out.append((tuple(cells.tolist()), float(values_all[i])))
        return out
