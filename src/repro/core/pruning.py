"""The 1-extension pruning of section 4.1.

Without pruning the candidate set ``Q`` grows by a ``2k`` factor per
iteration.  Lemma 1 shows that every high pattern can be produced by
extending a high pattern with either a high pattern or a *low pattern
satisfying the 1-extension property* -- so every other low pattern can be
discarded from ``Q`` without losing completeness.

Definition 5: a ``j``-pattern (``j > 1``) satisfies the 1-extension property
iff the ``(j-1)``-pattern obtained by deleting its first or last position is
a high pattern; every 1-pattern satisfies it unconditionally.

Both checks run on whole length buckets of the columnar
:class:`~repro.core.topk.PatternBook`: a row's prefix and suffix keys are
looked up in the sorted keys of the high patterns one cell shorter.
"""

from __future__ import annotations

import numpy as np

from repro.core.topk import PatternSet, cells_from_keys, fits_int64, member, row_keys


def one_extension_mask(length: int, keys: np.ndarray, high: PatternSet) -> np.ndarray:
    """Definition 5 for ``length``-patterns given by row keys, against ``high``.

    ``keys`` must use ``high.radix`` (both come from one book).
    """
    if length == 1:
        return np.ones(len(keys), dtype=bool)
    high_keys = high.keys(length - 1)
    if not len(high_keys):
        return np.zeros(len(keys), dtype=bool)
    radix = high.radix
    if fits_int64(radix, length):
        prefix = keys // radix
        suffix = keys % np.int64(radix ** (length - 1))
    else:
        cells = cells_from_keys(keys, length, radix)
        prefix = row_keys(cells[:, :-1], radix)
        suffix = row_keys(cells[:, 1:], radix)
    return member(high_keys, prefix) | member(high_keys, suffix)


def prune_low_patterns(
    low: PatternSet, high: PatternSet
) -> tuple[PatternSet, PatternSet]:
    """Partition low patterns into (kept 1-extension patterns, pruned rest).

    The caller removes the pruned ones from ``Q``; their exact scores stay
    cached in the :class:`~repro.core.topk.PatternBook` so a later
    regeneration is free.
    """
    kept, pruned = {}, {}
    for length, rows in low.by_length.items():
        ok = one_extension_mask(length, rows.keys, high)
        kept[length] = rows.take(ok)
        pruned[length] = rows.take(~ok)
    return PatternSet(kept, low.radix), PatternSet(pruned, low.radix)
