"""Output checks.  Each returns ``None`` when the answer is right, else a
one-line description of what is wrong; a failed check fails the run.

Every comparison is exact (``==`` on float64): the program promises the
same float for the same pattern on the same index, whichever kernel
backend produced it, because every backend accumulates in one documented
order.
"""

from __future__ import annotations

TopK = list[tuple[tuple[int, ...], float]]


def topk_repeats(repetitions: list[TopK]) -> str | None:
    """Every repetition of a mine returned the same top-k, cells and NM."""
    if not repetitions:
        return "no repetitions to compare"
    first = repetitions[0]
    for i, topk in enumerate(repetitions[1:], start=1):
        if topk != first:
            return f"repetition {i} top-k differs from repetition 0"
    return None


def rescored_equal(topk: TopK, rescored: list[float]) -> str | None:
    """The benchmark's reference re-score reproduces every mined NM bit-for-bit."""
    if len(rescored) != len(topk):
        return f"re-scored {len(rescored)} values for a top-{len(topk)}"
    bad = [
        (cells, nm, float(ref))
        for (cells, nm), ref in zip(topk, rescored)
        if nm != float(ref)
    ]
    if bad:
        from repro.testkit.oracle import ulps_between

        worst = max(ulps_between(nm, ref) for _, nm, ref in bad)
        cells, nm, ref = bad[0]
        return (
            f"{len(bad)}/{len(topk)} NM values differ from the reference "
            f"re-score (worst {worst} ULP; e.g. {list(cells)}: "
            f"mined {nm!r}, reference {ref!r})"
        )
    return None


def score_sample_equal(
    answered: dict[int, list[float]], expected: dict[int, list[float]]
) -> str | None:
    """Sampled ``score`` responses equal the local engine's ``nm_batch``."""
    if not expected:
        return "empty score sample"
    for rid, want in expected.items():
        got = answered.get(rid)
        if got is None:
            return f"sampled request {rid} has no successful response"
        if [float(v) for v in got] != [float(v) for v in want]:
            return f"request {rid}: served {got!r}, local engine {want!r}"
    return None


def republish_equal(got: TopK, want: TopK) -> str | None:
    """The last republished top-k equals a cold mine over the final window."""
    if got != want:
        return f"republished top-k {got!r} != cold mine {want!r}"
    return None
