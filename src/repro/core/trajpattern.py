"""The TrajPattern algorithm (paper section 4).

Mines the ``k`` trajectory patterns with the largest normalised match from a
set of imprecise trajectories.  The Apriori property does not hold for NM,
so the miner is built on the weaker **min-max** property (Property 1):

    ``NM(P1 + P2) <= (|P1| NM(P1) + |P2| NM(P2)) / (|P1| + |P2|)
                  <= max(NM(P1), NM(P2))``

Outline (section 4, observations 1-3):

1. Seed ``Q`` with all singular patterns over the active grid alphabet and
   set the threshold ``omega`` to the k-th largest NM.
2. Repeatedly extend every *high* pattern (NM >= omega) with every pattern
   in ``Q`` on both sides, score the new candidates, update ``omega`` and
   the high/low split, and prune low patterns that do not satisfy the
   1-extension property (section 4.1).
3. Stop when neither the high set nor the set of *relevant* extension
   partners (high patterns plus lows satisfying the 1-extension property,
   the only partners Lemma 1 allows in an answer) changes.  High-set
   stability alone is not enough: a low added in the final iteration is a
   new extension partner, and by the min-max property a top-k pattern may
   decompose as high + low.  Report the top-k and cluster them into
   pattern groups (section 4.2).

Lazy bound-based scoring (``use_bound_pruning``, on by default): a candidate
whose min-max weighted-mean upper bound falls below ``omega`` is *provably*
low, so its exact NM is never needed -- it is kept in ``Q`` with its bound
when it satisfies the 1-extension property (Lemma 1 requires those to stay
available as extension partners) and discarded otherwise.  Every pattern
that can influence ``omega`` or the answer is evaluated exactly, so the
mined top-k is unchanged; the test suite checks both modes against a
brute-force oracle.  Partner scanning uses the same bound: for a high
pattern ``P`` only partners whose value can lift the concatenation bound to
``omega`` are considered, found by binary search over per-length sorted
partner lists.  Discarded combinations are regenerated automatically if an
end sub-pattern later turns high (every 1-extension of a high pattern is
re-emitted each iteration the pattern stays high).

The control plane is columnar (see :mod:`repro.core.topk`): one iteration
is a few array passes, not a loop per candidate.  Extensions are emitted by
broadcasting high-pattern row keys against partner row keys, in the order
of the paper's loop (high patterns best first, each one's singular
extensions, then its partners best first, right extension before left).
Duplicates are dropped by first occurrence (``np.unique(...,
return_index=True)``), so a candidate reachable from several
decompositions keeps the bound of the first one the loop meets.

Both pruning mechanisms are independently switchable for the ablation
benchmarks: ``use_extension_pruning`` (section 4.1) and
``use_bound_pruning`` (above; disabling it reproduces the paper's literal
evaluate-everything loop).

Candidate scoring is batched: every iteration's exact-evaluation list is
scored in one :meth:`~repro.core.engine.NMEngine.nm_batch` call (shared
column slices across the whole frontier) instead of one engine pass per
candidate.  :class:`MinerStats` records the batch sizes and the evaluation
wall time (``eval_batches``, ``max_batch_size``, ``eval_time_s``) and
:class:`IterationTrace` carries the per-iteration ``batch_size`` /
``eval_time_s`` so the speedup is observable in the benches.

Observability: :class:`MinerStats` keeps its evaluation bookkeeping on a
private always-enabled :class:`~repro.obs.metrics.MetricsRegistry`
(``stats.metrics``) -- ``eval_batches`` / ``max_batch_size`` /
``eval_time_s`` are thin read-only views over it -- and the run is folded
into the process-global registry when mining finishes.  The same registry
times the loop's phases (:data:`PHASES`: candidate generation, 1-extension
pruning, partner sets, evaluation, top-k maintenance); they add up to
nearly all of ``wall_time_s``.  Each main-loop round runs inside a
``miner.iteration`` span with one child span per phase (candidate scoring
is ``miner.evaluate``), and convergence / pruning decisions are logged on
the ``repro.miner`` logger.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.engine import NMEngine
from repro.core.groups import PatternGroup, discover_pattern_groups
from repro.core.pattern import TrajectoryPattern
from repro.core.pruning import one_extension_mask, prune_low_patterns
from repro.core.topk import (
    PatternBook,
    PatternRows,
    PatternSet,
    cells_from_keys,
    fits_int64,
    member,
    row_keys,
)
from repro.obs import logs, metrics, tracing
from repro.obs.metrics import MetricsRegistry

_log = logs.get_logger("miner")

#: The mining loop's phases, each timed on ``MinerStats.metrics`` as
#: ``miner.<phase>_ns`` (evaluation keeps its historical ``miner.eval_ns``).
PHASES = ("generate", "prune_1ext", "partners", "evaluate", "topk")


def _phase_timer(phase: str) -> str:
    return "miner.eval_ns" if phase == "evaluate" else f"miner.{phase}_ns"


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[0], b[0], a[1], b[1], ...``"""
    out = np.empty((len(a), 2), dtype=a.dtype)
    out[:, 0] = a
    out[:, 1] = b
    return out.ravel()


@dataclass
class IterationTrace:
    """Snapshot of the miner's state after one main-loop iteration.

    ``batch_size`` is the number of candidates the iteration scored through
    the engine's batched path in one call, and ``eval_time_s`` the wall time
    that evaluation took -- together they make the batching speedup visible
    per iteration.
    """

    iteration: int
    omega: float
    n_high: int
    n_exact: int
    n_bounded: int
    candidates_evaluated: int
    patterns_pruned: int
    batch_size: int = 0
    eval_time_s: float = 0.0


@dataclass
class MinerStats:
    """Instrumentation collected during a mining run (used by the benches).

    Evaluation bookkeeping lives on ``metrics``, a private always-enabled
    :class:`~repro.obs.metrics.MetricsRegistry` owned by the run (the
    process-global registry stays disabled by default, and a miner must
    keep exact numbers regardless).  The historical dataclass API is a
    thin view over it: ``eval_batches`` counts calls into the engine's
    batched evaluation, ``max_batch_size`` is the largest candidate batch
    scored in one call, and ``eval_time_s`` the total wall time spent
    inside candidate evaluation (a subset of ``wall_time_s``).  The other
    phases of :data:`PHASES` have the same kind of view
    (``generate_time_s`` ... ``topk_time_s``).
    """

    iterations: int = 0
    candidates_generated: int = 0
    candidates_evaluated: int = 0
    candidates_bounded: int = 0
    candidates_bound_pruned: int = 0
    candidates_cached: int = 0
    patterns_pruned: int = 0
    final_q_size: int = 0
    wall_time_s: float = 0.0
    trace: list[IterationTrace] = field(default_factory=list)
    metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry(enabled=True),
        repr=False,
        compare=False,
    )

    @property
    def eval_batches(self) -> int:
        """Calls into the engine's batched evaluation path."""
        return self.metrics.counter("miner.eval_batches").value

    @property
    def max_batch_size(self) -> int:
        """Largest candidate batch scored in one engine call."""
        histogram = self.metrics.histogram("miner.batch_size")
        return int(histogram.max) if histogram.count else 0

    def phase_time_s(self, phase: str) -> float:
        """Total wall time of one of :data:`PHASES`, in seconds."""
        return self.metrics.histogram(_phase_timer(phase), unit="ns").total_seconds

    @property
    def eval_time_s(self) -> float:
        """Total wall time inside candidate evaluation, in seconds."""
        return self.phase_time_s("evaluate")

    @property
    def generate_time_s(self) -> float:
        """Candidate emission, deduplication and classification."""
        return self.phase_time_s("generate")

    @property
    def prune_1ext_time_s(self) -> float:
        """1-extension pruning of the low patterns (section 4.1)."""
        return self.phase_time_s("prune_1ext")

    @property
    def partners_time_s(self) -> float:
        """Partner lists and the relevant-partner convergence check."""
        return self.phase_time_s("partners")

    @property
    def topk_time_s(self) -> float:
        """Book maintenance: inserting scores, ``omega``, the split, the answer."""
        return self.phase_time_s("topk")


@dataclass
class MiningResult:
    """Outcome of a mining run: ranked patterns, optional groups, stats."""

    patterns: list[TrajectoryPattern]
    nm_values: list[float]
    omega: float
    stats: MinerStats
    groups: list[PatternGroup] | None = None

    def __len__(self) -> int:
        return len(self.patterns)

    def as_pairs(self) -> list[tuple[TrajectoryPattern, float]]:
        """(pattern, NM) pairs, best first."""
        return list(zip(self.patterns, self.nm_values))

    def mean_length(self) -> float:
        """Average pattern length (the statistic reported in section 6.1)."""
        if not self.patterns:
            return 0.0
        return sum(len(p) for p in self.patterns) / len(self.patterns)


def check_parameters(
    k: int, min_length: int = 1, max_length: int | None = None, max_iterations: int = 64
) -> None:
    """Raise ``ValueError`` for parameters :class:`TrajPatternMiner` refuses."""
    if k <= 0:
        raise ValueError("k must be positive")
    if min_length < 1:
        raise ValueError("min_length must be at least 1")
    if max_length is not None and max_length < min_length:
        raise ValueError("max_length must be >= min_length")
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")


class TrajPatternMiner:
    """Top-k NM pattern miner (the paper's TrajPattern algorithm).

    Parameters
    ----------
    engine:
        The NM evaluation engine over the target dataset.
    k:
        Number of patterns to mine.
    min_length:
        Section 5 variant: report only patterns of at least this length
        (``omega`` is then the k-th best NM among such patterns).
    max_length:
        Optional hard cap on candidate length; ``None`` reproduces the
        paper exactly (length bounded only by convergence).
    use_extension_pruning:
        The 1-extension pruning of section 4.1 (ablation A1).
    use_bound_pruning:
        Lazy bound-based candidate scoring (ablation A2; see module docs).
    max_iterations:
        Safety valve; the algorithm converges well before this in practice.
    """

    def __init__(
        self,
        engine: NMEngine,
        k: int,
        min_length: int = 1,
        max_length: int | None = None,
        use_extension_pruning: bool = True,
        use_bound_pruning: bool = True,
        max_iterations: int = 64,
    ) -> None:
        check_parameters(k, min_length, max_length, max_iterations)
        self.engine = engine
        self.k = k
        self.min_length = min_length
        self.max_length = max_length
        self.use_extension_pruning = use_extension_pruning
        self.use_bound_pruning = use_bound_pruning
        self.max_iterations = max_iterations
        # Pinned at the start of every run; evaluation batches check it so
        # an in-place index mutation mid-mine raises StaleIndexError instead
        # of silently scoring a mix of index generations.  None for engines
        # without epochs (parallel/distributed front-ends).
        self._engine_epoch: int | None = None

    # -- public API ------------------------------------------------------------

    def mine(
        self, discover_groups: bool = False, gamma: float | None = None
    ) -> MiningResult:
        """Run the algorithm and return the ranked top-k patterns.

        Parameters
        ----------
        discover_groups:
            Also cluster the mined patterns into pattern groups
            (section 4.2).
        gamma:
            Maximum similar-pattern distance for grouping; defaults to
            ``3 * max sigma`` per the section 5 discussion.
        """
        with tracing.span(
            "miner.mine", k=self.k, min_length=self.min_length
        ) as root, metrics.timer("miner.mine_ns"):
            result = self._mine(discover_groups, gamma)
            root.set_attr("iterations", result.stats.iterations)
            root.set_attr("omega", result.omega)
        # Fold the run's private bookkeeping into the process-global
        # registry (no-op while that stays disabled, the default).
        metrics.get_registry().merge(result.stats.metrics)
        return result

    @contextmanager
    def _phase(self, stats: MinerStats, phase: str) -> Iterator[None]:
        """Time one phase of :data:`PHASES` and trace it as ``miner.<phase>``."""
        with tracing.span(f"miner.{phase}"), stats.metrics.timer(_phase_timer(phase)):
            yield

    def _mine(self, discover_groups: bool, gamma: float | None) -> MiningResult:
        stats = MinerStats()
        t0 = time.perf_counter()
        self._engine_epoch = getattr(self.engine, "index_epoch", None)
        book = PatternBook(self.k, self.min_length)

        # Seeding: all singular patterns over the active alphabet.  Inactive
        # cells all tie at the floor NM and can never displace an active
        # cell from the top-k, so they are not materialised (DESIGN.md 4.3).
        with stats.metrics.timer(_phase_timer("evaluate")):
            table = self.engine.singular_nm_table()
        if not table:
            raise ValueError(
                "no active grid cells: the grid does not overlap the dataset"
            )
        with self._phase(stats, "topk"):
            cells = np.array(sorted(table), dtype=np.int64)
            values = np.array([table[c] for c in cells.tolist()], dtype=np.float64)
            book.insert_exact(cells[:, None], values)
            stats.candidates_evaluated += len(cells)
        # Singular extension partners, in cell order (a length-1 row key
        # is the cell id under any radix).
        self._singulars = PatternRows(cells, values)
        # Keys (per length) of the high patterns whose singular extensions
        # were already emitted; the alphabet is static, so this never
        # needs redoing.
        self._singular_extended: dict[int, np.ndarray] = {}

        if self.min_length > 1:
            self._warm_start(book, stats)
        with self._phase(stats, "topk"):
            book.update_omega()
            high = book.high_patterns()

        # Convergence needs more than a stable high set: a low added to Q in
        # the last iteration is a brand-new extension partner (the min-max
        # property only forces *one* part of a decomposition to be high), so
        # stopping on high-set stability alone can miss top-k patterns of
        # the form high + fresh-low.  By Lemma 1 the partners that can ever
        # matter are high patterns and lows satisfying the 1-extension
        # property -- so the loop is at a fixed point exactly when the high
        # set and that *relevant* partner set both stop changing.  (Full Q
        # stability would also be correct but ruins termination in the
        # no-pruning ablation modes, where junk lows accumulate forever.)
        with self._phase(stats, "partners"):
            prev_partners = self._relevant_partners(book, high)
        converged = False
        for _ in range(self.max_iterations):
            stats.iterations += 1
            evaluated_before = stats.candidates_evaluated
            pruned_before = stats.patterns_pruned
            eval_time_before = stats.eval_time_s
            with tracing.span(
                "miner.iteration", iteration=stats.iterations
            ) as it_span:
                new_high = self._iterate(book, high, stats)
                with self._phase(stats, "partners"):
                    # After 1-extension pruning every surviving low
                    # satisfies the property, so all of Q is relevant.
                    partners = (
                        book.membership()
                        if self.use_extension_pruning
                        else self._relevant_partners(book, new_high)
                    )
                with self._phase(stats, "topk"):
                    trace = IterationTrace(
                        iteration=stats.iterations,
                        omega=book.omega,
                        n_high=len(new_high),
                        n_exact=book.n_exact,
                        n_bounded=book.n_bounded,
                        candidates_evaluated=stats.candidates_evaluated
                        - evaluated_before,
                        patterns_pruned=stats.patterns_pruned - pruned_before,
                        batch_size=stats.candidates_evaluated - evaluated_before,
                        eval_time_s=stats.eval_time_s - eval_time_before,
                    )
                it_span.set_attr("omega", trace.omega)
                it_span.set_attr("n_high", trace.n_high)
            stats.trace.append(trace)
            _log.debug(
                "miner iteration",
                extra={
                    "iteration": trace.iteration,
                    "omega": trace.omega,
                    "n_high": trace.n_high,
                    "candidates_evaluated": trace.candidates_evaluated,
                    "patterns_pruned": trace.patterns_pruned,
                },
            )
            if partners == prev_partners and new_high == high:
                high = new_high
                converged = True
                break
            prev_partners = partners
            high = new_high

        with self._phase(stats, "topk"):
            stats.final_q_size = len(book)
            top = book.top_k()
        stats.wall_time_s = time.perf_counter() - t0
        _log.info(
            "mining finished",
            extra={
                "converged": converged,
                "iterations": stats.iterations,
                "omega": book.omega,
                "candidates_evaluated": stats.candidates_evaluated,
                "candidates_bound_pruned": stats.candidates_bound_pruned,
                "patterns_pruned": stats.patterns_pruned,
                "final_q_size": stats.final_q_size,
            },
        )

        patterns = [TrajectoryPattern(cells) for cells, _ in top]
        nm_values = [nm for _, nm in top]
        groups = None
        if discover_groups:
            if gamma is None:
                gamma = 3.0 * self.engine.dataset.max_sigma()
            groups = discover_pattern_groups(patterns, self.engine.grid, gamma)
        return MiningResult(
            patterns=patterns,
            nm_values=nm_values,
            omega=book.omega,
            stats=stats,
            groups=groups,
        )

    # -- warm start for the min-length variant ----------------------------------------

    #: Cap on warm-start candidates (most frequent discretised n-grams).
    WARM_START_CAP = 2000

    def _warm_start(self, book: PatternBook, stats: MinerStats) -> None:
        """Bootstrap ``omega`` for the section 5 minimum-length variant.

        Until ``k`` patterns of length >= ``min_length`` exist, ``omega`` is
        ``-inf`` and every candidate must be evaluated -- a full cross
        product of the alphabet per iteration.  Seeding ``Q`` with the most
        frequent *observed* cell n-grams (each trajectory's most-likely cell
        sequence) establishes a realistic threshold immediately.  This is
        purely a lower-bound warm start: every seed is evaluated exactly, so
        the final answer is unchanged; only the amount of provably-useless
        evaluation shrinks.
        """
        length = self.min_length
        with self._phase(stats, "generate"):
            grid = self.engine.grid
            windows = [
                np.lib.stride_tricks.sliding_window_view(cells, length)
                for cells in (
                    np.asarray(grid.locate_many(traj.means), dtype=np.int64)
                    for traj in self.engine.dataset
                )
                if len(cells) >= length
            ]
            if not windows:
                return
            # Most frequent first, ties in cell order (np.unique sorts rows).
            grams, counts = np.unique(
                np.concatenate(windows), axis=0, return_counts=True
            )
            grams = grams[np.argsort(-counts, kind="stable")[: self.WARM_START_CAP]]
            batch = book.encode(grams[~book.is_evaluated(grams)])
        self._evaluate_batch(book, [batch], stats)

    # -- convergence ------------------------------------------------------------------

    @staticmethod
    def _relevant_partners(book: PatternBook, high: PatternSet) -> PatternSet:
        """The active patterns that can still seed new candidates (Lemma 1).

        Every answer pattern is an extension of a high pattern by a high
        pattern or by a low satisfying the 1-extension property, so only
        those partners participate in the convergence check.  Lows that fail
        the property may stay in ``Q`` (when extension pruning is off)
        without keeping the loop alive.
        """
        active = book.membership()
        return PatternSet(
            {
                length: rows.take(
                    member(high.keys(length), rows.keys)
                    | one_extension_mask(length, rows.keys, high)
                )
                for length, rows in active.by_length.items()
            },
            active.radix,
        )

    # -- one iteration of the main loop ---------------------------------------------

    def _iterate(
        self, book: PatternBook, high: PatternSet, stats: MinerStats
    ) -> PatternSet:
        with self._phase(stats, "partners"):
            partners = book.partners_by_length(self._partner_floor(book, high))
        with self._phase(stats, "generate"):
            to_evaluate = self._generate_candidates(book, high, partners, stats)
        self._evaluate_batch(book, to_evaluate, stats)

        with self._phase(stats, "topk"):
            book.update_omega()
            new_high = book.high_patterns()

        if self.use_extension_pruning:
            with self._phase(stats, "prune_1ext"):
                _, pruned = prune_low_patterns(book.low_patterns(), new_high)
                for length, rows in pruned.by_length.items():
                    book.set_active(length, rows.keys, False)
                stats.patterns_pruned += len(pruned)
        return new_high

    def _partner_floor(self, book: PatternBook, high: PatternSet) -> float:
        """A value below which no pattern can be a useful extension partner.

        A high ``i``-pattern valued ``v`` needs ``j``-partners valued at
        least ``tau = omega - (i / j) (v - omega)``, lowest at ``j = 2``.
        The margin keeps the floor below every rounded ``tau``.
        """
        omega = book.omega
        if not self.use_bound_pruning or math.isinf(omega) or not len(high):
            return -math.inf
        floor = min(
            float((((i + 2) * omega - i * rows.values) / 2).min())
            for i, rows in high.by_length.items()
        )
        return floor - 1e-9 * (abs(floor) + 1.0)

    def _evaluate_batch(
        self,
        book: PatternBook,
        batches: list[tuple[int, np.ndarray]],
        stats: MinerStats,
    ) -> None:
        """Score ``(length, row keys)`` batches, in order, through the engine."""
        with self._phase(stats, "generate"):
            batches = [(length, keys) for length, keys in batches if len(keys)]
            patterns = [
                TrajectoryPattern(cells)
                for length, keys in batches
                for cells in cells_from_keys(keys, length, book.radix).tolist()
            ]
        if not patterns:
            return
        if self._engine_epoch is not None:
            self.engine.require_epoch(self._engine_epoch)
        with tracing.span("miner.evaluate", n_candidates=len(patterns)):
            with stats.metrics.timer(_phase_timer("evaluate")):
                nm_values = self.engine.nm_batch(patterns)
        stats.metrics.counter("miner.eval_batches").inc()
        stats.metrics.histogram("miner.batch_size").observe(len(patterns))
        with self._phase(stats, "topk"):
            start = 0
            for length, keys in batches:
                book.insert(length, keys, nm_values[start : start + len(keys)], exact=True)
                start += len(keys)
            stats.candidates_evaluated += len(patterns)

    # -- candidate generation -------------------------------------------------------

    def _generate_candidates(
        self,
        book: PatternBook,
        high: PatternSet,
        partners: dict[int, PatternRows],
        stats: MinerStats,
    ) -> list[tuple[int, np.ndarray]]:
        """Both-sided extensions of high patterns by patterns in ``Q``.

        Provably-low candidates satisfying the 1-extension property go into
        the book with their upper bound, cached exact scores are
        reactivated, and the rest -- the candidates to evaluate exactly --
        are returned as ``(length, row keys)`` per length, in
        first-occurrence order.

        The emission order is the paper's loop: high patterns by
        :func:`~repro.core.topk.sort_key`; for each, (a) its extensions by
        every singular pattern in cell order, once per run, then (b) its
        extensions by longer partners, best first, stopping where the
        concatenation bound drops below ``omega`` -- right extension before
        left each time.  Only same-length emissions can collide, and two
        emissions of one length come from different high patterns or from
        one block, so ``rank * stride + 2 * index + side`` orders them.
        """
        if not len(high):
            return []
        omega = book.omega
        exhaustive = not self.use_bound_pruning or math.isinf(omega)
        radix = book.radix
        sources = {1: self._singulars}
        sources.update((j, rows) for j, rows in partners.items() if j >= 2)
        stride = 2 * max(len(rows.keys) for rows in sources.values())

        # High patterns in sort_key order (-NM, length, cells): row r of
        # these arrays has rank r.  Bucket rows are already in cell order.
        lengths = sorted(high.by_length)
        sizes = [len(high.by_length[i].keys) for i in lengths]
        h_len = np.repeat(lengths, sizes)
        h_pos = np.concatenate([np.arange(n) for n in sizes])
        h_val = np.concatenate([high.by_length[i].values for i in lengths])
        order = np.lexsort((h_pos, h_len, -h_val))
        h_len, h_pos, h_val = h_len[order], h_pos[order], h_val[order]
        h_keys = np.zeros(len(order), dtype=np.int64)  # single-word keys only
        fresh = np.zeros(len(order), dtype=bool)
        for i in lengths:
            at = np.flatnonzero(h_len == i)
            keys = high.by_length[i].keys[h_pos[at]]
            done = self._singular_extended.get(i, keys[:0])
            fresh[at] = ~member(done, keys)
            if fresh[at].any():
                self._singular_extended[i] = np.sort(
                    np.concatenate([done, keys[fresh[at]]])
                )
            if fits_int64(radix, i):
                h_keys[at] = keys
        max_length = int(h_len.max()) + max(sources)
        single_word = np.array([fits_int64(radix, n) for n in range(max_length + 1)])
        powers = np.array(
            [radix**n if single_word[n] else 0 for n in range(max_length + 1)],
            dtype=np.int64,
        )

        # One pass per partner length j over every high pattern at once.
        columns: list[list[np.ndarray]] = [[], [], [], [], []]
        multiword: dict[int, list[tuple[np.ndarray, ...]]] = {}
        for j, q in sources.items():
            if j == 1:
                cutoff = np.where(fresh, len(q.keys), 0)
            elif exhaustive:
                cutoff = np.full(len(h_len), len(q.keys))
            else:
                tau = ((h_len + j) * omega - h_len * h_val) / j
                # Partner values are sorted descending: count those >= tau.
                cutoff = np.searchsorted(-q.values, -tau, side="right")
            if not cutoff.any():
                continue
            rows = np.repeat(np.arange(len(cutoff)), cutoff)
            idx = np.arange(len(rows)) - (np.cumsum(cutoff) - cutoff)[rows]
            i_rows = h_len[rows]
            seq = rows * stride + 2 * idx
            bound = (i_rows * h_val[rows] + j * q.values[idx]) / (i_rows + j)
            fast = single_word[i_rows + j]
            if not fast.all():
                slow = ~fast
                for i in np.unique(i_rows[slow]).tolist():
                    sel = slow & (i_rows == i)
                    p_cells = high.cells(i)[h_pos[rows[sel]]]
                    q_cells = cells_from_keys(q.keys[idx[sel]], j, radix)
                    right = row_keys(np.hstack([p_cells, q_cells]), radix)
                    left = row_keys(np.hstack([q_cells, p_cells]), radix)
                    multiword.setdefault(i + j, []).append(
                        (_interleave(right, left), _interleave(seq[sel], seq[sel] + 1),
                         np.repeat(bound[sel], 2))
                    )
                if not fast.any():
                    continue
                rows, idx, i_rows = rows[fast], idx[fast], i_rows[fast]
                seq, bound = seq[fast], bound[fast]
            p_keys, q_keys = h_keys[rows], q.keys[idx]
            for column, value in zip(
                columns,
                (
                    p_keys * powers[j] + q_keys,  # right extension
                    q_keys * powers[i_rows] + p_keys,  # left extension
                    seq,
                    bound,
                    i_rows + j,
                ),
            ):
                column.append(value)

        # Group single-word emissions by candidate length, in loop order.
        by_length: dict[int, tuple[np.ndarray, ...]] = {}
        if columns[0]:
            right, left, seq, bound, cand_len = map(np.concatenate, columns)
            keys = _interleave(right, left)
            seq = _interleave(seq, seq + 1)
            bound = np.repeat(bound, 2)
            cand_len = np.repeat(cand_len, 2)
            order = np.argsort(cand_len * (len(h_len) * stride) + seq)
            keys, seq, bound, cand_len = keys[order], seq[order], bound[order], cand_len[order]
            cuts = np.flatnonzero(np.diff(cand_len)) + 1
            for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(keys)]):
                by_length[int(cand_len[lo])] = (keys[lo:hi], seq[lo:hi], bound[lo:hi])
        for length, parts in multiword.items():
            keys, seq, bound = map(np.concatenate, zip(*parts))
            order = np.argsort(seq)
            by_length[length] = (keys[order], seq[order], bound[order])

        to_evaluate = []
        for length in sorted(by_length):
            keys, seq, bound = by_length[length]
            # First occurrence wins: each candidate keeps the bound the loop
            # met it with first.
            keys, first = np.unique(keys, return_index=True)
            seq, bound = seq[first], bound[first]
            stats.candidates_generated += len(keys)
            if self.max_length is not None and length > self.max_length:
                continue
            active, cached = book.lookup(length, keys)
            if cached.any():
                # Previously pruned exact patterns; restore the cached
                # scores so the 1-extension re-check sees them again.
                book.set_active(length, keys[cached], True)
                stats.candidates_cached += int(cached.sum())
            new = ~(active | cached)
            if exhaustive:
                evaluate = new
            else:
                evaluate = new & (bound >= omega)
                low = np.flatnonzero(new & ~evaluate)
                keep = one_extension_mask(length, keys[low], high)
                kept = low[keep]
                book.insert(length, keys[kept], bound[kept], exact=False)
                stats.candidates_bounded += len(kept)
                stats.candidates_bound_pruned += len(low) - len(kept)
            picked = np.flatnonzero(evaluate)
            to_evaluate.append((length, keys[picked[np.argsort(seq[picked])]]))
        return to_evaluate
