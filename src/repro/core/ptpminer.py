"""P-TPMiner: the paper's algorithm.

P-TPMiner discovers the two pattern types of the paper — temporal patterns
(``mode="tp"``) and hybrid temporal patterns (``mode="htp"``) — by a
depth-first, PrefixSpan-style search over the endpoint representation:

1. every e-sequence is losslessly converted to an endpoint sequence
   (:mod:`repro.temporal.endpoint`), reducing interval arrangements to
   plain sequence/itemset structure;
2. the search grows pattern prefixes token by token, by **S-extension**
   (open a new pointset) and **I-extension** (grow the current pointset in
   canonical token order), so every canonical pattern is generated exactly
   once;
3. validity is enforced *during generation*: a finish token is only ever
   appended when its interval is open in the prefix and the canonical
   duplicate-numbering constraint holds — no post-hoc validation scans
   (this is the structural advantage over TPrefixSpan);
4. support is counted incrementally through projection states
   (:mod:`repro.core.projection`); and
5. three pruning techniques (:mod:`repro.core.pruning`) cut candidates
   and branches before any projection work.

Support is *weighted*: each sequence carries a weight (1.0 by default),
and a pattern's support is the total weight of sequences containing it.
The probabilistic extension (:mod:`repro.core.probabilistic`) reuses the
identical search with existence probabilities as weights, so expected-
support mining is exactly as fast as deterministic mining — the property
bench F7 measures.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro import contracts
from repro.core.config import MinerConfig
from repro.core.counting import PairTables
from repro.core.projection import EMPTY_STATE, State, check_state, dedupe_states
from repro.core.pruning import PruneCounters, PruningConfig
from repro.model.database import ESequenceDatabase
from repro.model.pattern import PatternWithSupport, TemporalPattern
from repro.model.sequence import ESequence
from repro.obs import clock as obs_clock
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import provenance as obs_provenance
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.temporal.endpoint import (
    FINISH,
    POINT,
    START,
    EncodedDatabase,
)

__all__ = ["PTPMiner", "MiningResult", "mine"]

# A candidate extension: (ext_kind, sym, pocc); ext_kind 0 = I, 1 = S.
_Candidate = tuple[int, int, int]

#: One gathered root candidate with its support weight and supporter sids
#: — the unit :mod:`repro.engine` shards the level-1 fan-out by.
RootCandidates = dict[_Candidate, tuple[float, list[int]]]
_I_EXT, _S_EXT = 0, 1
_EPS = 1e-9


def _run_snapshot(
    registry: Optional[MetricsRegistry],
    counters: PruneCounters,
    *,
    patterns: int,
    elapsed: float,
    db_size: int,
    threshold: float,
) -> dict[str, Any]:
    """Finalize one run's observability snapshot (``{}`` when obs is off).

    Mirrors the :class:`PruneCounters` totals into ``search.*`` counters
    — so the snapshot's prune accounting equals the ``counters`` field
    by construction — and records run-level gauges next to whatever the
    search already streamed into the registry.
    """
    if registry is None:
        return {}
    counters.publish(registry)
    registry.gauge("run.patterns").set(patterns)
    registry.gauge("run.elapsed_s").set(elapsed)
    registry.gauge("run.db_size").set(db_size)
    registry.gauge("run.threshold").set(threshold)
    return registry.snapshot()


@dataclass(slots=True)
class MiningResult:
    """Outcome of one mining run.

    Attributes
    ----------
    patterns:
        Complete frequent patterns with their supports, in the canonical
        result order (:meth:`PatternWithSupport.sort_key`), so results of
        different miners compare with plain ``==``.
    threshold:
        The absolute support threshold actually applied.
    db_size:
        Number of sequences mined.
    elapsed:
        Wall-clock seconds spent inside the miner.
    counters:
        Search-effort accounting (:class:`PruneCounters`).
    miner / params:
        Provenance for harness tables.
    metrics:
        Observability snapshot of the run
        (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`): phase
        timings, per-depth/per-length search shape, and the ``search.*``
        mirror of ``counters``. Empty (``{}``) unless a metrics registry
        was active during the run — the zero-cost-when-off default.
    """

    patterns: list[PatternWithSupport]
    threshold: float
    db_size: int
    elapsed: float
    counters: PruneCounters
    miner: str = "P-TPMiner"
    params: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.patterns)

    def pattern_set(self) -> frozenset[TemporalPattern]:
        """The bare pattern set (for cross-miner agreement checks)."""
        return frozenset(item.pattern for item in self.patterns)

    def as_dict(self) -> dict[TemporalPattern, float]:
        """Mapping pattern -> support."""
        return {item.pattern: item.support for item in self.patterns}

    def top(self, k: int) -> list[PatternWithSupport]:
        """The ``k`` highest-support patterns."""
        return self.patterns[:k]


class PTPMiner:
    """Mine frequent temporal / hybrid temporal patterns.

    Parameters
    ----------
    min_sup:
        Relative support in ``(0, 1]`` or absolute count ``> 1``.
    mode:
        ``"tp"`` for pure interval patterns (point events are rejected —
        strip them with
        :meth:`~repro.model.database.ESequenceDatabase.without_point_events`
        first), ``"htp"`` to admit point events and mine hybrid patterns.
    pruning:
        Which pruning techniques run (default: all three).
    max_tokens:
        Optional cap on pattern length in endpoint tokens.
    max_size:
        Optional cap on pattern size in event occurrences.
    max_span:
        Optional time constraint: a sequence supports a pattern only if
        it has an embedding whose endpoints all fall within a window of
        ``max_span`` original time units. (Plain mining is
        arrangement-only; ``max_span`` re-introduces duration semantics
        for domains where "A overlaps B a year apart" is meaningless.)

    Examples
    --------
    >>> from repro.model.database import ESequenceDatabase
    >>> db = ESequenceDatabase.from_event_lists(
    ...     [[(0, 4, "A"), (2, 6, "B")], [(0, 3, "A"), (1, 5, "B")]]
    ... )
    >>> result = PTPMiner(min_sup=1.0).mine(db)
    >>> sorted(str(p.pattern) for p in result.patterns)
    ['(A+) (A-)', '(A+) (B+) (A-) (B-)', '(B+) (B-)']
    """

    def __init__(
        self,
        min_sup: float = 0.1,
        *,
        mode: str = "tp",
        pruning: PruningConfig = PruningConfig.all(),
        max_tokens: Optional[int] = None,
        max_size: Optional[int] = None,
        max_span: Optional[float] = None,
    ) -> None:
        # All argument validation lives in MinerConfig.__post_init__.
        self.config = MinerConfig(
            min_sup=min_sup,
            mode=mode,
            pruning=pruning,
            max_tokens=max_tokens,
            max_size=max_size,
            max_span=max_span,
        )

    @classmethod
    def from_config(cls, config: MinerConfig) -> "PTPMiner":
        """Build a miner from a :class:`~repro.core.config.MinerConfig`.

        P-TPMiner supports the full configuration surface, so this never
        rejects a valid config (the baselines' ``from_config`` do).
        """
        miner = cls.__new__(cls)
        miner.config = config
        return miner

    @property
    def min_sup(self) -> float:
        """Support threshold (relative in ``(0, 1]`` or absolute)."""
        return self.config.min_sup

    @property
    def mode(self) -> str:
        """``"tp"`` or ``"htp"``."""
        return self.config.mode

    @property
    def pruning(self) -> PruningConfig:
        """Active pruning techniques."""
        return self.config.pruning

    @property
    def max_tokens(self) -> Optional[int]:
        """Optional cap on pattern length in endpoint tokens."""
        return self.config.max_tokens

    @property
    def max_size(self) -> Optional[int]:
        """Optional cap on pattern size in event occurrences."""
        return self.config.max_size

    @property
    def max_span(self) -> Optional[float]:
        """Optional embedding time-window constraint."""
        return self.config.max_span

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def mine(self, db: ESequenceDatabase) -> MiningResult:
        """Mine ``db`` with unit sequence weights."""
        threshold = float(db.absolute_support(self.min_sup))
        return self.mine_weighted(db, [1.0] * len(db), threshold)

    def mine_weighted(
        self,
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
    ) -> MiningResult:
        """Mine with per-sequence weights and an absolute weight threshold.

        With unit weights this is ordinary support; with existence
        probabilities it is expected support (see
        :mod:`repro.core.probabilistic`).
        """
        self._validate_weighted(db, weights, threshold)
        started = obs_clock.now()
        counters = PruneCounters()
        with obs_trace.span(
            "mine", miner="P-TPMiner", mode=self.mode, sequences=len(db)
        ):
            encoded, pairs = self._prepare(
                db, weights, threshold, counters
            )
            with obs_trace.span("search"):
                patterns = self._search(
                    encoded, weights, [float(threshold)], pairs, counters
                )
            patterns.sort(key=PatternWithSupport.sort_key)
        if contracts.checking:
            counters.check_consistency()
            self._oracle_check(db, weights, float(threshold), patterns)
        elapsed = obs_clock.now() - started
        return MiningResult(
            patterns=patterns,
            threshold=threshold,
            db_size=len(db),
            elapsed=elapsed,
            counters=counters,
            metrics=_run_snapshot(
                obs_metrics.active_registry(),
                counters,
                patterns=len(patterns),
                elapsed=elapsed,
                db_size=len(db),
                threshold=threshold,
            ),
            miner="P-TPMiner",
            params=self.config.describe(),
        )

    @staticmethod
    def _validate_weighted(
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
    ) -> None:
        """Shared input validation for weighted mining entry points."""
        if len(weights) != len(db):
            raise ValueError(
                f"got {len(weights)} weights for {len(db)} sequences"
            )
        if any(w < 0 for w in weights):
            raise ValueError("sequence weights must be non-negative")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")

    def _prepare(
        self,
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
        counters: PruneCounters,
    ) -> tuple[EncodedDatabase, Optional[PairTables]]:
        """Shared pre-search pipeline: point prune, encode, pair tables."""
        encoded = self._encode(db, weights, threshold, counters)
        return encoded, self._pair_tables(encoded, weights)

    def _encode(
        self,
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
        counters: PruneCounters,
    ) -> EncodedDatabase:
        """Point prune (accounted in ``counters``), then encode."""
        db.require_mode(self.mode)
        mining_db = db
        if self.pruning.point:
            with obs_trace.span("prune", technique="point"):
                mining_db = self._point_prune(
                    db, weights, threshold, counters
                )
        with obs_trace.span("encode"):
            return EncodedDatabase(mining_db)

    def _pair_tables(
        self, encoded: EncodedDatabase, weights: Sequence[float]
    ) -> Optional[PairTables]:
        """The pair-pruning tables, or ``None`` when pair pruning is off."""
        if not self.pruning.pair:
            return None
        with obs_trace.span("pair_tables"):
            return PairTables(encoded, weights)

    # ------------------------------------------------------------------
    # sharded execution hooks (used by repro.engine)
    # ------------------------------------------------------------------
    def plan_root(
        self,
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
    ) -> tuple[EncodedDatabase, PruneCounters, RootCandidates]:
        """Run the root of the search once: the parent half of sharding.

        Validates inputs, applies point pruning, encodes the pruned
        database, and gathers the level-1 (root) candidate extensions
        with full root-node accounting. The returned encoded database
        is what every shard worker searches (:mod:`repro.engine` hands
        it over once per worker) and the candidate map is what the
        engine partitions into :class:`ShardTask`s; the returned
        counters are the parent's share of the final merged
        :class:`~repro.core.pruning.PruneCounters`.

        No pair tables are built here: pair pruning only applies to a
        non-empty prefix, so the root gather never reads them. Workers
        build them (see :meth:`search_shard`).

        The candidate map may be empty — when the root postfix branch
        bound already proves no pattern can be frequent — in which case
        there is nothing to shard.
        """
        self._validate_weighted(db, weights, threshold)
        counters = PruneCounters()
        encoded = self._encode(db, weights, threshold, counters)
        gathered: list[RootCandidates] = []
        with obs_trace.span("plan_root"):
            self._search(
                encoded,
                weights,
                [float(threshold)],
                None,
                counters,
                root_gather_out=gathered,
            )
        return encoded, counters, gathered[0] if gathered else {}

    def search_shard(
        self,
        encoded: EncodedDatabase,
        weights: Sequence[float],
        threshold: float,
        candidates: RootCandidates,
    ) -> tuple[list[PatternWithSupport], PruneCounters]:
        """Expand a shard of root candidates: the worker half of sharding.

        ``encoded`` must be the encoded database returned by
        :meth:`plan_root` and ``candidates`` a subset of its root
        candidate map. The search only reads ``encoded``. Skips point
        pruning, encoding and root-node accounting — all done once by
        the parent — and returns this shard's unsorted patterns plus
        its share of the counters.

        The pair tables are built here, once per call, when pair
        pruning is on: the parent's root gather never reads them, and
        workers build them in parallel instead of having them shipped.

        Live shard telemetry (:mod:`repro.obs.live`) needs no hook
        here: the worker's live sink subscribes to the search's
        ``root_done`` event.
        """
        counters = PruneCounters()
        pairs = self._pair_tables(encoded, weights)
        with obs_trace.span("search", shard_candidates=len(candidates)):
            patterns = self._search(
                encoded,
                weights,
                [float(threshold)],
                pairs,
                counters,
                root_candidates=candidates,
            )
        return patterns, counters

    def mine_top_k(
        self,
        db: ESequenceDatabase,
        k: int,
        *,
        min_size: int = 1,
        min_sup: float = 1.0,
    ) -> MiningResult:
        """Mine the ``k`` highest-support complete patterns.

        Uses dynamic threshold raising: once ``k`` qualifying patterns
        (``size >= min_size``) are on the heap, the search threshold
        jumps to the k-th best support, pruning everything that cannot
        enter the top-k. Ties at the k-th support are broken by the
        canonical result order, so the output matches the first ``k``
        rows of an exhaustive mine.

        ``min_sup`` is an absolute floor (defaults to support 1).
        """
        import heapq

        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if min_size < 1:
            raise ValueError(f"min_size must be >= 1, got {min_size}")
        started = obs_clock.now()
        counters = PruneCounters()
        weights = [1.0] * len(db)
        threshold_box = [float(min_sup)]
        heap: list[float] = []

        def on_emit(pattern: TemporalPattern, support: float) -> None:
            if pattern.size < min_size:
                return
            heapq.heappush(heap, support)
            if len(heap) > k:
                heapq.heappop(heap)
            if len(heap) == k:
                threshold_box[0] = max(threshold_box[0], heap[0])

        db.require_mode(self.mode)
        with obs_trace.span(
            "mine", miner="P-TPMiner(top-k)", mode=self.mode, k=k
        ):
            encoded, pairs = self._prepare(
                db, weights, threshold_box[0], counters
            )
            with obs_trace.span("search"):
                patterns = self._search(
                    encoded, weights, threshold_box, pairs, counters,
                    on_emit=on_emit,
                )
        qualifying = [
            item
            for item in patterns
            if item.pattern.size >= min_size
            and item.support + _EPS >= threshold_box[0]
        ]
        qualifying.sort(key=PatternWithSupport.sort_key)
        result = qualifying[:k]
        elapsed = obs_clock.now() - started
        return MiningResult(
            patterns=result,
            threshold=threshold_box[0],
            db_size=len(db),
            elapsed=elapsed,
            counters=counters,
            metrics=_run_snapshot(
                obs_metrics.active_registry(),
                counters,
                patterns=len(result),
                elapsed=elapsed,
                db_size=len(db),
                threshold=threshold_box[0],
            ),
            miner="P-TPMiner(top-k)",
            params={
                "k": k,
                "min_size": min_size,
                "mode": self.mode,
                "pruning": self.pruning.describe(),
                "max_span": self.max_span,
            },
        )

    # ------------------------------------------------------------------
    # runtime contracts
    # ------------------------------------------------------------------
    #: Oracle cross-check size caps: the brute-force miner is exponential
    #: in sequence length, so the pruning-soundness contract only fires on
    #: inputs it can enumerate quickly.
    _ORACLE_MAX_SEQUENCES = 16
    _ORACLE_MAX_SEQ_EVENTS = 7
    _ORACLE_MAX_TOTAL_EVENTS = 48

    def _oracle_check(
        self,
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
        patterns: list[PatternWithSupport],
    ) -> None:
        """Contract: pruning soundness against the brute-force oracle.

        On small unit-weight inputs, the pruned search must return
        exactly the pattern set (and supports) that exhaustive
        enumeration finds — i.e. no pruning path ever dropped a valid
        frequent pattern, and nothing spurious was emitted. Skipped when
        the input is too large to enumerate or uses features the oracle
        does not model (non-unit weights, ``max_tokens``, ``max_span``).
        """
        if self.max_tokens is not None or self.max_span is not None:
            return
        if threshold != int(threshold):
            return
        if any(weight != 1.0 for weight in weights):
            return
        num_sequences = len(db)
        if not 0 < num_sequences <= self._ORACLE_MAX_SEQUENCES:
            return
        sizes = [len(seq.events) for seq in db]
        if (
            max(sizes, default=0) > self._ORACLE_MAX_SEQ_EVENTS
            or sum(sizes) > self._ORACLE_MAX_TOTAL_EVENTS
        ):
            return
        from repro.baselines.bruteforce import BruteForceMiner

        absolute = int(threshold)
        # BruteForceMiner reads min_sup <= 1 as a relative frequency, so
        # express "absolute 1" as a fraction that ceils back to 1.
        min_sup = float(absolute) if absolute > 1 else 0.5 / num_sequences
        oracle = BruteForceMiner(
            min_sup, mode=self.mode, max_size=self.max_size
        ).mine(db)
        expected = {item.pattern: float(item.support) for item in oracle.patterns}
        actual = {item.pattern: float(item.support) for item in patterns}
        contracts.check(
            actual == expected,
            "pruned search disagrees with the brute-force oracle",
            details=lambda: (
                f"missing={sorted(str(p) for p in set(expected) - set(actual))[:5]}, "
                f"spurious={sorted(str(p) for p in set(actual) - set(expected))[:5]}, "
                "support_mismatches="
                f"{[(str(p), actual[p], expected[p]) for p in sorted(set(actual) & set(expected), key=str) if actual[p] != expected[p]][:5]}"
            ),
        )

    # ------------------------------------------------------------------
    # pruning 1: global point pruning
    # ------------------------------------------------------------------
    @staticmethod
    def _point_prune(
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
        counters: PruneCounters,
    ) -> ESequenceDatabase:
        """Delete events whose (label, flavour) cannot be frequent.

        Interval and point flavours of a label are counted separately
        because patterns reference them through different endpoint kinds.
        Sequences are kept (possibly empty) so sids stay aligned with the
        weight vector.
        """
        interval_df: dict[str, float] = {}
        point_df: dict[str, float] = {}
        for seq in db:
            weight = weights[seq.sid]
            ilabels = {ev.label for ev in seq if ev.is_interval}
            plabels = {ev.label for ev in seq if ev.is_point}
            for label in ilabels:
                interval_df[label] = interval_df.get(label, 0.0) + weight
            for label in plabels:
                point_df[label] = point_df.get(label, 0.0) + weight
        keep_interval = {
            label for label, w in interval_df.items() if w + _EPS >= threshold
        }
        keep_point = {
            label for label, w in point_df.items() if w + _EPS >= threshold
        }
        counters.pruned_point_labels = (
            len(interval_df)
            - len(keep_interval)
            + len(point_df)
            - len(keep_point)
        )
        prov = obs_provenance.active_collector()
        if prov is not None:
            # Point pruning runs once, in the parent (shard workers
            # search its encoding of the pruned database), so these
            # records are never duplicated across shard snapshots.
            for label in sorted(set(interval_df) - keep_interval):
                prov.record_pruned_label(
                    label, "interval", interval_df[label], threshold
                )
            for label in sorted(set(point_df) - keep_point):
                prov.record_pruned_label(
                    label, "point", point_df[label], threshold
                )
        if counters.pruned_point_labels == 0:
            return db
        filtered = [
            ESequence(
                (
                    ev
                    for ev in seq
                    if (
                        ev.label in keep_interval
                        if ev.is_interval
                        else ev.label in keep_point
                    )
                ),
                sid=seq.sid,
            )
            for seq in db
        ]
        return ESequenceDatabase(filtered, name=db.name)

    # ------------------------------------------------------------------
    # the depth-first search
    # ------------------------------------------------------------------
    def _search(
        self,
        encoded: EncodedDatabase,
        weights: Sequence[float],
        threshold_box: list[float],
        pairs: Optional[PairTables],
        counters: PruneCounters,
        on_emit: Optional[Callable[[TemporalPattern, float], None]] = None,
        *,
        root_candidates: Optional[RootCandidates] = None,
        root_gather_out: Optional[list[RootCandidates]] = None,
    ) -> list[PatternWithSupport]:
        """Run the depth-first search; see the class docstring.

        The two keyword hooks exist for :mod:`repro.engine`'s level-1
        sharding and leave the serial path untouched:

        * ``root_gather_out`` — gather the root candidates (with full
          root-node accounting: node expansion, postfix branch bound,
          candidate counters), append them to the list, and return
          without descending. The parent process runs this once.
        * ``root_candidates`` — skip root gathering *and* root-node
          accounting, and expand exactly the given candidates. A worker
          runs this on its shard of the parent's plan, so summing the
          parent's and all shards' counters reproduces the serial run's
          counters bit for bit.
        """
        sequences = encoded.sequences
        htp = self.mode == "htp"
        postfix_prune = self.pruning.postfix
        max_span = self.max_span
        max_weight = max(weights, default=0.0)
        results: list[PatternWithSupport] = []

        # Pattern state, mutated along the DFS and restored on backtrack.
        pointsets: list[list[tuple[int, int]]] = []
        next_occ: dict[int, int] = {}
        open_start_ps: dict[tuple[int, int], int] = {}  # (lab,pocc)->ps idx
        num_tokens = 0
        num_occurrences = 0

        # Observability: one event stream per search, ``None`` when no
        # collector is installed, so every recording site below costs
        # one branch on the disabled path (same discipline as
        # repro.contracts). ``obs_on`` guards the extend/project spans.
        events = obs_events.open_search(counters, encoded, pointsets)
        obs_on = obs_trace.spans_enabled()
        obs_span = obs_trace.span
        dedupe_stats = None if events is None else events.tally

        def allowed_finish(lab: int, pocc: int) -> bool:
            """Canonical duplicate rule: close lower same-pointset occs first."""
            my_ps = open_start_ps[(lab, pocc)]
            for (olab, opocc), ops in open_start_ps.items():
                if olab == lab and opocc < pocc and ops == my_ps:
                    return False
            return True

        def make_pair_ok() -> Optional[Callable[[_Candidate], bool]]:
            """Pair pruning: sym-level upper bounds vs pattern symbols.

            The pattern's symbol sets are hoisted out here (once per
            search node) so the per-candidate check is a few dict
            lookups.
            """
            if pairs is None or not pointsets:
                return None
            all_syms = frozenset(s for ps in pointsets for s, _ in ps)
            current_syms = frozenset(s for s, _ in pointsets[-1])
            earlier_syms = frozenset(
                s for ps in pointsets[:-1] for s, _ in ps
            )
            s_pair = pairs.s_pair
            i_pair = pairs.i_pair

            def pair_ok(cand: _Candidate) -> bool:
                threshold = threshold_box[0]
                ext, sym, _pocc = cand
                if ext == _S_EXT:
                    return all(
                        s_pair(a, sym) + _EPS >= threshold for a in all_syms
                    )
                if not all(
                    i_pair(a, sym) + _EPS >= threshold for a in current_syms
                ):
                    return False
                return all(
                    s_pair(a, sym) + _EPS >= threshold for a in earlier_syms
                )

            return pair_ok

        def decode_pattern() -> TemporalPattern:
            return TemporalPattern(
                (
                    (encoded.decode_token((sym, pocc)) for sym, pocc in ps)
                    for ps in pointsets
                ),
                validate=False,
            )

        def gather_candidates(
            proj: list[tuple[int, tuple[State, ...]]],
            last_token: Optional[tuple[int, int]],
        ) -> dict[_Candidate, tuple[float, list[int]]]:
            """Phase 1: one scan yielding candidate -> (weight, sids)."""
            weight_of: dict[_Candidate, float] = {}
            sids_of: dict[_Candidate, list[int]] = {}
            pair_ok = make_pair_ok()
            # Pair pruning applies per candidate, between discovery and
            # accumulation; the pattern-side symbol sets are hoisted in
            # make_pair_ok() so each check is a handful of dict lookups,
            # cached per candidate for the node.
            pair_cache: dict[_Candidate, bool] = {}
            # Candidates rejected by the max_span window during the
            # scan. Reported after the scan, minus any that another
            # state *did* discover (those were generated).
            span_skipped: Optional[set[_Candidate]] = (
                set() if events is not None and max_span is not None else None
            )
            for sid, states in proj:
                seq = sequences[sid]
                seq_pointsets = seq.pointsets
                found: set[_Candidate] = set()
                for st in states:
                    pending_by_socc = {
                        (lab, socc): pocc for lab, pocc, socc in st.pending
                    }
                    used = st.used
                    pos = st.pos
                    # --- I-extensions in the current pointset -----------
                    if last_token is not None and pos >= 0:
                        for sym, socc in seq_pointsets[pos]:
                            kind = sym % 3
                            lab = sym // 3
                            if kind == FINISH:
                                pocc = pending_by_socc.get((lab, socc))
                                if pocc is None:
                                    continue
                                if (sym, pocc) <= last_token:
                                    continue
                                if not allowed_finish(lab, pocc):
                                    continue
                                found.add((_I_EXT, sym, pocc))
                            elif kind == POINT and not htp:
                                continue
                            else:
                                pocc = next_occ.get(lab, 0) + 1
                                if (sym, pocc) <= last_token:
                                    continue
                                if (lab, socc) in used:
                                    continue
                                if (
                                    max_span is not None
                                    and kind == START
                                    and seq.times[seq.finish_pos[(lab, socc)]]
                                    - st.window_start
                                    > max_span + _EPS
                                ):
                                    if span_skipped is not None:
                                        span_skipped.add((_I_EXT, sym, pocc))
                                    continue
                                found.add((_I_EXT, sym, pocc))
                    # --- S-extensions in the postfix --------------------
                    limit = (
                        st.window_start + max_span
                        if max_span is not None and st.window_start is not None
                        else None
                    )
                    for pos2 in range(pos + 1, len(seq_pointsets)):
                        if limit is not None and seq.times[pos2] > limit + _EPS:
                            break
                        for sym, socc in seq_pointsets[pos2]:
                            kind = sym % 3
                            lab = sym // 3
                            if kind == FINISH:
                                pocc = pending_by_socc.get((lab, socc))
                                if pocc is None:
                                    continue
                                if not allowed_finish(lab, pocc):
                                    continue
                                found.add((_S_EXT, sym, pocc))
                            elif kind == POINT and not htp:
                                continue
                            else:
                                if (lab, socc) in used:
                                    continue
                                if max_span is not None and kind == START:
                                    wstart = (
                                        st.window_start
                                        if st.window_start is not None
                                        else seq.times[pos2]
                                    )
                                    finish_time = seq.times[
                                        seq.finish_pos[(lab, socc)]
                                    ]
                                    if finish_time - wstart > max_span + _EPS:
                                        if span_skipped is not None:
                                            span_skipped.add(
                                                (
                                                    _S_EXT,
                                                    sym,
                                                    next_occ.get(lab, 0) + 1,
                                                )
                                            )
                                        continue
                                pocc = next_occ.get(lab, 0) + 1
                                found.add((_S_EXT, sym, pocc))
                weight = weights[sid]
                for cand in found:
                    keep = pair_cache.get(cand)
                    if keep is None:
                        counters.candidates_considered += 1
                        keep = pair_ok(cand) if pair_ok is not None else True
                        pair_cache[cand] = keep
                        if not keep:
                            counters.pruned_pair += 1
                            if events is not None:
                                events.killed(
                                    "pair",
                                    num_tokens + 1,
                                    cand,
                                    threshold=threshold_box[0],
                                )
                    if not keep:
                        continue
                    weight_of[cand] = weight_of.get(cand, 0.0) + weight
                    sids_of.setdefault(cand, []).append(sid)
            if events is not None and span_skipped:
                # Candidates no state discovered at all: window-rejected
                # everywhere, so the search never generated them.
                for cand in sorted(span_skipped):
                    if cand not in pair_cache:
                        events.killed("max_span", num_tokens + 1, cand)
            return {
                cand: (weight_of[cand], sids_of[cand]) for cand in weight_of
            }

        def project(
            proj_map: dict[int, tuple[State, ...]],
            cand: _Candidate,
            sids: list[int],
        ) -> list[tuple[int, tuple[State, ...]]]:
            """Phase 2: build the projected states for one candidate."""
            ext, sym, pocc = cand
            kind = sym % 3
            lab = sym // 3
            new_proj: list[tuple[int, tuple[State, ...]]] = []
            for sid in sids:
                seq = sequences[sid]
                seq_pointsets = seq.pointsets
                new_states: list[State] = []
                for st in proj_map[sid]:
                    if kind == FINISH:
                        # A finish can only close the sequence occurrence
                        # this state bound to pattern occurrence pocc.
                        bound = st.pending_socc(lab, pocc)
                        if bound is None:
                            continue
                    if ext == _I_EXT:
                        positions = (st.pos,) if st.pos >= 0 else ()
                        limit = None
                    else:
                        positions = range(st.pos + 1, len(seq_pointsets))
                        limit = (
                            st.window_start + max_span
                            if max_span is not None
                            and st.window_start is not None
                            else None
                        )
                    finish_of = seq.finish_pos
                    for pos2 in positions:
                        if (
                            limit is not None
                            and seq.times[pos2] > limit + _EPS
                        ):
                            break
                        if max_span is not None:
                            wstart = (
                                st.window_start
                                if st.window_start is not None
                                else seq.times[pos2]
                            )
                        else:
                            wstart = None
                        for s2, socc in seq_pointsets[pos2]:
                            if s2 != sym:
                                continue
                            if kind == FINISH:
                                if socc != bound:
                                    continue
                                pending = st.pending - {(lab, pocc, socc)}
                                used = st.used
                            else:
                                if (lab, socc) in st.used:
                                    continue
                                if (
                                    max_span is not None
                                    and kind == START
                                    and seq.times[finish_of[(lab, socc)]]
                                    - wstart
                                    > max_span + _EPS
                                ):
                                    continue
                                pending = (
                                    st.pending | {(lab, pocc, socc)}
                                    if kind == START
                                    else st.pending
                                )
                                used = st.used | {(lab, socc)}
                            # Postfix pruning (dead-state elimination):
                            # an embedding that moved strictly past a
                            # pending finish can never yield a complete
                            # pattern (a finish AT pos2 is still
                            # reachable by I-extension).
                            if (
                                postfix_prune
                                and ext == _S_EXT
                                and pending
                                and any(
                                    finish_of[(plab, psocc)] < pos2
                                    for plab, _p, psocc in pending
                                )
                            ):
                                counters.pruned_dead_states += 1
                                continue
                            new_states.append(
                                State(pos2, pending, used, wstart)
                            )
                deduped = dedupe_states(new_states, dedupe_stats)
                if contracts.checking:
                    for checked in deduped:
                        check_state(checked, seq)
                counters.states_created += len(deduped)
                if deduped:
                    new_proj.append((sid, deduped))
            return new_proj

        def dfs(
            proj: list[tuple[int, tuple[State, ...]]],
            last_token: Optional[tuple[int, int]],
        ) -> None:
            nonlocal num_tokens, num_occurrences
            # Sharded roots skip gathering AND root-node accounting: the
            # parent process already did both during plan_root().
            at_root = last_token is None
            if at_root and root_candidates is not None:
                candidates = root_candidates
            else:
                counters.nodes_expanded += 1
                if postfix_prune:
                    # O(1) branch bound: at most len(proj) sequences of at
                    # most max_weight each can support any descendant.
                    if len(proj) * max_weight + _EPS < threshold_box[0]:
                        counters.pruned_postfix_branches += 1
                        if events is not None:
                            events.killed(
                                "postfix_branch",
                                num_tokens,
                                support=len(proj) * max_weight,
                                threshold=threshold_box[0],
                            )
                        return
                if (
                    self.max_tokens is not None
                    and num_tokens >= self.max_tokens
                ):
                    if events is not None:
                        events.killed("max_tokens", num_tokens)
                    return
                if obs_on:
                    with obs_span("extend", depth=num_tokens):
                        candidates = gather_candidates(proj, last_token)
                else:
                    candidates = gather_candidates(proj, last_token)
                if events is not None:
                    events.node(num_tokens, candidates)
            if at_root and root_gather_out is not None:
                root_gather_out.append(candidates)
                return
            proj_map = dict(proj)
            for cand in sorted(candidates):
                if at_root and events is not None:
                    events.enter_root(cand)
                weight, sids = candidates[cand]
                if weight + _EPS < threshold_box[0]:
                    if events is not None:
                        events.killed(
                            "support",
                            num_tokens + 1,
                            cand,
                            support=_tidy(weight),
                            threshold=threshold_box[0],
                        )
                    continue
                ext, sym, pocc = cand
                kind = sym % 3
                lab = sym // 3
                if (
                    self.max_size is not None
                    and kind != FINISH
                    and num_occurrences >= self.max_size
                ):
                    if events is not None:
                        events.killed("max_size", num_tokens + 1, cand)
                    continue
                counters.candidates_frequent += 1
                if obs_on:
                    with obs_span(
                        "project",
                        ext="I" if ext == _I_EXT else "S",
                        depth=num_tokens + 1,
                    ):
                        new_proj = project(proj_map, cand, sids)
                else:
                    new_proj = project(proj_map, cand, sids)
                if events is not None:
                    events.frequent(num_tokens + 1, new_proj)
                # --- apply the extension to the pattern state ----------
                if ext == _S_EXT:
                    pointsets.append([(sym, pocc)])
                else:
                    pointsets[-1].append((sym, pocc))
                num_tokens += 1
                if kind == START:
                    next_occ[lab] = pocc
                    open_start_ps[(lab, pocc)] = len(pointsets) - 1
                    num_occurrences += 1
                elif kind == POINT:
                    next_occ[lab] = pocc
                    num_occurrences += 1
                else:
                    del open_start_ps[(lab, pocc)]
                if not open_start_ps:
                    counters.patterns_emitted += 1
                    pattern = decode_pattern()
                    if contracts.checking:
                        _check_emitted_pattern(
                            pattern, num_tokens, weight, weights, new_proj
                        )
                    results.append(
                        PatternWithSupport(pattern, _tidy(weight))
                    )
                    if events is not None:
                        events.emitted(
                            num_tokens, pattern, _tidy(weight), new_proj
                        )
                    if on_emit is not None:
                        on_emit(pattern, weight)
                dfs(new_proj, (sym, pocc))
                # --- backtrack ------------------------------------------
                if kind == START:
                    del open_start_ps[(lab, pocc)]
                    if pocc > 1:
                        next_occ[lab] = pocc - 1
                    else:
                        del next_occ[lab]
                    num_occurrences -= 1
                elif kind == POINT:
                    if pocc > 1:
                        next_occ[lab] = pocc - 1
                    else:
                        del next_occ[lab]
                    num_occurrences -= 1
                else:
                    # Re-open the interval: its start token is still in the
                    # pattern (only the finish token is being retracted).
                    open_start_ps[(lab, pocc)] = _find_start_ps(
                        pointsets, lab * 3 + START, pocc
                    )
                num_tokens -= 1
                if ext == _S_EXT:
                    pointsets.pop()
                else:
                    pointsets[-1].pop()

        root = [
            (seq.sid, (EMPTY_STATE,))
            for seq in sequences
            if seq.pointsets and weights[seq.sid] > 0
        ]
        dfs(root, None)
        if events is not None:
            events.done()
        return results


def _check_emitted_pattern(
    pattern: TemporalPattern,
    num_tokens: int,
    weight: float,
    weights: Sequence[float],
    projected: list[tuple[int, tuple[State, ...]]],
) -> None:
    """Contract: an emitted pattern is well-formed, complete, canonical,
    and its projection holds its whole support set.

    Validity-during-generation means the search should never need a
    post-hoc validation scan — this check proves it keeps that promise
    whenever runtime contracts are enabled. Every supporter survives
    projection of a complete pattern (no pending occurrence, so
    dead-state elimination never fires), which is what lets provenance
    read the support set and one witness per sequence off the
    projection.
    """
    sids = [sid for sid, _states in projected]
    contracts.check(
        abs(sum(weights[sid] for sid in sids) - weight) <= 1e-6,
        "recorded support set disagrees with the reported support",
        details=lambda: f"{pattern}: sids={sids}, support={weight}",
    )
    try:
        TemporalPattern(pattern.pointsets, validate=True)
    except ValueError as exc:
        raise contracts.ContractViolation(
            f"emitted malformed pattern {pattern}: {exc}"
        ) from exc
    contracts.check(
        pattern.is_complete,
        "emitted pattern has unfinished intervals",
        details=lambda: str(pattern),
    )
    contracts.check(
        pattern.num_tokens == num_tokens,
        "pattern token bookkeeping out of sync with the search",
        details=lambda: f"{pattern} vs num_tokens={num_tokens}",
    )
    contracts.check(
        pattern.is_canonical,
        "emitted pattern is not in canonical form",
        details=lambda: str(pattern),
    )


def _find_start_ps(
    pointsets: list[list[tuple[int, int]]], start_sym: int, pocc: int
) -> int:
    """Locate the pattern pointset holding start token (start_sym, pocc)."""
    for idx, ps in enumerate(pointsets):
        if (start_sym, pocc) in ps:
            return idx
    raise AssertionError("start token missing from pattern state")


def _tidy(weight: float) -> float:
    """Render integer-valued supports as ints for readable results."""
    rounded = round(weight)
    return rounded if abs(weight - rounded) < 1e-9 else weight


def mine(
    db: ESequenceDatabase,
    min_sup: Optional[float] = None,
    *,
    config: Optional[MinerConfig] = None,
    workers: int = 1,
    **kwargs: Any,
) -> MiningResult:
    """Convenience one-call API: ``mine(db, 0.05)``.

    Accepts either a ready-made :class:`~repro.core.config.MinerConfig`
    (``mine(db, config=cfg)``) or keyword options that build one
    (``mine(db, 0.05, mode="htp")``); unknown keywords fail eagerly with
    a ``TypeError`` naming the valid options. ``workers > 1`` dispatches
    to the sharded engine (:func:`repro.engine.mine_sharded`), which
    returns the exact serial pattern set and counters.
    """
    if config is not None:
        if min_sup is not None or kwargs:
            raise TypeError(
                "pass either config= or individual miner options, not both"
            )
    else:
        if min_sup is not None:
            kwargs["min_sup"] = min_sup
        config = MinerConfig.from_kwargs(**kwargs)
    if workers == 1:
        return PTPMiner.from_config(config).mine(db)
    from repro.engine import mine_sharded

    return mine_sharded(db, config, workers=workers)
