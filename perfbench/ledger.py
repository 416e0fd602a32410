"""Per-layer ledger for the traced run.

Everything here wraps the engine's public functions, classes and module
attributes from the outside; the engine itself carries no tracing code.

* In the actor processes, ``TracedQualityFilterStage`` and
  ``TracedDetectStage`` build the real stage, then replace the attributes it
  calls (the detector's tier methods, the tokenizer, the scrub kernels,
  ``hashlib`` and ``pyarrow.compute`` as the stage modules see them) with
  timing wrappers. After every batch the actor writes its cumulative
  counters to ``$PERFBENCH_LEDGER_DIR/<pid>.json``.
* In the benchmark process, ``capture_executions`` records the operator statistics of
  every Ray Data execution (read, map, all-to-all, write) as it finishes.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc

from hyperpolyglot_ray.core import tokenizer as _tokenizer
from hyperpolyglot_ray.stages import detector as _detector_mod
from hyperpolyglot_ray.stages import quality_scrub as _scrub_mod
from hyperpolyglot_ray.stages.detector import DetectStage
from hyperpolyglot_ray.stages.fused import QualityFilterStage

LEDGER_ENV = "PERFBENCH_LEDGER_DIR"


class Spans:
    """Named accumulators: total nanoseconds and call count per span."""

    def __init__(self):
        self.ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.batch_ms: list[float] = []

    def add(self, name: str, ns: int) -> None:
        self.ns[name] = self.ns.get(name, 0) + ns
        self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, clock() - t0)

        return wrapper


class _TimedProxy:
    """Stands in for a module (``hashlib``, ``pyarrow.compute``) inside one
    engine module: the named functions are timed, the rest pass through."""

    def __init__(self, module, timed: dict):
        self._module = module
        self.__dict__.update(timed)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _instrument_detect(stage: DetectStage, spans: Spans) -> None:
    det = stage.det
    det.languages_from_shebang = spans.timed("detect.shebang", det.languages_from_shebang)
    det.languages_from_heuristics = spans.timed(
        "detect.heuristics", det.languages_from_heuristics
    )
    det.classify = spans.timed("detect.classify", det.classify)
    # module attributes, looked up at call time by the stage and classify
    import hashlib

    _detector_mod.hashlib = _TimedProxy(
        hashlib, {"blake2b": spans.timed("detect.digest", hashlib.blake2b)}
    )
    _detector_mod._content_tiers = spans.timed(
        "detect.content_tiers", _detector_mod._content_tiers
    )
    _tokenizer.fast_key_tokens = spans.timed(
        "tokenizer.fast_key_tokens", _tokenizer.fast_key_tokens
    )


def _instrument_scrub(stage, spans: Spans) -> None:
    import hashlib

    combined = stage.combined_scrub_pat
    match = pc.match_substring_regex

    def match_timed(arr, pattern, *a, **k):
        t0 = time.perf_counter_ns()
        out = match(arr, pattern, *a, **k)
        if pattern == combined:
            spans.add("scrub.regex", time.perf_counter_ns() - t0)
            spans.count("scrub.regex_rows", len(out))
            spans.count("scrub.regex_hits", pc.sum(out).as_py() or 0)
        else:
            spans.add("scrub.path_regex", time.perf_counter_ns() - t0)
        return out

    _scrub_mod.pc = _TimedProxy(
        pc,
        {
            "match_substring_regex": match_timed,
            "count_substring_regex": spans.timed("scrub.regex", pc.count_substring_regex),
            "replace_substring_regex": spans.timed("scrub.regex", pc.replace_substring_regex),
        },
    )
    _scrub_mod.hashlib = _TimedProxy(
        hashlib,
        {
            "blake2b": spans.timed("scrub.digest", hashlib.blake2b),
            "sha256": spans.timed("scrub.sha", hashlib.sha256),
        },
    )
    _scrub_mod._line_shape_stats = spans.timed("scrub.line_stats", _scrub_mod._line_shape_stats)
    stage.lm.perplexity_batch = spans.timed("scrub.ppl", stage.lm.perplexity_batch)
    stage._compute_rows = spans.timed("scrub.compute_rows", stage._compute_rows)


def _cache_counts(spans: Spans, prefix: str, cache) -> None:
    if cache is not None:
        spans.counts[f"{prefix}.cache_hits"] = cache.hits
        spans.counts[f"{prefix}.cache_misses"] = cache.misses


class _LedgerWriter:
    def _setup_ledger(self) -> None:
        self.spans = Spans()
        self._path = Path(os.environ[LEDGER_ENV]) / f"{os.getpid()}-{id(self)}.json"

    def _record_batch(self, out: pa.Table, elapsed_ns: int) -> None:
        sp = self.spans
        sp.add(self.SPAN, elapsed_ns)
        sp.batch_ms.append(elapsed_ns / 1e6)
        sp.count("rows", out.num_rows)
        strategy = out.column("strategy")
        sp.count(
            "detect.path_only_rows",
            pc.sum(pc.is_in(strategy, value_set=pa.array(["Filename", "Extension"]))).as_py() or 0,
        )
        sp.count("detect.error_rows", pc.sum(pc.not_equal(out.column("error"), "")).as_py() or 0)
        self._snapshot_caches()
        tmp = self._path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(
                {"span": self.SPAN, "ns": sp.ns, "calls": sp.calls,
                 "counts": sp.counts, "batch_ms": sp.batch_ms}
            )
        )
        tmp.replace(self._path)


class TracedQualityFilterStage(QualityFilterStage, _LedgerWriter):
    """The fused stage with every layer below it timed."""

    SPAN = "fused"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._setup_ledger()
        _instrument_detect(self.detect, self.spans)
        _instrument_scrub(self.scrub, self.spans)
        self._caches = (self.detect.cache, self.scrub.cache)
        self.detect = self.spans.timed("detect", self.detect)
        self.scrub = self.spans.timed("scrub", self.scrub)

    def _snapshot_caches(self) -> None:
        _cache_counts(self.spans, "detect", self._caches[0])
        _cache_counts(self.spans, "scrub", self._caches[1])

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter_ns()
        out = super().__call__(batch)
        self._record_batch(out, time.perf_counter_ns() - t0)
        return out


class TracedDetectStage(DetectStage, _LedgerWriter):
    """The detect-only stage (chained path) with its tiers timed."""

    SPAN = "detect"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._setup_ledger()
        _instrument_detect(self, self.spans)

    def _snapshot_caches(self) -> None:
        _cache_counts(self.spans, "detect", self.cache)

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter_ns()
        out = super().__call__(batch)
        self._record_batch(out, time.perf_counter_ns() - t0)
        return out


def read_actor_ledgers(ledger_dir: Path) -> list[dict]:
    out = []
    for p in sorted(ledger_dir.glob("*.json")):
        with contextlib.suppress(OSError, ValueError):
            out.append(json.loads(p.read_text()))
    return out


@contextlib.contextmanager
def traced_stages():
    """Point the pipeline builders at the traced stage classes."""
    from hyperpolyglot_ray.pipelines import quality_filter as qf_mod
    from hyperpolyglot_ray.stages import fused as fused_mod

    saved = (fused_mod.QualityFilterStage, qf_mod.DetectStage)
    fused_mod.QualityFilterStage = TracedQualityFilterStage
    qf_mod.DetectStage = TracedDetectStage
    try:
        yield
    finally:
        fused_mod.QualityFilterStage, qf_mod.DetectStage = saved


@contextlib.contextmanager
def capture_executions(sink: list):
    """Append to ``sink`` one list of operator summaries per Ray Data
    execution that finishes inside the block."""
    from ray.data._internal.execution.operators.input_data_buffer import InputDataBuffer
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    orig = StreamingExecutor.shutdown

    def shutdown(self, *args, **kwargs):
        first = not getattr(self, "_perfbench_seen", False)
        orig(self, *args, **kwargs)
        if not first or self._final_stats is None:
            return
        self._perfbench_seen = True
        # the executor's stats are a chain, one link per operator it ran;
        # links past those belong to inputs executed earlier
        n_ops = sum(1 for op in self._topology if not isinstance(op, InputDataBuffer))
        summary, ops = self._final_stats.to_summary(), []
        while summary is not None and n_ops > 0:
            ops.extend(summary.operators_stats)
            n_ops -= 1
            summary = summary.parents[0] if summary.parents else None
        sink.append(ops)

    StreamingExecutor.shutdown = shutdown
    try:
        yield
    finally:
        StreamingExecutor.shutdown = orig
