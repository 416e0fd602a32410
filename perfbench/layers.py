"""Per-layer metrics from the traced passes.

Each traced pass yields, per op, the Ray Data operator summaries of every
execution the op ran (``ledger.capture_executions``) and the span ledgers
of the actors it used (``ledger.TracedQualityFilterStage`` /
``TracedDetectStage``). This module turns one traced pass into the named
metrics and reports the median of each over the traced passes.
"""

from __future__ import annotations

import statistics

# (metric, unit); the order is the order of the ledger in the README
EXCHANGE_OPS = ("exact_dedup", "minhash_dedup", "vocab", "hash_join", "language_split")
METRICS = [
    ("io.read_busy_s", "s"), ("io.read_mb", "MB"),
    ("pool.actors", "count"), ("pool.udf_busy_s", "s"), ("pool.unattributed_s", "s"),
    ("fused.busy_s", "s"), ("fused.batch_ms_p50", "ms"), ("fused.batch_ms_p99", "ms"),
    ("ledger.coverage", "frac"),
    ("detect.busy_s", "s"), ("detect.path_only_frac", "frac"),
    ("detect.cache_hit_frac", "frac"), ("detect.tier12_s", "s"), ("detect.digest_s", "s"),
    ("detect.shebang_s", "s"), ("detect.heuristics_s", "s"), ("detect.heuristics_calls", "count"),
    ("detect.classify_s", "s"), ("detect.classify_calls", "count"),
    ("tokenizer.fast_key_tokens_s", "s"),
    ("scrub.busy_s", "s"), ("scrub.cache_hit_frac", "frac"), ("scrub.digest_s", "s"),
    ("scrub.path_regex_s", "s"), ("scrub.regex_s", "s"), ("scrub.regex_hit_frac", "frac"),
    ("scrub.ppl_s", "s"), ("scrub.line_stats_s", "s"), ("scrub.sha_s", "s"),
    ("scrub.assembly_s", "s"),
    ("write.busy_s", "s"), ("write.mb", "MB"),
] + [
    (f"{op}.{m}", unit)
    for op in EXCHANGE_OPS
    for m, unit in (("wall_s", "s"), ("shuffle_s", "s"), ("skew", "ratio"))
] + [("trace.overhead_frac", "frac")]

# the kernel spans whose self times the coverage ratio adds up
COVERED = (
    "detect.tier12_s", "detect.digest_s", "detect.shebang_s", "detect.heuristics_s",
    "detect.classify_s", "scrub.path_regex_s", "scrub.digest_s", "scrub.regex_s",
    "scrub.ppl_s", "scrub.line_stats_s", "scrub.sha_s", "scrub.assembly_s",
)


def _busy(op) -> float:
    return (op.wall_time or {}).get("sum", 0.0)


def _merge_actors(ledgers: list[dict]) -> dict:
    ns, calls, counts, batch_ms = {}, {}, {}, []
    for led in ledgers:
        for src, dst in ((led["ns"], ns), (led["calls"], calls), (led["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        if led["span"] == "fused":
            batch_ms += led["batch_ms"]
    return {"ns": ns, "calls": calls, "counts": counts, "batch_ms": batch_ms}


def _pct(xs: list[float], q: float) -> float:
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def operator_table(op_record: dict) -> list[list]:
    """[name, is_sub_operator, busy_s, output rows] of every Ray Data
    operator an op ran, for reading the ledger by hand."""
    return [
        [op.operator_name, op.is_sub_operator, _busy(op),
         (op.output_num_rows or {}).get("sum", 0)]
        for ex in op_record.get("executions", []) for op in ex
    ]


def pass_metrics(p: dict) -> dict:
    m = {name: 0.0 for name, _ in METRICS if name != "trace.overhead_frac"}
    ledgers = [led for o in p["ops"] for led in o.get("actors", [])]
    led = _merge_actors(ledgers)
    s = {k: v / 1e9 for k, v in led["ns"].items()}
    calls, counts = led["calls"], led["counts"]

    # Ray Data operators, as the benchmark process saw them
    for o in p["ops"]:
        execs = o.get("executions", [])
        ops = [op for ex in execs for op in ex]
        top = [op for op in ops if not op.is_sub_operator]
        for op in top:
            name = op.operator_name
            if "ReadParquet" in name:
                m["io.read_busy_s"] += _busy(op)
                m["io.read_mb"] += (op.output_size_bytes or {}).get("sum", 0.0) / 1e6
            if "QualityFilterStage" in name or "DetectStage" in name:
                m["pool.udf_busy_s"] += _busy(op)
            if name.startswith("Write"):
                m["write.busy_s"] += _busy(op)
        m["write.mb"] += o.get("out_mb", 0.0)
        if any("QualityFilterStage" in op.operator_name for op in top):
            m["pool.unattributed_s"] += o["wall_s"] - sum(_busy(op) for op in top)
        if o["op"] in EXCHANGE_OPS:
            # an all-to-all operator reports through its sub-operators
            # (SortMap/SortReduce, AggregateMap/…Reduce, RepartitionSplit/…Reduce)
            subs = [op for op in ops if op.is_sub_operator]
            m[f"{o['op']}.wall_s"] = o["wall_s"]
            m[f"{o['op']}.shuffle_s"] = sum(_busy(op) for op in subs)
            m[f"{o['op']}.skew"] = max(
                (_frac(op.output_num_rows["max"], op.output_num_rows["mean"])
                 for op in subs
                 if op.operator_name.endswith("Reduce") and op.output_num_rows),
                default=0.0,
            )

    # actor span ledgers (inside the stage)
    m["pool.actors"] = float(len(ledgers))
    m["fused.busy_s"] = s.get("fused", 0.0)
    m["fused.batch_ms_p50"] = _pct(led["batch_ms"], 0.5)
    m["fused.batch_ms_p99"] = _pct(led["batch_ms"], 0.99)
    m["detect.busy_s"] = s.get("detect", 0.0)
    m["detect.path_only_frac"] = _frac(counts.get("detect.path_only_rows", 0), counts.get("rows", 0))
    m["detect.cache_hit_frac"] = _frac(
        counts.get("detect.cache_hits", 0),
        counts.get("detect.cache_hits", 0) + counts.get("detect.cache_misses", 0),
    )
    m["detect.digest_s"] = s.get("detect.digest", 0.0)
    m["detect.shebang_s"] = s.get("detect.shebang", 0.0)
    m["detect.heuristics_s"] = s.get("detect.heuristics", 0.0)
    m["detect.heuristics_calls"] = float(calls.get("detect.heuristics", 0))
    m["detect.classify_s"] = s.get("detect.classify", 0.0)
    m["detect.classify_calls"] = float(calls.get("detect.classify", 0))
    m["tokenizer.fast_key_tokens_s"] = s.get("tokenizer.fast_key_tokens", 0.0)
    # the stage's own time: the tier 1-2 path loop and the column build
    m["detect.tier12_s"] = m["detect.busy_s"] - m["detect.digest_s"] - s.get("detect.content_tiers", 0.0)
    m["scrub.busy_s"] = s.get("scrub", 0.0)
    m["scrub.cache_hit_frac"] = _frac(
        counts.get("scrub.cache_hits", 0),
        counts.get("scrub.cache_hits", 0) + counts.get("scrub.cache_misses", 0),
    )
    for k in ("digest", "path_regex", "regex", "ppl", "line_stats", "sha"):
        m[f"scrub.{k}_s"] = s.get(f"scrub.{k}", 0.0)
    m["scrub.regex_hit_frac"] = _frac(counts.get("scrub.regex_hits", 0), counts.get("scrub.regex_rows", 0))
    # self time: the per-row decision loop and the Arrow assembly
    m["scrub.assembly_s"] = m["scrub.busy_s"] - m["scrub.path_regex_s"] - m["scrub.digest_s"] - s.get(
        "scrub.compute_rows", 0.0
    )
    m["ledger.coverage"] = _frac(sum(m[k] for k in COVERED), m["fused.busy_s"])
    return m


def per_layer(passes: list[dict]) -> dict:
    traced = [pass_metrics(p) for p in passes if p["traced"]]
    walls = {
        t: [p["wall_s"] for p in passes if p["traced"] == t] for t in (True, False)
    }
    out = {}
    for name, unit in METRICS:
        if name == "trace.overhead_frac":
            value = _frac(_median(walls[True]), _median(walls[False])) - 1.0
        else:
            value = _median([t[name] for t in traced])
        out[name] = {"value": value, "unit": unit}
    return out


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0
