"""The three workloads: their inputs, operations and output checks.

A workload's ``ops`` are run in order once per pass. Each op returns its
result, and ``check(op, result)`` returns the list of failed checks (empty
when the output is correct).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
from collections import Counter
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from hyperpolyglot_ray.sources.io import read_parquet_clean

from . import corpus

FILES_COLUMNS = ["repo", "path", "commit", "content"]
# output columns compared between the Ray pass and the in-process reference
# (``scrubbed`` itself is covered by ``content_sha``, checked row by row)
DIGEST_COLUMNS = [
    "repo", "path", "commit", "detected_lang", "strategy", "language_type",
    "error", "is_vendored", "is_documentation", "quality", "keep",
    "drop_reasons", "scrub_counts", "content_sha",
]


def _digest(table: pa.Table) -> str:
    rows = table.select(DIGEST_COLUMNS).sort_by("path").to_pylist()
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _tiers(strategy: pa.ChunkedArray) -> dict:
    counts = Counter(strategy.to_pylist())
    n = sum(counts.values()) or 1
    return {k or "none": v / n for k, v in sorted(counts.items())}


class FilesWorkload:
    """read -> QualityFilterStage(drop_content=True) -> write_parquet."""

    def __init__(self, name: str, build, n_rows: int, pool: int):
        self.name = name
        self.build = build
        self.n_rows = n_rows
        self.pool = pool

    def generate(self, seed: int) -> None:
        self.files, self.labels = self.build(seed, self.n_rows)

    def write_inputs(self, work: Path) -> None:
        self.work = work
        self.src = corpus.write_parts(self.files, work / "in", 4)
        self.warm_src = str(sorted(Path(self.src).glob("*.parquet"))[0])
        self.inputs = {"files": corpus.describe(self.files, "content")}

    @property
    def pass_rows(self) -> int:
        return self.files.num_rows

    def _run(self, src: str) -> Path:
        from hyperpolyglot_ray.pipelines.quality_filter import quality_filter_pipeline

        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        quality_filter_pipeline(
            src, concurrency=self.pool, columns=FILES_COLUMNS, drop_content=True
        ).write_parquet(str(out))
        return out

    def ops(self):
        return [("filter_scrub", lambda: self._run(self.src))]

    def warm(self) -> None:
        """The pipeline over one of the four input shards."""
        self._run(self.warm_src)

    def reference(self) -> None:
        """In-process pass with the content cache off: the expected output."""
        from hyperpolyglot_ray.stages.fused import QualityFilterStage

        from hyperpolyglot_ray import config

        prev = os.environ.get("HYPLY_CONTENT_CACHE")
        os.environ["HYPLY_CONTENT_CACHE"] = "0"
        try:
            stage = QualityFilterStage(drop_content=True)
        finally:
            if prev is None:
                del os.environ["HYPLY_CONTENT_CACHE"]
            else:
                os.environ["HYPLY_CONTENT_CACHE"] = prev
        step = config.SCRUB_BATCH_SIZE
        out = pa.concat_tables(
            stage(self.files.slice(s, step)) for s in range(0, self.files.num_rows, step)
        )
        self.expected_digest = _digest(out)
        self.inputs["files"]["tier_mix"] = _tiers(out.column("strategy"))

    def check(self, op: str, out_dir: Path) -> list[str]:
        out = pq.read_table(out_dir)
        fails = []
        if out.num_rows != self.files.num_rows:
            fails.append(f"rows {out.num_rows} != {self.files.num_rows}")
        sha = [
            hashlib.sha256(s.encode()).hexdigest()
            for s in out.column("scrubbed").to_pylist()
        ]
        if sha != out.column("content_sha").to_pylist():
            fails.append("content_sha != sha256(scrubbed)")
        n_err = pc.sum(pc.not_equal(out.column("error"), "")).as_py() or 0
        if n_err:
            fails.append(f"{n_err} rows with an error")
        if _digest(out) != self.expected_digest:
            fails.append("output differs from the in-process reference")
        fails += self._check_labels(out)
        return fails

    def _check_labels(self, out: pa.Table) -> list[str]:
        """FIXTURES labels: language, keep and scrubbed text per family row."""
        lab = self.labels.filter(pc.is_valid(self.labels.column("lang")))
        got = {
            r["path"]: r
            for r in out.select(["path", "detected_lang", "keep", "scrubbed"]).to_pylist()
        }
        bad = 0
        for r in lab.to_pylist():
            g = got.get(r["path"])
            if (
                g is None
                or g["detected_lang"] != r["lang"]
                or (r["expected_keep"] is not None and g["keep"] != r["expected_keep"])
                or (r["expected_scrubbed"] is not None and g["scrubbed"] != r["expected_scrubbed"])
            ):
                bad += 1
        return [f"{bad} of {lab.num_rows} family rows off their FIXTURES labels"] if bad else []


_ASCII_WS = re.compile(r"[\t\n\v\f\r ]+")


class ExchangeWorkload:
    """The all-to-all operators over the files corpus and the committed
    sf0.01 documents, orders and lineitem projections; nothing is written,
    every result is aggregated."""

    name = "exchange_mix"
    TOP_K = 100
    MIN_COUNT = 5

    def __init__(self, n_distinct_files: int):
        self.n_distinct_files = n_distinct_files

    def generate(self, seed: int) -> None:
        self.files = corpus.exchange_files(seed, self.n_distinct_files)
        self.docs = corpus.committed("documents", seed)
        self.orders = corpus.committed("orders", seed)
        self.lineitem = corpus.committed("lineitem", seed)

    def write_inputs(self, work: Path) -> None:
        self.work = work
        self.paths = {
            "files": corpus.write_parts(self.files, work / "files", 2),
            "docs": corpus.write_parts(self.docs, work / "docs", 2),
            "orders": corpus.write_parts(self.orders, work / "orders", 1),
            "lineitem": corpus.write_parts(self.lineitem, work / "lineitem", 2),
        }
        self.inputs = {
            "files": corpus.describe(self.files, "content"),
            "docs": corpus.describe(self.docs, "text"),
            "orders": corpus.describe(self.orders, "o_orderkey"),
            "lineitem": corpus.describe(self.lineitem, "l_orderkey"),
        }

    @property
    def pass_rows(self) -> int:
        return (
            3 * self.files.num_rows + self.docs.num_rows
            + self.orders.num_rows + self.lineitem.num_rows
        )

    def ops(self):
        from hyperpolyglot_ray.pipelines.quality_filter import detect_dataset
        from hyperpolyglot_ray.pipelines.reports import language_split
        from hyperpolyglot_ray.stages.joins import hash_join
        from hyperpolyglot_ray.stages.text_ops import (
            exact_dedup_keep_ids,
            minhash_dedup_keep_ids,
            vocab_stats,
        )

        def rd(name, columns=None):
            return read_parquet_clean(self.paths[name], columns=columns)

        return [
            ("exact_dedup", lambda: exact_dedup_keep_ids(
                rd("files", ["commit", "content"]), text_col="content", id_col="commit"
            ).take_all()),
            ("vocab", lambda: vocab_stats(
                rd("files", ["path", "content"]), text_col="content", id_col="path",
                top_k=self.TOP_K, min_count=self.MIN_COUNT,
            ).take_all()),
            ("minhash_dedup", lambda: minhash_dedup_keep_ids(rd("docs")).take_all()),
            ("hash_join", lambda: hash_join(
                rd("lineitem"), rd("orders"), "l_orderkey", "o_orderkey"
            ).take_all()),
            ("language_split", lambda: language_split(
                detect_dataset(rd("files", ["path", "content"]))
            )),
        ]

    def warm(self) -> None:
        """``language_split`` over one of the two files shards: starts the
        detect actors and runs one exchange."""
        from hyperpolyglot_ray.pipelines.quality_filter import detect_dataset
        from hyperpolyglot_ray.pipelines.reports import language_split

        shard = str(sorted(Path(self.paths["files"]).glob("*.parquet"))[0])
        language_split(detect_dataset(read_parquet_clean(shard, columns=["path", "content"])))

    def reference(self) -> None:
        """Small in-process recomputations of every exchange result."""
        from hyperpolyglot_ray.sources.doc_oracle import _expected_minhash_keep
        from hyperpolyglot_ray.stages.detector import DetectStage

        exp = {}
        first: dict[str, str] = {}
        for c, t in zip(self.files.column("commit").to_pylist(),
                        self.files.column("content").to_pylist()):
            if t not in first or c < first[t]:
                first[t] = c
        exp["exact_dedup"] = sorted(first.values())

        n_total, n_docs = Counter(), Counter()
        for t in self.files.column("content").to_pylist():
            toks = [w for w in _ASCII_WS.split(t) if w]
            n_total.update(toks)
            n_docs.update(set(toks))
        top = sorted(n_total.items(), key=lambda kv: (-kv[1], kv[0]))[: self.TOP_K]
        exp["vocab"] = [(w, n, n_docs[w]) for w, n in top]

        keep = _expected_minhash_keep(
            self.docs.column("text").to_pylist(), self.docs.column("doc_id").to_pylist()
        )
        exp["minhash_dedup"] = sorted(keep.column("doc_id").to_pylist())

        joined = self.lineitem.join(
            self.orders, keys="l_orderkey", right_keys="o_orderkey", join_type="inner"
        )
        exp["hash_join"] = self._join_rows(joined.to_pylist())

        det = DetectStage()(self.files.select(["path", "content"]))
        self.inputs["files"]["tier_mix"] = _tiers(det.column("strategy"))
        det = det.filter(pc.is_in(det.column("language_type"),
                                  value_set=pa.array(["Markup", "Programming"])))
        counts = Counter(det.column("detected_lang").to_pylist())
        exp["language_split"] = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        self.expected = exp

    @staticmethod
    def _join_rows(rows: list[dict]) -> list[tuple]:
        return sorted(
            (r["l_orderkey"], r["l_quantity"], r["l_extendedprice"],
             r["o_orderstatus"], r["o_totalprice"])
            for r in rows
        )

    def check(self, op: str, result) -> list[str]:
        exp = self.expected[op]
        if op == "exact_dedup":
            got = sorted(r["commit"] for r in result)
        elif op == "vocab":
            got = [(r["token"], r["n_total"], r["n_docs"]) for r in result]
        elif op == "minhash_dedup":
            got = sorted(r["doc_id"] for r in result)
        elif op == "hash_join":
            got = self._join_rows(result)
        else:
            got = list(zip(result.column("detected_lang").to_pylist(),
                           result.column("file_count").to_pylist()))
            total = sum(n for _, n in got) or 1
            pct = result.column("percentage").to_pylist()
            if any(not math.isclose(p, n * 100.0 / total) for p, (_, n) in zip(pct, got)):
                return ["language_split percentages do not match file counts"]
        return [] if got == exp else [f"{op} differs from the in-process recomputation"]


def make(name: str, pool: int):
    if name == "files_dup":
        return FilesWorkload(name, corpus.files_dup, 10_000, pool)
    if name == "files_unique":
        return FilesWorkload(name, corpus.files_unique, 4_000, pool)
    if name == "exchange_mix":
        return ExchangeWorkload(n_distinct_files=1_000)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("files_dup", "files_unique", "exchange_mix")
