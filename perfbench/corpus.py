"""Seeded, host-independent inputs for the three workloads.

Every input is derived from ``--seed`` and from files committed to the
repository only: ``fixtures.family_rows()`` (the FIXTURES.md §1 tier,
quality and scrub families), the 41 full sample files carried by
``tests/data/tokens_golden.jsonl``, and the projections of the sf0.01
``orders``, ``lineitem`` and ``documents`` tables under ``perfbench/data/``.
Nothing is read from outside the checkout, so two hosts given the same seed
build byte-identical tables.

The ``files`` tables carry ``repo, path, commit, content`` (the columns the
keep/drop + scrub pass reads) and a sidecar of FIXTURES labels
(``family, lang, expected_keep, expected_scrubbed``) for the output checks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from hyperpolyglot_ray.sources.fixtures import family_rows

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "tokens_golden.jsonl"
DATA = Path(__file__).resolve().parent / "data"

FILES_SCHEMA = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("content", pa.string()),
    ]
)
LABEL_SCHEMA = pa.schema(
    [
        ("path", pa.string()),
        ("family", pa.string()),
        ("lang", pa.string()),
        ("expected_keep", pa.bool_()),
        ("expected_scrubbed", pa.string()),
    ]
)

# words for spliced lines: plain identifiers, so a spliced line never opens
# a comment, string or shebang
_WORDS = (
    "alpha beta gamma delta epsilon zeta theta kappa lambda sigma omega "
    "table index merge window buffer stream packet vector matrix scalar "
    "parser lexer token symbol module import export return value result "
    "config option handle signal thread queue worker batch shard block"
).split()


def _commit(repo: str, path: str) -> str:
    return hashlib.sha1(f"{repo}/{path}".encode()).hexdigest()


def sample_rows() -> list[dict]:
    """The full sample files of the golden tokenizer corpus as file rows
    (no FIXTURES label: their expectation is the reference pass)."""
    rows = []
    with open(GOLDEN, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            case = rec["case"]
            if not case.startswith("samples/"):
                continue
            rows.append(
                dict(path="samples_corpus/" + case[len("samples/"):],
                     content=rec["content"], lang=None, family="samples",
                     expected_keep=None, expected_scrubbed=None)
            )
    return rows


def _splice(content: str, line: str, rng: np.random.Generator) -> str:
    """Insert ``line`` after a seeded line (never before the first, which
    may be a shebang)."""
    lines = content.split("\n")
    at = 1 + int(rng.integers(0, max(1, len(lines))))
    lines.insert(min(at, len(lines)), line)
    return "\n".join(lines)


def _table(rows: list[dict], order: np.ndarray) -> tuple[pa.Table, pa.Table]:
    cols = {k: [] for k in FILES_SCHEMA.names}
    lab = {k: [] for k in LABEL_SCHEMA.names}
    for pos, i in enumerate(order):
        r = rows[int(i)]
        # FIXTURES §4 skew: the mega-repo owns every other row
        repo = "big/monorepo" if pos % 2 == 0 else f"org{pos % 7}/repo{pos % 13}"
        cols["repo"].append(repo)
        cols["path"].append(r["path"])
        cols["commit"].append(_commit(repo, r["path"]))
        cols["content"].append(r["content"])
        for k in LABEL_SCHEMA.names:
            lab[k].append(r["path"] if k == "path" else r.get(k))
    return pa.table(cols, schema=FILES_SCHEMA), pa.table(lab, schema=LABEL_SCHEMA)


def files_dup(seed: int, n_rows: int) -> tuple[pa.Table, pa.Table]:
    """FIXTURES §1 layout: the family rows tiled with per-tile path
    prefixes, so about 99.7% of contents repeat; the seed orders the rows."""
    pool = family_rows()
    rows = [
        {**r, "path": f"t{t:04d}/{r['path']}"}
        for t in range(n_rows // len(pool) + 1)
        for r in pool
    ][:n_rows]
    return _table(rows, np.random.default_rng(seed).permutation(len(rows)))


def files_unique(seed: int, n_rows: int) -> tuple[pa.Table, pa.Table]:
    """Family rows and full sample files, each base row once as committed
    (so FIXTURES labels apply) and then in seeded variants that each carry
    one spliced line, so every content is distinct."""
    rng = np.random.default_rng(seed)
    base = family_rows() + sample_rows()
    rows = [dict(r) for r in base]
    for k in range(n_rows - len(base)):
        r = base[k % len(base)]
        w = rng.choice(len(_WORDS), size=2)
        line = f"{_WORDS[w[0]]}_{k} = {_WORDS[w[1]]}({int(rng.integers(1 << 30))})"
        rows.append(
            dict(path=f"u{k:06d}/{r['path']}", content=_splice(r["content"], line, rng),
                 family="variant", lang=None, expected_keep=None,
                 expected_scrubbed=None)
        )
    return _table(rows, rng.permutation(len(rows)))


def exchange_files(seed: int, n_distinct: int) -> pa.Table:
    """Files corpus for the exchanges: ``n_distinct`` distinct contents
    (the files_unique construction), a seeded half of them repeated under
    new paths so exact dedup has work."""
    rng = np.random.default_rng(seed + 1)
    files, _ = files_unique(seed, n_distinct)
    dup_idx = np.flatnonzero(rng.random(files.num_rows) < 0.5)
    dups = files.take(pa.array(dup_idx))
    paths = [f"dup/{p}" for p in dups.column("path").to_pylist()]
    dups = pa.table(
        {
            "repo": dups.column("repo"),
            "path": paths,
            "commit": [_commit(r, p) for r, p in zip(dups.column("repo").to_pylist(), paths)],
            "content": dups.column("content"),
        },
        schema=FILES_SCHEMA,
    )
    both = pa.concat_tables([files, dups])
    return both.take(pa.array(rng.permutation(both.num_rows)))


def committed(name: str, seed: int) -> pa.Table:
    """One of the committed projections under ``perfbench/data/`` (see
    ``make_data.py``), its rows in a seeded order."""
    table = pq.read_table(DATA / f"{name}.parquet")
    return table.take(pa.array(np.random.default_rng(seed).permutation(table.num_rows)))


def write_parts(table: pa.Table, out_dir: Path, n_parts: int) -> str:
    """Write ``table`` as ``n_parts`` Parquet shards; returns the directory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.glob("*.parquet"):
        old.unlink()
    step = -(-table.num_rows // n_parts)
    for p in range(n_parts):
        part = table.slice(p * step, step)
        if part.num_rows:
            pq.write_table(part, out_dir / f"part-{p:05d}.parquet")
    return str(out_dir)


def describe(table: pa.Table, text_col: str) -> dict:
    """Rows, MB and distinct-content fraction of one input."""
    col = table.column(text_col)
    n = table.num_rows
    distinct = len(pc.unique(col)) if n else 0
    return {
        "rows": n,
        "mb": table.nbytes / 1e6,
        "distinct_frac": distinct / n if n else 0.0,
    }
