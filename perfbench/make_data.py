#!/usr/bin/env python3
"""Write the committed projections under ``perfbench/data/``.

    python3 perfbench/make_data.py <sf0.01 directory>

The directory is the TPC-H-style test set at scale factor 0.01 (one Parquet
file per table, see TESTDATA.md). The benchmark reads only the projections
this writes, so it needs nothing outside the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pyarrow.parquet as pq

DATA = Path(__file__).resolve().parent / "data"
# table -> the columns the exchange_mix ops and their checks read
PROJECTIONS = {
    "orders": ["o_orderkey", "o_orderstatus", "o_totalprice"],
    "lineitem": ["l_orderkey", "l_quantity", "l_extendedprice"],
    "documents": ["doc_id", "text"],
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0])
    DATA.mkdir(exist_ok=True)
    for name, cols in PROJECTIONS.items():
        table = pq.read_table(src / f"{name}.parquet", columns=cols)
        pq.write_table(table.replace_schema_metadata(None), DATA / f"{name}.parquet",
                       compression="zstd")
        print(f"{name}: {table.num_rows} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
