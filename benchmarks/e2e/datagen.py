"""Seeded input generators for the end-to-end benchmark.

``repro.workloads.tpch.generate_tables`` builds its string columns one
Python call per row (11 s at sf=400), which would make every benchmark
run mostly data generation.  ``tpch_tables`` builds the same eight
tables — same columns, dtypes, value domains, key relationships and
row-count ratios — from NumPy draws only, so the whole set costs a
fraction of a second and a run's time goes to the system under test.
String columns are drawn from small pre-built pools (the queries only
ever compare them for equality).
"""

from __future__ import annotations

import numpy as np

from repro import frame as pf
from repro.workloads.tpch import schema


def _dates(rng, n: int, start=schema.DATE_START, end=schema.DATE_END):
    lo = np.datetime64(start).astype("datetime64[D]").astype(np.int64)
    hi = np.datetime64(end).astype("datetime64[D]").astype(np.int64)
    return rng.integers(lo, hi, n).astype("datetime64[D]")


def _pick(rng, options, n: int) -> np.ndarray:
    return np.array(options, dtype=object)[rng.integers(0, len(options), n)]


def _numbered(prefix: str, numbers: np.ndarray, width: int) -> np.ndarray:
    digits = np.char.zfill(numbers.astype(str), width)
    return np.char.add(prefix, digits).astype(object)


def _comments(rng, n: int) -> np.ndarray:
    words = schema.P_NAME_WORDS
    pool = [" ".join(words[j] for j in rng.integers(0, len(words), 4))
            for _ in range(256)]
    return _pick(rng, pool, n)


def tpch_tables(sf: float, seed: int) -> dict[str, pf.DataFrame]:
    """All eight TPC-H tables at scale factor ``sf`` (1200 lineitem
    rows per unit, like the repo's own dbgen)."""
    rng = np.random.default_rng(seed)
    counts = {
        name: rows if name in schema.FIXED_TABLES else max(int(rows * sf), 1)
        for name, rows in schema.ROWS_PER_SF.items()
    }
    n_supp, n_cust, n_part = (counts["supplier"], counts["customer"],
                              counts["part"])
    n_ps, n_ord, n_li = counts["partsupp"], counts["orders"], counts["lineitem"]
    tables = {}
    tables["region"] = pf.DataFrame({
        "r_regionkey": np.arange(5, dtype=np.int64),
        "r_name": np.array(schema.REGIONS, dtype=object),
        "r_comment": _comments(rng, 5),
    })
    tables["nation"] = pf.DataFrame({
        "n_nationkey": np.arange(25, dtype=np.int64),
        "n_name": np.array([n for n, _ in schema.NATIONS], dtype=object),
        "n_regionkey": np.array([r for _, r in schema.NATIONS],
                                dtype=np.int64),
        "n_comment": _comments(rng, 25),
    })
    supp_keys = np.arange(1, n_supp + 1, dtype=np.int64)
    tables["supplier"] = pf.DataFrame({
        "s_suppkey": supp_keys,
        "s_name": _numbered("Supplier#", supp_keys, 9),
        "s_address": _comments(rng, n_supp),
        "s_nationkey": rng.integers(0, 25, n_supp),
        "s_phone": _numbered("27-", supp_keys, 7),
        "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_supp), 2),
        "s_comment": _comments(rng, n_supp),
    })
    cust_keys = np.arange(1, n_cust + 1, dtype=np.int64)
    tables["customer"] = pf.DataFrame({
        "c_custkey": cust_keys,
        "c_name": _numbered("Customer#", cust_keys, 9),
        "c_address": _comments(rng, n_cust),
        "c_nationkey": rng.integers(0, 25, n_cust),
        "c_phone": _numbered("27-", cust_keys, 7),
        "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_cust), 2),
        "c_mktsegment": _pick(rng, schema.MKT_SEGMENTS, n_cust),
        "c_comment": _comments(rng, n_cust),
    })
    tables["part"] = pf.DataFrame({
        "p_partkey": np.arange(1, n_part + 1, dtype=np.int64),
        "p_name": _comments(rng, n_part),
        "p_mfgr": _numbered("Manufacturer#", rng.integers(1, 6, n_part), 1),
        "p_brand": _pick(rng, schema.BRANDS, n_part),
        "p_type": _pick(rng, schema.PART_TYPES, n_part),
        "p_size": rng.integers(1, 51, n_part),
        "p_container": _pick(rng, schema.PART_CONTAINERS, n_part),
        "p_retailprice": np.round(rng.uniform(900.0, 2000.0, n_part), 2),
        "p_comment": _comments(rng, n_part),
    })
    tables["partsupp"] = pf.DataFrame({
        "ps_partkey": rng.integers(1, n_part + 1, n_ps),
        "ps_suppkey": rng.integers(1, n_supp + 1, n_ps),
        "ps_availqty": rng.integers(1, 10000, n_ps),
        "ps_supplycost": np.round(rng.uniform(1.0, 1000.0, n_ps), 2),
        "ps_comment": _comments(rng, n_ps),
    })
    order_dates = _dates(rng, n_ord, end="1998-08-02")
    tables["orders"] = pf.DataFrame({
        "o_orderkey": np.arange(1, n_ord + 1, dtype=np.int64),
        "o_custkey": rng.integers(1, n_cust + 1, n_ord),
        "o_orderstatus": _pick(rng, ["F", "O", "P"], n_ord),
        "o_totalprice": np.round(rng.uniform(1000.0, 400000.0, n_ord), 2),
        "o_orderdate": order_dates,
        "o_orderpriority": _pick(rng, schema.ORDER_PRIORITIES, n_ord),
        "o_clerk": _numbered("Clerk#", rng.integers(1, 1000, n_ord), 9),
        "o_shippriority": np.zeros(n_ord, dtype=np.int64),
        "o_comment": _comments(rng, n_ord),
    })
    li_orderkeys = rng.integers(1, n_ord + 1, n_li)
    base_dates = order_dates[li_orderkeys - 1]
    shipdate = base_dates + rng.integers(1, 121, n_li)
    tables["lineitem"] = pf.DataFrame({
        "l_orderkey": li_orderkeys,
        "l_partkey": rng.integers(1, n_part + 1, n_li),
        "l_suppkey": rng.integers(1, n_supp + 1, n_li),
        "l_linenumber": rng.integers(1, 8, n_li),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": np.round(rng.uniform(900.0, 100000.0, n_li), 2),
        "l_discount": np.round(rng.uniform(0.0, 0.10, n_li), 2),
        "l_tax": np.round(rng.uniform(0.0, 0.08, n_li), 2),
        "l_returnflag": _pick(rng, schema.RETURN_FLAGS, n_li),
        "l_linestatus": _pick(rng, schema.LINE_STATUSES, n_li),
        "l_shipdate": shipdate,
        "l_commitdate": base_dates + rng.integers(30, 91, n_li),
        "l_receiptdate": shipdate + rng.integers(1, 31, n_li),
        "l_shipinstruct": _pick(rng, schema.SHIP_INSTRUCTS, n_li),
        "l_shipmode": _pick(rng, schema.SHIP_MODES, n_li),
        "l_comment": _comments(rng, n_li),
    })
    return tables


def groupby_frame(n_rows: int, seed: int) -> pf.DataFrame:
    """High-cardinality int key (``n_rows // 2`` distinct values) with
    two float measures — the ``bench_shuffle`` groupby shape."""
    rng = np.random.default_rng(seed)
    return pf.DataFrame({
        "k": rng.integers(0, n_rows // 2, n_rows),
        "v": rng.normal(size=n_rows),
        "w": rng.normal(size=n_rows),
    })


def strkey_frames(n_rows: int, n_keys: int,
                  seed: int) -> tuple[pf.DataFrame, pf.DataFrame]:
    """A fact table keyed by ``n_keys`` distinct ``cust-%07d`` strings
    and its ``n_keys``-row dimension table."""
    rng = np.random.default_rng(seed)
    names = _numbered("cust-", np.arange(n_keys), 7)
    fact = pf.DataFrame({
        "k": names[rng.integers(0, n_keys, n_rows)],
        "v": rng.normal(size=n_rows),
    })
    dim = pf.DataFrame({"k": names, "label": rng.integers(0, 100, n_keys)})
    return fact, dim
