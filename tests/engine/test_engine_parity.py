"""Cross-backend parity for the chunk-engine seam.

The seam's contract (ISSUE 10): swapping ``Config.chunk_engine`` from
``"row"`` to ``"columnar"`` may change *byte counters only*.  Every
value a session fetches, and every structural number in the reports
(subtask/shuffle topology, fault events, combine drops, retries), must
be identical across backends — and, within the columnar backend, across
serial and process execution modes.

The scenarios replayed here are exactly the 14 golden scenarios of
``tests/core/golden_harness.scenarios()`` — the tier-1 workloads
fault-free, under seeded chaos, and under a squeezed memory budget.
The row engine's bit-identity against the committed goldens is covered
by ``tests/core/test_service_plane.py``; this suite pins the columnar
engine to the row engine.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from tests.core.golden_harness import (
    WORKLOADS,
    collect_report,
    make_session,
    record_plan,
    scenario_config,
    scenarios,
)

from repro.core import Session
from repro.frame import DataFrame, Series
from repro.frame.dtypes import values_equal

#: report fields that describe graph/shuffle *structure* rather than
#: bytes or simulated time — these must never move across backends.
#: (Byte-derived counters — makespan, transfer/shuffle bytes, peak
#: memory, spill — are legitimately per-engine: a dictionary-encoded
#: chunk is smaller than its row twin.)
TOPOLOGY_FIELDS = (
    "n_subtasks",
    "n_graph_nodes",
    "combine_dropped_rows",
    "retries",
    "recomputed_subtasks",
)


def run_with_engine(spec: dict, engine: str):
    name, cfg = scenario_config({**spec, "chunk_engine": engine})
    workload, _ = WORKLOADS[name]
    with Session(cfg) as session:
        value = workload(session)
        report = collect_report(session)
    return value, report


def assert_values_identical(left, right):
    """Fetched results equal: same type, columns, index, cell values."""
    assert type(left) is type(right)
    if isinstance(left, DataFrame):
        assert left.columns.to_list() == right.columns.to_list()
        assert left.shape == right.shape
        assert values_equal(
            np.asarray(left.index.values), np.asarray(right.index.values)
        )
        for name in left.columns.to_list():
            assert values_equal(left[name].values, right[name].values), name
    elif isinstance(left, Series):
        assert left.name == right.name
        assert values_equal(
            np.asarray(left.index.values), np.asarray(right.index.values)
        )
        assert values_equal(left.values, right.values)
    else:
        assert left == right


class TestColumnarMatchesRow:
    """All 14 golden scenarios, row vs columnar, value for value."""

    @pytest.mark.parametrize("name,spec", scenarios(),
                             ids=[name for name, _ in scenarios()])
    def test_scenario_parity(self, name, spec):
        row_value, row_report = run_with_engine(spec, "row")
        col_value, col_report = run_with_engine(spec, "columnar")

        assert_values_identical(row_value, col_value)

        # Under the squeezed memory budget the *byte* sizes of chunks
        # drive admission, spill and pressure splits — columnar chunks
        # are smaller, so the squeeze trajectory may legitimately
        # differ.  Everywhere else structure is pinned.
        if "squeezed" in name:
            return
        assert row_report["fault_events"] == col_report["fault_events"]
        for field in TOPOLOGY_FIELDS:
            assert row_report["sim"][field] == col_report["sim"][field], field
            assert row_report["run"][field] == col_report["run"][field], field
        assert (row_report["run"]["dynamic_yields"]
                == col_report["run"]["dynamic_yields"])


class TestColumnarModeAgreement:
    """Columnar reports are bit-identical serial / process.

    The deterministic accounting walk promises SimReport does not
    depend on which runner executed the kernels; that promise must
    survive the new physical representation (including the procpool
    wire format for dictionary columns).
    """

    @pytest.mark.parametrize("workload", ["groupby_shuffle", "tpch_q5"])
    def test_serial_thread_process_identical(self, workload):
        _, overrides = WORKLOADS[workload]
        spec = {"workload": workload, **overrides}
        serial_value, serial = run_with_engine(
            {**spec, "parallel": False}, "columnar")
        process_value, process = run_with_engine(
            {**spec, "parallel": True}, "columnar")

        assert_values_identical(serial_value, process_value)
        assert serial["sim"] == process["sim"]
        assert serial["fault_events"] == process["fault_events"]


class TestStringKeyHashParity:
    """Satellite 6 end-to-end: a *string*-keyed shuffle routes rows to
    the same reducers under both engines, so the fetched groupby result
    — reducer-partition concatenation order included — is identical.
    """

    @staticmethod
    def _string_groupby(session):
        from repro import frame as pf
        from repro.dataframe import from_frame

        rng = np.random.default_rng(23)
        keys = np.array(
            [f"cust-{k:04d}" for k in rng.integers(0, 40, 3_000)],
            dtype=object,
        )
        local = pf.DataFrame({"k": keys, "v": rng.normal(size=3_000)})
        return from_frame(local, session).groupby("k").agg(
            {"v": "sum"}).fetch()

    @pytest.mark.parametrize("combine", [True, False])
    def test_string_groupby_parity(self, combine):
        results = {}
        for engine in ("row", "columnar"):
            with make_session(
                chunk_limit=4_000, tree_reduce_threshold=1,
                chunk_engine=engine, mapper_side_combine=combine,
            ) as session:
                results[engine] = (self._string_groupby(session),
                                   collect_report(session))
        assert_values_identical(results["row"][0], results["columnar"][0])
        for field in TOPOLOGY_FIELDS:
            assert (results["row"][1]["sim"][field]
                    == results["columnar"][1]["sim"][field]), field


class TestColumnarBytesPinned:
    """The dictionary riding with the column changes no byte and no
    decision: a ``persist`` that compacts codes stores exactly the
    ``DictColumn`` a fresh encode of the same cells would, so the
    columnar engine's own byte counters, virtual makespan and tiling
    decisions on the string-key shuffle are the numbers recorded before
    kernels consumed codes (commit 8ab297c), in both execution modes.
    """

    PINNED_SIM = {
        "n_subtasks": 126,
        "total_shuffle_bytes": 282_340,
        "total_transfer_bytes": 211_784,
        "makespan": 0.6045439551658928,
        "peak_memory": {"worker-0": 136_784, "worker-1": 140_850,
                        "worker-2": 140_340, "worker-3": 118_136},
    }
    PINNED_PLAN = [
        {"op": "FromFrame", "chunks": [55],
         "chunk_ops": {"FromFrameSlice": 55}, "partitioners": []},
        {"op": "GroupByAgg", "chunks": [16],
         "chunk_ops": {"GroupByAgg:map": 55, "GroupByAgg:reduce": 16,
                       "GroupByPartition": 55},
         "partitioners": [["GroupByPartition", 16, str([
             "cust-0002", "cust-0004", "cust-0007", "cust-0009", "cust-0012",
             "cust-0014", "cust-0016", "cust-0019", "cust-0021", "cust-0024",
             "cust-0027", "cust-0029", "cust-0031", "cust-0034", "cust-0037",
         ])]]},
    ]

    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["serial", "process"])
    @pytest.mark.parametrize("combine", [True, False])
    def test_string_shuffle_counters(self, combine, parallel):
        with make_session(
            parallel=parallel, chunk_limit=4_000, tree_reduce_threshold=1,
            chunk_engine="columnar", mapper_side_combine=combine,
        ) as session, record_plan() as plan:
            TestStringKeyHashParity._string_groupby(session)
            report = collect_report(session, plan)
        assert {name: report["sim"][name]
                for name in self.PINNED_SIM} == self.PINNED_SIM
        assert json.loads(json.dumps(report["plan"])) == self.PINNED_PLAN
