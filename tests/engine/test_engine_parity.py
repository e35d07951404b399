"""Cross-backend parity for the chunk-engine seam.

Swapping ``Config.chunk_engine`` from ``"row"`` to ``"columnar"`` changes
wall-clock only, as ``execution_mode`` does: a columnar chunk is the row
engine's ``repro.frame`` container with its string columns carrying a
dictionary, charged by its cells.  Every value a session fetches and
the whole report — simulated numbers, run counters, fault events and
tiling decisions — must be identical across backends, and, within the
columnar backend, across serial and process execution modes.

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

def run_with_engine(spec: dict, engine: str):
    name, cfg = scenario_config({**spec, "chunk_engine": engine})
    workload, _ = WORKLOADS[name]
    with Session(cfg) as session, record_plan() as plan:
        value = workload(session)
        report = collect_report(session, plan)
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
    """All 14 golden scenarios, row vs columnar: the same values and the
    same report, squeezed scenarios included."""

    @pytest.mark.parametrize("name,spec", scenarios(),
                             ids=[name for name, _ in scenarios()])
    def test_scenario_parity(self, name, spec):
        row_value, row_report = run_with_engine(spec, "row")
        col_value, col_report = run_with_engine(spec, "columnar")

        assert_values_identical(row_value, col_value)
        assert col_report == row_report


class TestColumnarModeAgreement:
    """Columnar reports are bit-identical serial / process, and equal
    the serial row report.

    The deterministic accounting walk promises SimReport does not
    depend on which runner executed the kernels; that promise must
    survive the dictionary columns, which cross the process boundary as
    plain cells and are encoded again on the other side.
    """

    @pytest.mark.parametrize("workload", ["groupby_shuffle", "tpch_q5"])
    def test_serial_thread_process_identical(self, workload):
        _, overrides = WORKLOADS[workload]
        spec = {"workload": workload, **overrides}
        serial_value, serial = run_with_engine(
            {**spec, "parallel": False}, "columnar")
        process_value, process = run_with_engine(
            {**spec, "parallel": True}, "columnar")
        row_value, row = run_with_engine({**spec, "parallel": False}, "row")

        assert_values_identical(serial_value, process_value)
        assert_values_identical(row_value, process_value)
        for section in ("sim", "fault_events", "plan"):
            assert serial[section] == process[section] == row[section], \
                section


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
        assert results["row"][1] == results["columnar"][1]


class TestColumnarBytesPinned:
    """The dictionary riding with the column changes no byte and no
    decision: on the string-key shuffle the columnar engine's byte
    counters, virtual makespan and whole report are the row engine's, in
    both execution modes, and its tiling decisions are the ones recorded
    before kernels consumed codes (commit 8ab297c).
    """

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
        reports = {}
        for engine in ("row", "columnar"):
            with make_session(
                parallel=parallel, chunk_limit=4_000,
                tree_reduce_threshold=1, chunk_engine=engine,
                mapper_side_combine=combine,
            ) as session, record_plan() as plan:
                TestStringKeyHashParity._string_groupby(session)
                reports[engine] = collect_report(session, plan)
        assert reports["columnar"] == reports["row"]
        assert reports["columnar"]["sim"]["total_shuffle_bytes"] > 0
        assert (json.loads(json.dumps(reports["columnar"]["plan"]))
                == self.PINNED_PLAN)
