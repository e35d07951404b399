"""Stability tests for the shared structural-identity hashing.

The identity module backs two consumers with different invariants:

- fault injection needs ``structural_draw`` to be byte-identical to the
  hashing it replaced (one seed ⇒ the same faults, forever);
- the result cache needs ``compute_chunk_identities`` to produce the
  same keys for the same program across sessions (runtime chunk keys
  differ every time) and across serial/thread/process execution modes.
"""

import hashlib

import numpy as np
import pytest

import repro.frame as pf
from repro.config import Config
from repro.core.session import Session
from repro.dataframe import from_frame
from repro.graph.identity import (
    OPAQUE,
    canonical_param,
    compute_chunk_identities,
    structural_draw,
    tokenize,
    value_fingerprint,
)
from repro.utils import tokenize as utils_tokenize


def make_session(**overrides) -> Session:
    cfg = Config()
    cfg.chunk_store_limit = 8_000
    cfg.result_cache = True
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return Session(cfg)


def run_workload(session: Session):
    rng = np.random.default_rng(42)
    local = pf.DataFrame({
        "k": rng.integers(0, 6, 2_000),
        "v": rng.normal(size=2_000),
    })
    return from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


class TestStructuralDraw:
    def test_matches_legacy_blake2b(self):
        # byte-for-byte the draw the fault injector used before hoisting:
        # changing it would re-roll every seeded chaos scenario.
        for seed, ident in [(0, ("compute", 1, 2, 0)),
                            (20240806, ("chunk_loss", 3, 7)),
                            (7, ())]:
            payload = ":".join(str(p) for p in (seed,) + ident)
            digest = hashlib.blake2b(payload.encode(), digest_size=8).digest()
            expected = int.from_bytes(digest, "big") / 2.0 ** 64
            assert structural_draw(seed, *ident) == expected

    def test_injector_delegates(self):
        from repro.core.recovery import FaultInjector
        from repro.config import FaultSpec
        injector = FaultInjector(FaultSpec(seed=11))
        assert injector._draw("compute", 1, 2, 0) == structural_draw(
            11, "compute", 1, 2, 0)

    def test_utils_tokenize_delegates(self):
        assert utils_tokenize("a", 1, (2, 3)) == tokenize("a", 1, (2, 3))


class TestCanonicalParam:
    def test_runtime_keys_are_canonicalized(self):
        assert canonical_param("c-00000123") == canonical_param("c-99999999")
        assert canonical_param("c-00000123") != canonical_param("s-00000123")
        # near-misses stay literal strings
        assert canonical_param("c-123") != canonical_param("c-456")

    def test_lambdas_distinguished_by_closure(self):
        def make(n):
            return lambda x: x + n
        assert canonical_param(make(1)) != canonical_param(make(2))
        assert canonical_param(make(1)) == canonical_param(make(1))

    def test_opaque_objects_poison(self):
        class Handle:
            pass  # default repr carries the object address
        assert canonical_param(Handle()) is OPAQUE
        assert canonical_param([1, Handle()]) is OPAQUE
        assert canonical_param({"k": Handle()}) is OPAQUE

    def test_data_values_fingerprinted(self):
        a = np.arange(10.0)
        b = np.arange(10.0)
        assert canonical_param(a) == canonical_param(b)
        b[3] = -1.0
        assert canonical_param(a) != canonical_param(b)

    def test_frame_fingerprint_detects_mutation(self):
        f1 = pf.DataFrame({"x": np.arange(5.0)})
        f2 = pf.DataFrame({"x": np.arange(5.0)})
        assert value_fingerprint(f1) == value_fingerprint(f2)
        f2["x"].values[0] = 99.0
        assert value_fingerprint(f1) != value_fingerprint(f2)


class TestCrossSessionStability:
    def test_same_workload_same_identities_across_sessions(self):
        # runtime chunk keys are process-global counters, so the two
        # sessions see entirely different keys — the content-addressed
        # identities must still match exactly.
        with make_session() as s1:
            run_workload(s1)
            idents1 = s1.cache.entry_identities()
        with make_session() as s2:
            run_workload(s2)
            idents2 = s2.cache.entry_identities()
        assert idents1 and idents1 == idents2

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_modes_agree(self, mode):
        # 2 kB chunks -> a 14-subtask stage, wide enough for the dispatcher.
        with make_session(parallel_execution=False,
                          chunk_store_limit=2_000) as base:
            run_workload(base)
            expected = base.cache.entry_identities()
        overrides = {"parallel_execution": True, "execution_mode": mode,
                     "chunk_store_limit": 2_000}
        if mode == "process":
            overrides["procpool_workers"] = 2
        with make_session(**overrides) as s:
            run_workload(s)
            assert s.cache.entry_identities() == expected

    def test_different_params_different_identities(self):
        with make_session() as s1:
            rng = np.random.default_rng(42)
            local = pf.DataFrame({"k": rng.integers(0, 6, 2_000),
                                  "v": rng.normal(size=2_000)})
            from_frame(local, s1).groupby("k").agg({"v": "sum"}).fetch()
            sums = set(s1.cache.entry_identities())
        with make_session() as s2:
            rng = np.random.default_rng(42)
            local = pf.DataFrame({"k": rng.integers(0, 6, 2_000),
                                  "v": rng.normal(size=2_000)})
            from_frame(local, s2).groupby("k").agg({"v": "mean"}).fetch()
            means = set(s2.cache.entry_identities())
        # the source chunks coincide; the aggregation chain must not.
        assert sums != means


class TestComputeChunkIdentities:
    def test_poison_propagates_downstream(self):
        from repro.dataframe.arithmetic import MapPartitionsChunk
        from repro.dataframe.datasource import FromFrameSlice

        frame = pf.DataFrame({"x": np.arange(4.0)})
        src_op = FromFrameSlice(frame=frame, start=0, stop=4)
        src = src_op.new_chunk([], "dataframe", (4, 1), (0, 0))

        opaque = object()
        bad_op = MapPartitionsChunk(func=lambda f, h=opaque: f)
        bad = bad_op.new_chunk([src], "dataframe", (4, 1), (0, 0))
        good_op = MapPartitionsChunk(func=lambda f: f)
        good = good_op.new_chunk([bad], "dataframe", (4, 1), (0, 0))

        idents, deps = compute_chunk_identities([src, bad, good])
        assert idents[src.key] is not None
        assert idents[bad.key] is None    # opaque default argument
        assert idents[good.key] is None   # poisoned by its dep
        assert deps[good.key] == frozenset()

    def test_known_resolves_boundaries(self):
        from repro.dataframe.arithmetic import MapPartitionsChunk

        # a materialized boundary chunk with no producer in the graph —
        # the shape a partial execute sees after a dynamic-tiling yield.
        boundary_op = MapPartitionsChunk(func=lambda f: f)
        boundary = boundary_op.new_chunk([], "dataframe", (4, 1), (0, 0))
        boundary.op = None
        consumer_op = MapPartitionsChunk(func=lambda f: f)
        consumer = consumer_op.new_chunk(
            [boundary], "dataframe", (4, 1), (0, 0))

        cold, _ = compute_chunk_identities([boundary, consumer])
        assert cold[consumer.key] is None  # unresolvable boundary

        known = {boundary.key: ("abc123", ("dep1",))}
        idents, deps = compute_chunk_identities([boundary, consumer], known)
        assert idents[boundary.key] == "abc123"
        assert idents[consumer.key] is not None
        assert "abc123" in deps[consumer.key]
        assert "dep1" in deps[consumer.key]
