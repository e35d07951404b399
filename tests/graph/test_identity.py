"""Stability tests for the shared structural-identity hashing.

The identity module backs two consumers with different invariants:

- fault injection needs ``structural_draw`` to be byte-identical to the
  hashing it replaced (one seed ⇒ the same faults, forever);
- the result cache needs ``compute_chunk_identities`` to produce the
  same keys for the same program across sessions (runtime keys differ
  every time) and across serial/process execution modes.
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
        # a shuffle's id is the one runtime key an operator holds; it
        # names plumbing, so two sessions' mappers still digest alike.
        from repro.dataframe.shuffle import ShufflePartition
        from repro.graph.identity import IdentityContext, _op_digest

        def mapper(shuffle_id):
            return ShufflePartition(key="k", boundaries=[],
                                    shuffle_id=shuffle_id)

        assert (_op_digest(mapper("session-1/shuffle-00000007"),
                           IdentityContext())
                == _op_digest(mapper("session-2/shuffle-00000042"),
                              IdentityContext()))
        # a string that merely looks like a runtime key is a value: two
        # of them are two different filters.
        assert canonical_param("order-20240115") != canonical_param(
            "order-20240116")
        assert canonical_param("c-00000123") != canonical_param("c-99999999")

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


def cells(*items) -> np.ndarray:
    """A 1-d object array holding exactly ``items`` (lists stay cells)."""
    arr = np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        arr[i] = item
    return arr


NAN = float("nan")
GRID = np.arange(24.0).reshape(4, 6)

#: (left, right, whether the two must fingerprint alike).
ENCODING_TABLE = {
    "rebuilt-equal": (cells("ab", "c", None, 1.5), cells("ab", "c", None, 1.5),
                      True),
    "changed-character": (cells("alpha", "beta"), cells("alpha", "bet4"),
                          False),
    "swapped-cells": (cells("a", "b", "c"), cells("b", "a", "c"), False),
    "boundary-shift": (cells("ab", "c"), cells("a", "bc"), False),
    "boundary-shift-bytes": (cells(b"ab", b"c"), cells(b"a", b"bc"), False),
    "int-vs-float": (cells(1), cells(1.0), False),
    "int-vs-bool": (cells(1), cells(True), False),
    "int-vs-str": (cells(1), cells("1"), False),
    "str-vs-bytes": (cells("1"), cells(b"1"), False),
    "float-vs-bool": (cells(1.0), cells(True), False),
    "none-vs-str": (cells(None), cells("None"), False),
    "none-vs-nan": (cells(None), cells(NAN), False),
    "nan-vs-str": (cells(NAN), cells("nan"), False),
    "none-vs-empty": (cells(None, "a"), cells("", "a"), False),
    "none-moves": (cells("a", None, "b"), cells("a", "b", None), False),
    "mixed-swap": (cells(1, "1"), cells("1", 1), False),
    "ints-then-floats": (cells(1, 2, 30.0, 4.0), cells(1, 23, 0.0, 4.0),
                         False),
    "empty-string-moves": (cells("a", "", "b"), cells("a", "b", ""), False),
    "empty-vs-nul": (cells(""), cells("\0"), False),
    "embedded-nul-shift": (cells("a\0b", "c"), cells("a", "b\0c"), False),
    "embedded-nul-edge": (cells("a\0", "b"), cells("a", "\0b"), False),
    "embedded-nul-bytes": (cells(b"a\0", b"b"), cells(b"a", b"\0b"), False),
    "non-bmp-vs-surrogates": (cells("\U0001F600"), cells("\ud83d\ude00"),
                              False),
    "lone-surrogates": (cells("\ud800x"), cells("\udc00x"), False),
    "big-ints": (cells(2 ** 70), cells(2 ** 70 + 1), False),
    "np-scalar-cells": (cells(np.str_("ab"), "c"), cells(np.str_("ab"), "d"),
                        False),
    "strided-numeric": (np.arange(20.0)[::2], np.arange(20.0)[::2].copy(),
                        True),
    "strided-object": (cells("a", "x", "b", "x")[::2], cells("a", "b"), True),
    "transposed": (GRID.T, np.ascontiguousarray(GRID.T), True),
    "transposed-vs-reshaped": (GRID.T, GRID.reshape(6, 4), False),
    "dates": (np.array(["2024-01-01", "2024-01-02"], dtype="datetime64[D]"),
              np.array(["2024-01-01", "2024-01-03"], dtype="datetime64[D]"),
              False),
}


class TestColumnEncodings:
    @pytest.mark.parametrize("left, right, same", ENCODING_TABLE.values(),
                             ids=ENCODING_TABLE.keys())
    def test_table(self, left, right, same):
        fp_left, fp_right = value_fingerprint(left), value_fingerprint(right)
        assert fp_left is not None and fp_right is not None
        assert (fp_left == fp_right) is same

    def test_unhashable_cell_poisons_the_column(self):
        assert value_fingerprint(cells("a", [1, 2])) is None
        assert value_fingerprint(cells("a", object())) is None
        assert canonical_param(cells("a", [1, 2])) is OPAQUE

    def test_frame_with_string_columns(self):
        def frame(names):
            return pf.DataFrame({"k": np.arange(3), "name": cells(*names)})
        assert (value_fingerprint(frame(["ab", "c", None]))
                == value_fingerprint(frame(["ab", "c", None])))
        assert (value_fingerprint(frame(["ab", "c", None]))
                != value_fingerprint(frame(["a", "bc", None])))


def rebuilt(column: np.ndarray) -> np.ndarray:
    """``column`` with every ``str`` cell a new object of equal content."""
    return cells(*("".join(list(c)) if isinstance(c, str) else c
                   for c in column.tolist()))


class TestSharedObjectColumns:
    """A column of a few shared strings is fingerprinted from its objects
    and their ids; a copy built cell by cell fingerprints the same, and
    changing any one cell of either changes the fingerprint."""

    N = 3_000

    def shared(self) -> np.ndarray:
        names = cells("BUILDING", "MACHINERY", "AUTOMOBILE", "HOUSEHOLD")
        return names[np.arange(self.N) * 7 % 4]

    def test_shared_and_per_cell_copies_fingerprint_alike(self):
        column = self.shared()
        copy = rebuilt(column)
        assert pf.dtypes.shared_objects(column) is not None
        assert pf.dtypes.shared_objects(copy) is None
        assert value_fingerprint(column) == value_fingerprint(copy)
        frame = pf.DataFrame({"k": np.arange(self.N), "s": column})
        assert (value_fingerprint(frame) == value_fingerprint(
            pf.DataFrame({"k": np.arange(self.N), "s": copy})))
        with_none = column.copy()
        with_none[::5] = None  # not all str: the type-grouped form
        assert (value_fingerprint(with_none)
                == value_fingerprint(rebuilt(with_none)))

    @pytest.mark.parametrize("row", [0, 1_500, 2_999])
    @pytest.mark.parametrize("cell", ["BUILDINGS", "MACHINERY", None])
    def test_one_changed_cell_changes_the_fingerprint(self, row, cell):
        column = self.shared()
        changed = column.copy()
        if changed[row] == cell:
            cell = "HOUSEHOLD"
        changed[row] = cell
        for original in (column, rebuilt(column)):
            for mutated in (changed, rebuilt(changed)):
                assert value_fingerprint(original) != value_fingerprint(
                    mutated)
        assert value_fingerprint(changed) == value_fingerprint(
            rebuilt(changed))

    def test_only_the_shared_objects_are_hashed(self, monkeypatch):
        booked = []
        real = pf.dtypes.hash_cells

        def counted(items):
            booked.append(len(items))
            return real(items)

        monkeypatch.setattr(pf.dtypes, "hash_cells", counted)
        value_fingerprint(self.shared())
        assert booked == [4]

    def test_dictionary_form_meets_no_other_payload(self):
        """Columns of few strings stay apart from each other and from a
        mixed column of the same bytes; a column of too many distinct
        strings for a dictionary still fingerprints like its copy."""
        few = cells(*"abab")
        assert value_fingerprint(few) != value_fingerprint(cells(*"abba"))
        assert value_fingerprint(few) != value_fingerprint(
            cells(*"ab", "a", b"b"))
        many = cells(*(f"s{i}" for i in range(9)))
        assert value_fingerprint(many) == value_fingerprint(rebuilt(many))


class TestExecuteScope:
    def test_warm_q5_hashes_each_table_once(self, monkeypatch):
        from repro.graph import identity
        from tests.core.golden_harness import tpch_q5

        hashed = []
        real = identity.value_fingerprint
        monkeypatch.setattr(
            identity, "value_fingerprint",
            lambda value: hashed.append(value) or real(value))
        with make_session(chunk_store_limit=64 * 1024) as session:
            cold = repr(tpch_q5(session))
            assert len(hashed) == 6  # one per table, not one per stage
            del hashed[:]
            assert repr(tpch_q5(session)) == cold
            assert session.last_report.cache_hit_chunks > 0
        assert len(hashed) == 6

    def test_mutation_between_executes_changes_every_identity(
            self, monkeypatch):
        # same frame object at the same address, and a boundary shift
        # ("ab", "c" -> "a", "bc") at that: only a memo reset between
        # the two runs, and an unambiguous encoding, can notice.
        local = pf.DataFrame({"name": cells(*["ab", "c"] * 1_000),
                              "v": np.arange(2_000.0)})
        stamped = record_identities(monkeypatch)

        def run(session):
            stamped.clear()
            out = from_frame(local, session).groupby("name").agg({"v": "sum"})
            return repr(out.fetch()), dict(stamped)

        with make_session() as session:
            first, before = run(session)
            assert before and None not in before.values()
            local["name"].values[6:8] = ["a", "bc"]
            second, after = run(session)
            assert session.last_report.cache_hit_chunks == 0
        assert second != first
        assert len(after) == len(before)
        assert not set(after.values()) & set(before.values())


def record_identities(monkeypatch) -> dict:
    """Every identity the executor stamps from now on, by node key."""
    from repro.core import executor

    stamped = {}
    real = executor.compute_chunk_identities

    def recording(nodes, *args, **kwargs):
        nodes = list(nodes)
        real(nodes, *args, **kwargs)
        stamped.update((node.key, node.ident) for node in nodes)

    monkeypatch.setattr(executor, "compute_chunk_identities", recording)
    return stamped


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

    @pytest.mark.parametrize("mode", ["process"])
    def test_modes_agree(self, mode):
        # 2 kB chunks -> a 14-subtask stage, wide enough for the dispatcher.
        with make_session(chunk_store_limit=2_000) as base:
            run_workload(base)
            expected = base.cache.entry_identities()
        with make_session(execution_mode=mode,
                          chunk_store_limit=2_000) as s:
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
    """The pass stamps a plan's tileables: an untiled one hashes what it
    computes, a tiled one keeps its stamp while its chunks are stored."""

    @staticmethod
    def plan(func):
        from repro.dataframe.arithmetic import MapPartitions
        from repro.dataframe.datasource import FromFrame

        frame = pf.DataFrame({"x": np.arange(4.0)})
        src = FromFrame(frame=frame).new_tileable(
            [], "dataframe", (4, 1), columns=["x"])
        mid = MapPartitions(func=func, out_kind="dataframe").new_tileable(
            [src], "dataframe", (4, 1))
        top = MapPartitions(func=lambda f: f, out_kind="dataframe"
                            ).new_tileable([mid], "dataframe", (4, 1))
        return src, mid, top

    def test_poison_propagates_downstream(self):
        opaque = object()
        src, bad, good = self.plan(lambda f, h=opaque: f)
        compute_chunk_identities([src, bad, good])
        assert src.ident is not None
        assert bad.ident is None    # opaque default argument
        assert good.ident is None   # poisoned by its dep

    def test_known_resolves_boundaries(self):
        from repro.graph.entity import ChunkData

        # a tiled input — a reused handle — is a boundary of the plan:
        # while its chunks are stored it stands for the key it was
        # stamped with when it was planned.
        src, mid, top = self.plan(lambda f: f)
        compute_chunk_identities([src, mid, top])
        planned = mid.ident, top.ident
        chunk = ChunkData("dataframe", (4, 1), (0, 0))
        mid.with_chunks([chunk], ((4,), (1,)))
        compute_chunk_identities([mid, top], stored={chunk.key})
        assert (mid.ident, top.ident) == planned
        mid.ident = "abc124"
        compute_chunk_identities([mid, top], stored={chunk.key})
        assert top.ident not in (None, planned[1])

        # a chunk gone: computing it again would re-read the source, so
        # the stamp goes for good and poisons what reads the node.
        mid.ident = planned[0]
        compute_chunk_identities([mid, top])
        assert mid.ident is None and top.ident is None
        compute_chunk_identities([mid, top], stored={chunk.key})
        assert mid.ident is None and top.ident is None

    def test_operators_are_digested_once_to_a_short_digest(
            self, monkeypatch):
        # the chunks one operator was cut into share their function: it
        # is canonicalized — data fingerprint and all — once per execute,
        # and each chunk's identity hashes a 20-character digest of it.
        from repro.dataframe.arithmetic import MapPartitionsChunk
        from repro.graph import identity

        big = np.arange(50_000.0)
        func = lambda f, table=big: f  # noqa: E731
        ops = [MapPartitionsChunk(func=func) for _ in range(4)]
        computed = []
        real = identity._spec_digest
        monkeypatch.setattr(identity, "_spec_digest", lambda spec, ctx: (
            computed.append(spec) or real(spec, ctx)))
        ctx = identity.IdentityContext()
        digests = {identity._op_digest(op, ctx) for op in ops}
        assert len(computed) == 1
        (digest,) = digests
        assert isinstance(digest, str) and len(digest) == 20


class TestQueryKeys:
    """The query-level key: a tileable plan's identity, salted with the
    session configuration."""

    @staticmethod
    def keys(session, local, how="sum"):
        from repro.core.tiler import build_tileable_graph

        out = from_frame(local, session).groupby("k").agg({"v": how})
        graph = build_tileable_graph([out.data])
        return session.executor.query_keys(graph, [out.data])[0]

    def test_fresh_handles_and_sessions_agree(self):
        rng = np.random.default_rng(5)
        local = pf.DataFrame({"k": rng.integers(0, 6, 500),
                              "v": rng.normal(size=500)})
        with make_session() as s1, make_session() as s2:
            first = self.keys(s1, local)
            assert first is not None
            assert self.keys(s1, local) == first
            assert self.keys(s2, local) == first
            assert self.keys(s1, local, "mean") != first

    def test_config_and_data_change_the_key(self):
        rng = np.random.default_rng(5)
        local = pf.DataFrame({"k": rng.integers(0, 6, 500),
                              "v": rng.normal(size=500)})
        with make_session() as s1, make_session(chunk_store_limit=4_000) as s2:
            first = self.keys(s1, local)
            assert self.keys(s2, local) != first
            s1.executor.identity.reset()  # what a new execute() does
            local["v"].values[0] += 1.0
            assert self.keys(s1, local) != first
