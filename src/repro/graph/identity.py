"""Structural identities: the engine's one hashing surface.

Three consumers share the canonical hashing that used to be spread over
``core/recovery.py`` (fault draws), ``utils.py`` (``tokenize``) and ad
hoc per-feature code:

- **fault injection** draws a seeded uniform from a *structural*
  identity — ``(stage index, topological priority, attempt)`` — via
  :func:`structural_draw`, so one seed fires the same faults in serial
  and process execution mode and across sessions;
- **the result cache** addresses stored results by the expression
  that computed them: :func:`compute_chunk_identities` hashes each
  tileable's operator digest (canonicalized parameters, source-data
  fingerprints) with its inputs' keys into a key that is stable across
  sessions (runtime keys never enter it) — the same computation always
  hashes to the same key, and a mutated source hashes to a different
  one;
- **tests/utilities** use :func:`tokenize` for short deterministic
  digests of plain values.

Identities must never depend on process-global state: runtime keys
(``c-00000123``-style counters) only name plumbing — a shuffle's
registration id — which the identity leaves out, and object addresses
and unhashable opaque objects poison the identity (``None`` =
uncacheable), never silently hashed. A string parameter is always
hashed as written, whatever it looks like.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import marshal
import os
import re
import types
from typing import Any, Callable, Container, Iterable, Optional

import numpy as np

#: default ``repr`` of address-carrying objects — opaque, uncacheable.
_ADDR_RE = re.compile(r" at 0x[0-9a-fA-F]+")

#: sentinel: a value that cannot be canonicalized deterministically.
#: Its presence anywhere in an operator's parameters poisons the node's
#: identity (the node — and everything downstream — is uncacheable).
OPAQUE = object()


def structural_draw(seed: int, *identity: Any) -> float:
    """Uniform ``[0, 1)`` value derived from ``seed`` and an identity.

    Byte-for-byte the draw the fault injector has always used: the
    payload is the ``:``-joined ``str`` of every part, hashed with an
    8-byte blake2b digest.
    """
    payload = ":".join(str(part) for part in (seed,) + identity)
    digest = hashlib.blake2b(payload.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def tokenize(*parts: Any) -> str:
    """Deterministic short hash of the given parts (for cache keys)."""
    hasher = hashlib.blake2b(digest_size=10)
    for part in parts:
        hasher.update(repr(part).encode())
    return hasher.hexdigest()


def _digest_of(*parts: Any) -> str:
    """:func:`tokenize` for canonical forms — tuples of strings, numbers,
    bytes and ``None`` only: their ``marshal`` encoding (format 0: no
    back-references, no interning) is exact and several times cheaper to
    build than a ``repr``."""
    return hashlib.blake2b(marshal.dumps(parts, 0),
                           digest_size=10).hexdigest()


# ---------------------------------------------------------------------------
# value fingerprints: hash the *content* of source data
# ---------------------------------------------------------------------------

#: exact cell types an object column is hashed column-wise for, and the
#: code that tags each: ``1`` / ``1.0`` / ``True`` / ``"1"`` and ``None`` /
#: ``"None"`` / ``nan`` never collide. Subclasses (``np.str_``,
#: ``np.float64``) and every other type take the per-cell loop.
_CELL_CODES = {type(None): 0, bool: 1, int: 2, float: 3, str: 4, bytes: 5}


def _feed_sized(payload: bytes, hasher) -> None:
    """Length-prefixed update: adjacent payloads cannot bleed together."""
    hasher.update(len(payload).to_bytes(8, "little"))
    hasher.update(payload)


def _object_fingerprint(arr: np.ndarray, hasher) -> bool:
    """Feed an object array's cells into ``hasher``, column-wise in C.

    An all-``str`` column of at most ``IDENTITY_BOUND`` distinct strings
    goes in as a dictionary (:func:`_feed_dictionary`): when its cells
    are a few shared objects only those objects are hashed, and a copy
    built cell by cell, equal in content, takes the same form through a
    per-cell pass.  Any other column's cells are grouped by exact type —
    which types, then (when mixed) the per-cell type codes go in first —
    and each group is one payload: numbers as their comma-joined
    ``repr``, strings and bytes NUL-joined (:func:`_feed_strings`).
    Only a column holding some other type pays the per-cell Python loop,
    which returns False for anything that cannot be hashed
    deterministically.
    """
    from ..engine.local import dtypes  # the frame's kernels, read lazily

    flat = arr.ravel()
    shared = dtypes.shared_objects(flat)
    if shared is not None and set(map(type, shared[1])) == {str}:
        ids, objects = shared  # ``first_seen`` without a second pass
        codes, distinct = dtypes.hash_cells(objects)
        if len(distinct) < len(objects):  # equal strings, distinct objects
            ids = codes.astype(np.int8)[ids]
        return _feed_dictionary(ids, distinct, hasher)
    items = flat.tolist()
    census = set(map(type, items))
    if (shared is None and census == {str}
            and len(set(items[:dtypes.IDENTITY_WINDOW])) <= dtypes.IDENTITY_BOUND
            and len(set(items)) <= dtypes.IDENTITY_BOUND):
        return _feed_dictionary(*dtypes.hash_cells(items), hasher)
    if not census <= _CELL_CODES.keys():
        hasher.update(b"loop")
        for item in items:
            if not isinstance(item, (str, bytes, int, float, bool,
                                     np.generic, type(None), tuple)):
                return False
            hasher.update(repr(item).encode())
        return True
    kinds = sorted(census, key=_CELL_CODES.__getitem__)
    hasher.update(bytes(map(_CELL_CODES.__getitem__, kinds)))
    codes = None
    if len(kinds) > 1:
        codes = np.fromiter(map(_CELL_CODES.__getitem__, map(type, items)),
                            np.uint8, len(items))
        hasher.update(codes)
    for kind in kinds:
        if kind is type(None):
            continue  # the codes say it all
        cells = (items if codes is None
                 else flat[codes == _CELL_CODES[kind]].tolist())
        if kind is str:
            _feed_strings(cells, hasher)
        elif kind is bytes:
            _feed_joined(b"\0".join(cells), cells, hasher)
        else:
            _feed_sized(",".join(map(repr, cells)).encode(), hasher)
    return True


def _feed_dictionary(codes: np.ndarray, distinct: list, hasher) -> bool:
    """An all-``str`` column as its distinct strings in first-seen order
    and each cell's position among them (``uint8``: at most
    ``IDENTITY_BOUND`` of them).  The leading ``0xff`` is no type code,
    so this form cannot meet the type-grouped one."""
    hasher.update(b"\xffdict")
    hasher.update(len(distinct).to_bytes(8, "little"))
    _feed_strings(distinct, hasher)
    hasher.update(codes.astype(np.uint8, copy=False))
    return True


def _feed_strings(cells: list, hasher) -> None:
    """``str`` cells as one NUL-joined UTF-8 payload."""
    _feed_joined("\0".join(cells).encode("utf-8", "surrogatepass"),
                 cells, hasher)


def _feed_joined(joined: bytes, cells: list, hasher) -> None:
    """``cells`` joined by NUL.  The separator count proves no cell
    embeds a NUL, so ``["ab", "c"]`` and ``["a", "bc"]`` cannot meet; a
    payload that does embed one adds its length vector."""
    # UTF-8 spends a zero byte on U+0000 alone, so zero bytes count
    # separators plus embedded NULs (NumPy counts them 7x faster
    # than ``bytes.count`` when they are this dense).
    zeros = np.count_nonzero(np.frombuffer(joined, np.uint8) == 0)
    embedded = zeros != len(cells) - 1
    hasher.update(b"L" if embedded else b"S")
    if embedded:
        hasher.update(np.fromiter(map(len, cells), np.int64, len(cells)))
    _feed_sized(joined, hasher)


def _array_fingerprint(arr: np.ndarray, hasher) -> bool:
    """Feed one ndarray's dtype/shape/content into ``hasher``.

    Returns False when the array holds objects that cannot be hashed
    deterministically. Plain buffers are hashed in place; only a strided
    view is copied first, so it hashes like its contiguous copy.
    """
    # ``dtype.str`` is C-level; only a record dtype needs its field names.
    dtype = arr.dtype
    hasher.update((str(dtype) if dtype.names else dtype.str).encode())
    hasher.update(str(arr.shape).encode())
    if arr.dtype == object:
        return _object_fingerprint(arr, hasher)
    if arr.dtype.hasobject:
        return False
    if arr.nbytes:
        data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        hasher.update(data.reshape(-1).view(np.uint8))
    return True


def value_fingerprint(value: Any) -> Optional[str]:
    """Content hash of a source data value, or ``None`` if unhashable.

    Understands NumPy arrays and the ``repro.frame`` containers (duck
    typed on their ``_data``/``_columns``/``_index`` internals so this
    module stays free of upward imports). A fingerprint covers dtype,
    shape, column names, index labels and raw bytes — any in-place
    mutation changes it. Source bytes go through SHA-256, which CPUs
    with SHA extensions hash several times faster than blake2b.
    """
    hasher = hashlib.sha256()
    if _feed_value(value, hasher):
        return hasher.hexdigest()[:32]
    return None


def _feed_value(value: Any, hasher) -> bool:
    if value is None or isinstance(value, (str, bytes, int, float, bool,
                                           np.generic)):
        hasher.update(repr(value).encode())
        return True
    if isinstance(value, np.ndarray):
        return _array_fingerprint(value, hasher)
    # repro.frame.DataFrame: dict of column arrays + columns + index.
    data = getattr(value, "_data", None)
    if isinstance(data, dict):
        columns = getattr(value, "_columns", None)
        names = (list(columns) if columns is not None
                 else sorted(data, key=repr))
        hasher.update(repr(names).encode())
        for name in names:
            if not _feed_value(data[name], hasher):
                return False
        return _feed_index(getattr(value, "_index", None), hasher)
    # repro.frame.Series: values array + name + index.
    values = getattr(value, "values", None)
    if isinstance(values, np.ndarray):
        hasher.update(repr(getattr(value, "name", None)).encode())
        if not _array_fingerprint(values, hasher):
            return False
        return _feed_index(getattr(value, "_index", None), hasher)
    if isinstance(value, (list, tuple)):
        hasher.update(f"seq:{len(value)}".encode())
        return all(_feed_value(item, hasher) for item in value)
    return False


def _feed_index(index: Any, hasher) -> bool:
    if index is None:
        hasher.update(b"noindex")
        return True
    start = getattr(index, "start", None)
    if start is not None and not hasattr(index, "values"):
        hasher.update(f"range:{start}:{len(index)}".encode())
        return True
    values = getattr(index, "values", None)
    if isinstance(values, np.ndarray):
        return _array_fingerprint(values, hasher)
    hasher.update(repr(index).encode())
    return True


# ---------------------------------------------------------------------------
# the execute-scoped memo
# ---------------------------------------------------------------------------

class IdentityContext:
    """What one ``Session.execute`` call may remember while it runs.

    Source fingerprints, file stats, operator, callable and code digests
    are memoized here for the span of one run: a source frame is hashed
    once however many nodes read it, and no operator is digested twice.
    Entries are keyed by ``id`` — a frame by the ``id``s of its columns
    and index, so the column subsets a source reads share one
    fingerprint — and keep a reference to the object they describe, so
    an address cannot be recycled into an alias while its entry lives.
    The owner resets the context when a run starts — data mutated, or a
    file rewritten, *between* two executes is therefore always read
    again.
    """

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict[Any, tuple[Any, Any]] = {}

    def reset(self) -> None:
        self._memo.clear()

    def memoized(self, obj: Any,
                 compute: Callable[[Any, "IdentityContext"], Any],
                 key: Any = None) -> Any:
        """``compute(obj, self)``, evaluated once per object (or per
        ``key``) and reset; an object is only ever memoized under one
        ``compute``."""
        if key is None:
            key = id(obj)
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = (obj, compute(obj, self))
        return entry[1]


# ---------------------------------------------------------------------------
# parameter canonicalization: strip runtime/process-local state
# ---------------------------------------------------------------------------

#: exact types that are their own canonical form (``marshal`` keeps
#: ``"1"`` / ``1`` / ``1.0`` / ``True`` / ``b"1"`` / ``None`` apart, and
#: containers canonicalize to tagged tuples). Subclasses —
#: ``np.float64``, enums, ``np.str_`` — are tagged with their type.
_SELF_CANONICAL = frozenset({str, int, float, bool, bytes, type(None)})
_LITERALS = (str, int, float, bytes, np.generic)


def _canonical_items(values, ctx: IdentityContext | None) -> Any:
    """The canonical forms of ``values`` as a list, or OPAQUE."""
    items = []
    for item in values:
        if type(item) not in _SELF_CANONICAL:
            item = canonical_param(item, ctx)
            if item is OPAQUE:
                return OPAQUE
        items.append(item)
    return items


def _sorted(items: list) -> tuple:
    """``items`` in a deterministic order, whatever their types."""
    try:
        items.sort()
    except TypeError:
        items.sort(key=repr)
    return tuple(items)


def canonical_param(value: Any, ctx: IdentityContext | None = None) -> Any:
    """A session-stable token for an operator parameter.

    Returns a nested structure of tuples, strings, numbers, bytes and
    ``None`` (what :func:`_digest_of` hashes), or :data:`OPAQUE` when the
    parameter cannot be canonicalized (the operator is then
    uncacheable). Handles:

    - callables → a digest of module/qualname/bytecode/consts plus the
      canonical values of their closure cells (two lambdas sharing a
      qualname but closing over different values hash differently);
    - data values (arrays, frames) → content fingerprints;
    - graph entities, actors, open handles → :data:`OPAQUE`.
    """
    kind = type(value)
    if kind in _SELF_CANONICAL:
        return value
    if isinstance(value, _LITERALS):
        return ("lit", kind.__qualname__, repr(value))
    if kind is dict and not value:
        return ("map", ())
    if isinstance(value, (list, tuple)):
        items = _canonical_items(value, ctx)
        if items is OPAQUE:
            return OPAQUE
        return (kind.__name__, tuple(items))
    if isinstance(value, (set, frozenset)):
        items = _canonical_items(value, ctx)
        if items is OPAQUE:
            return OPAQUE
        return ("set", _sorted(items))
    if isinstance(value, dict):
        keys = _canonical_items(value, ctx)
        items = _canonical_items(value.values(), ctx)
        if keys is OPAQUE or items is OPAQUE:
            return OPAQUE
        return ("map", _sorted(list(zip(keys, items))))
    if ctx is None:
        ctx = IdentityContext()
    if isinstance(value, np.dtype):
        return ("dtype", str(value))
    if isinstance(value, type):
        return ("type", value.__module__, value.__qualname__)
    data = getattr(value, "_data", None)
    if isinstance(data, dict):
        # a repro.frame.DataFrame: fingerprint content, never repr — once
        # per execute for every frame built of the same columns.
        columns = getattr(value, "_columns", None)
        key = ("frame", tuple((name, id(data[name]))
                              for name in (data if columns is None
                                           else columns)),
               id(getattr(value, "_index", None)))
        return ctx.memoized(value, _data_token, key)
    if (isinstance(value, np.ndarray)
            or isinstance(getattr(value, "values", None), np.ndarray)):
        return ctx.memoized(value, _data_token)
    if isinstance(value, functools.partial):
        func = canonical_param(value.func, ctx)
        args = canonical_param(tuple(value.args), ctx)
        kw = canonical_param(dict(value.keywords or {}), ctx)
        if OPAQUE in (func, args, kw):
            return OPAQUE
        return ("partial", func, args, kw)
    if isinstance(value, types.MethodType):
        func = canonical_param(value.__func__, ctx)
        owner = canonical_param(value.__self__, ctx)
        if func is OPAQUE or owner is OPAQUE:
            return OPAQUE
        return ("method", func, owner)
    if callable(value):
        return ctx.memoized(value, _callable_token)
    rendered = repr(value)
    if _ADDR_RE.search(rendered):
        return OPAQUE
    return ("repr", type(value).__name__, rendered)


def _data_token(value: Any, _ctx: IdentityContext) -> Any:
    fp = value_fingerprint(value)
    return ("data", fp) if fp is not None else OPAQUE


def _file_token(path: Any, _ctx: IdentityContext) -> Any:
    """Which file a path names now: rewriting it changes the token."""
    try:
        real = os.path.realpath(path)
        stat = os.stat(real)
    except OSError:
        return OPAQUE
    return ("file", real, stat.st_size, stat.st_mtime_ns)


def _code_digest(code: types.CodeType, ctx: IdentityContext) -> Any:
    consts = []
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            canon = ctx.memoized(const, _code_digest)
        else:
            canon = canonical_param(const, ctx)
        if canon is OPAQUE:
            return OPAQUE
        consts.append(canon)
    # a digest, not the token: every chunk operator that holds the
    # function would otherwise repeat its bytecode in its own token.
    return ("code", _digest_of(code.co_name, code.co_code, tuple(consts),
                               code.co_names,
                               code.co_varnames[:code.co_argcount]))


def _callable_token(func: Callable, ctx: IdentityContext) -> Any:
    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", getattr(func, "__name__", None))
    code = getattr(func, "__code__", None)
    if code is None:
        # builtins / NumPy ufuncs: module+name is the whole identity.
        if module is None or qualname is None:
            return OPAQUE
        return ("builtin", module, qualname)
    code_tok = ctx.memoized(code, _code_digest)
    if code_tok is OPAQUE:
        return OPAQUE
    cells = []
    for cell in func.__closure__ or ():
        try:
            contents = cell.cell_contents
        except ValueError:  # empty cell
            cells.append(("cell", "empty"))
            continue
        canon = canonical_param(contents, ctx)
        if canon is OPAQUE:
            return OPAQUE
        cells.append(canon)
    defaults = canonical_param(tuple(func.__defaults__ or ()), ctx)
    if defaults is OPAQUE:
        return OPAQUE
    return ("fn", _digest_of(module, qualname, code_tok, tuple(cells),
                             defaults))


# ---------------------------------------------------------------------------
# tileable identities: the result cache's keys
# ---------------------------------------------------------------------------

#: operator attributes that are graph plumbing, not parameters. A
#: shuffle's id is a runtime key that names where its partitions
#: register: it differs between sessions running the same program and
#: never shapes a value.
_SKIP_ATTRS = frozenset({"params", "inputs", "outputs", "stage",
                         "shuffle_id"})


def _op_digest(op: Any, ctx: IdentityContext) -> Any:
    """Digest of one operator: class, stage, params, data attributes.

    Data-bearing instance attributes outside ``params`` (e.g. the source
    frame a ``FromFrameSlice`` holds) are captured by walking what
    ``op.identity_attrs()`` returns (its instance attributes, unless the
    operator narrows them) — that is where source-content fingerprints
    enter the identity. An operator that reads files names the
    parameters holding their paths in ``file_params``; each such file's
    stat joins the digest, so rewriting the file changes the identity.
    Every sub-token is itself a short digest, so this hashes a few
    hundred bytes however large the data or deep the callables.

    Memoized per execute on what the digest reads: operators of one
    class and stage whose attributes and params are the very same
    objects — one expression built twice over the same handles, say —
    are digested once.
    """
    attrs = op.identity_attrs()
    names = tuple(sorted(name for name in attrs
                         if name not in _SKIP_ATTRS and name[0] != "_"))
    values = tuple(map(attrs.__getitem__, names))
    params = op.params
    key = (type(op), op.stage, names, tuple(map(id, values)),
           tuple(params), tuple(map(id, params.values())))
    return ctx.memoized(
        (type(op), op.stage, names, values, tuple(params.items())),
        _spec_digest, key)


def _spec_digest(spec: tuple, ctx: IdentityContext) -> Any:
    cls, stage, names, values, params = spec
    parts: list[Any] = [cls.__module__, cls.__qualname__, stage]
    for name, canon in zip(names, values):
        if type(canon) not in _SELF_CANONICAL:
            canon = canonical_param(canon, ctx)
            if canon is OPAQUE:
                return OPAQUE
        parts.append((name, canon))
    params = dict(params)
    canon_params = canonical_param(params, ctx)
    if canon_params is OPAQUE:
        return OPAQUE
    parts.append(canon_params)
    for name in cls.file_params:
        stat = ctx.memoized(params[name], _file_token)
        if stat is OPAQUE:
            return OPAQUE
        parts.append(stat)
    return _digest_of(*parts)


def _output_position(op: Any, node: Any) -> int:
    for position, out in enumerate(op.outputs):
        if out is node:
            return position
    return 0


def _query_identity(tileable: Any, ctx: IdentityContext,
                    salt: str) -> Optional[str]:
    """An untiled tileable's key: its operator, the columns pruning said
    its chunks carry, its inputs' keys, and the configuration that will
    chunk it."""
    op = tileable.op
    if op is None:
        return None
    deps = [dep.ident for dep in op.inputs]
    if None in deps:
        return None
    digest = _op_digest(op, ctx)
    if digest is OPAQUE:
        return None
    carried = canonical_param(tileable.carried_columns, ctx)
    if carried is OPAQUE:
        return None
    return _digest_of(salt, digest, _output_position(op, tileable), carried,
                      tuple(deps))


def _config_digest(config: Any, _ctx: IdentityContext) -> str:
    # a dataclass: its repr names every field. Where kernels run changes
    # wall-clock only (serial == process, bit for bit), so it is left out.
    return tokenize(dataclasses.replace(config, execution_mode="serial",
                                        parallel_execution=True))


def compute_chunk_identities(
    nodes_in_order: Iterable[Any],
    context: IdentityContext | None = None,
    stored: Container[str] = frozenset(),
    config: Any = None,
) -> None:
    """Stamp the result-cache key (``ident``) of every tileable of a
    plan, in one topological pass (producers before consumers); ``None``
    = uncacheable, and it poisons every node downstream.

    An untiled tileable hashes what it computes (:func:`_query_identity`),
    salted with the digest of ``config`` — the session configuration
    decides the chunking, and with it float rounding. A tiled one keeps
    the key it was stamped with when it was planned, but only while every
    one of its chunks is in ``stored``: a chunk computed again would
    re-read a source that may have changed since, so the key goes for
    good. ``context`` carries the run's memo (default: a fresh one).
    """
    ctx = context if context is not None else IdentityContext()
    salt = None if config is None else ctx.memoized(config, _config_digest)
    for node in nodes_in_order:
        if not node.is_tiled:
            node.ident = _query_identity(node, ctx, salt)
        elif not all(chunk.key in stored for chunk in node.chunks):
            node.ident = None
