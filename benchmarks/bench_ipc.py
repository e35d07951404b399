"""Serialization microbenchmark: inline pickle vs shared-memory exchange.

Times the process-pool wire protocol (``core/procpool.py``) on ndarray
payloads across chunk sizes, through a *real* spawned worker process —
the measured trip is encode, cross the process boundary, decode in the
child, re-encode the echo, decode in the parent.  Two paths:

- **inline** — protocol-5 out-of-band buffers copied into the pickle
  message, which then rides the executor's pipe both ways;
- **shm** — buffers packed into one ``multiprocessing.shared_memory``
  segment; only the segment name crosses the pipe and both sides
  reconstruct arrays zero-copy over the mapping.

The crossover justifies ``procpool.INLINE_THRESHOLD``: below it
the pipe copy is cheaper than a segment's syscalls, above it shm wins.

Writes ``BENCH_ipc.json`` (repo root).  Run
standalone::

    PYTHONPATH=src python benchmarks/bench_ipc.py
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from harness import format_table, save_bench_json  # noqa: E402

from repro.core.procpool import (  # noqa: E402
    _worker_initialize,
    decode_payload,
    encode_payload,
)

KiB = 1024
SIZES = [4 * KiB, 64 * KiB, 1024 * KiB, 16 * 1024 * KiB]
#: enough repetitions for stable numbers without minutes of runtime.
ROUNDS = {4 * KiB: 200, 64 * KiB: 100, 1024 * KiB: 30, 16 * 1024 * KiB: 6}

FORCE_INLINE = 1 << 62  # threshold no payload reaches
FORCE_SHM = 0           # threshold every payload reaches


def _echo(payload, threshold):
    """Child side: decode the request, re-encode it as the reply."""
    obj, in_shm = decode_payload(payload, child=True)
    out_payload, out_shm = encode_payload(obj, threshold, child=True)
    del obj  # drop the zero-copy views before unmapping their segment
    for shm in (in_shm, out_shm):
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # a straggler view; the OS unmaps at exit
                pass
    return out_payload


def _round_trip(executor, arr: np.ndarray, threshold: int) -> None:
    payload, shm = encode_payload({"chunk": arr}, threshold)
    reply = executor.submit(_echo, payload, threshold).result()
    if shm is not None:
        shm.unlink()
        shm.close()
    out, out_shm = decode_payload(reply, unlink=True)
    assert out["chunk"].nbytes == arr.nbytes
    del out
    if out_shm is not None:
        out_shm.close()


def run_ipc() -> list[dict]:
    executor = ProcessPoolExecutor(
        max_workers=1, mp_context=get_context("spawn"),
        initializer=_worker_initialize, initargs=(list(sys.path),),
    )
    rows: list[dict] = []
    try:
        for size in SIZES:
            raw = np.random.default_rng(size).bytes(size)
            arr = np.frombuffer(raw, dtype=np.uint8)
            rounds = ROUNDS[size]
            for path, threshold in (("inline", FORCE_INLINE),
                                    ("shm", FORCE_SHM)):
                _round_trip(executor, arr, threshold)  # warm the path
                start = time.perf_counter()
                for _ in range(rounds):
                    _round_trip(executor, arr, threshold)
                seconds = time.perf_counter() - start
                per_trip = seconds / rounds
                rows.append({
                    "size_bytes": size,
                    "path": path,
                    "rounds": rounds,
                    "seconds_per_round_trip": round(per_trip, 6),
                    "mib_per_second": round(
                        size / per_trip / (1024 * 1024), 1),
                })
    finally:
        executor.shutdown(wait=True)
    return rows


def save_and_render(rows: list[dict]) -> str:
    payload = {
        "benchmark": "ipc_inline_vs_shared_memory",
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }
    save_bench_json("BENCH_ipc.json", payload)

    by_size: dict[int, dict[str, dict]] = {}
    for row in rows:
        by_size.setdefault(row["size_bytes"], {})[row["path"]] = row
    table_rows = []
    for size, paths in sorted(by_size.items()):
        inline, shm = paths["inline"], paths["shm"]
        ratio = (inline["seconds_per_round_trip"]
                 / shm["seconds_per_round_trip"])
        table_rows.append([
            f"{size // KiB} KiB",
            f"{inline['seconds_per_round_trip'] * 1e6:.0f} us",
            f"{shm['seconds_per_round_trip'] * 1e6:.0f} us",
            f"{ratio:.2f}x",
        ])
    return format_table(
        "IPC echo round trip through a spawned worker",
        ["chunk size", "inline", "shm", "shm advantage"], table_rows,
        note=">1x means shm is faster. The crossover motivates "
             "procpool.INLINE_THRESHOLD.",
    )


def main() -> int:
    print(save_and_render(run_ipc()))
    return 0


def test_ipc_protocol_round_trips():
    """Pytest entry: both paths round-trip every size; numbers saved."""
    rows = run_ipc()
    save_and_render(rows)
    assert len(rows) == 2 * len(SIZES)


if __name__ == "__main__":
    raise SystemExit(main())
