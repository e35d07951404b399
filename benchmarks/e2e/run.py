"""The repo's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                       # all workloads
    python3 benchmarks/e2e/run.py --workload tpch_join --seed 3
    python3 benchmarks/e2e/run.py --workload tpch_join --trace
    python3 benchmarks/e2e/run.py --selfcheck

Each workload is measured in a child process of its own (so peak RSS
and the process-wide band-runner pool are per workload, and a hang or a
leak is seen from outside).  The child does the work (``measure.py``);
this process times it out, looks for what it left behind — processes,
``/dev/shm`` segments — prints the table, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
(default) the metrics are BENCHMARK.json's ``end_to_end`` list, with
``--trace 1`` its ``per_layer`` list.

BENCHMARK.json names the four workloads every change is gated on;
``UNGATED_WORKLOADS`` run the same way when asked for by name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SHM_DIR = "/dev/shm"

#: a child that has not answered by then is killed and counted failed
#: (the driver allows a run 180 s in all).
CHILD_TIMEOUT_S = 170
#: how long a finished child's helpers (multiprocessing's resource
#: tracker) get to exit before they count as leaked processes.
REAP_GRACE_S = 3.0
#: runs per workload in each of ``--selfcheck``'s two sets.
SELFCHECK_RUNS = 3
#: in ``workloads.WORKLOADS`` but not in BENCHMARK.json: the driver's
#: runs share 3420 s, which is four workloads of 24 s, not seven of 8 s
#: (README, "Where this differs").  ``--workload NAME`` still runs them.
UNGATED_WORKLOADS = ("groupby_shuffle", "tensor_blas", "process_wire")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

def child_main(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import measure

    run = measure.measure_layers if args.trace else measure.measure_end_to_end
    result = run(args.workload, args.seed, args.seconds, args.scale, args.reps)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def _shm_segments() -> set[str]:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def _group_members(pgid: int) -> list[int]:
    """Live, non-zombie pids whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _reap_group(pgid: int) -> int:
    """Wait briefly for the child's process group to empty, kill what is
    left, and return how many processes had to be killed."""
    deadline = time.monotonic() + REAP_GRACE_S
    while (members := _group_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    if members:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return len(members)


def run_workload(name: str, args, seed: int | None = None) -> dict:
    """Measure one workload in a fresh process; always returns a result
    dict (``metrics`` empty when the child produced none)."""
    seed = args.seed if seed is None else seed
    shm_before = _shm_segments()
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", name, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    if args.reps:
        cmd += ["--reps", str(args.reps)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    problems = []
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        problems.append(f"no answer within {CHILD_TIMEOUT_S} s; killed")
    survivors = _reap_group(proc.pid)
    leaked_shm = len(_shm_segments() - shm_before)

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        problems.append(f"child exited {proc.returncode} without a result")
        result = {"workload": name, "seed": seed, "attempted": 1,
                  "failed": 0, "failures": [], "metrics": {}, "info": {}}
        sys.stderr.write(err[-4000:])
    if survivors:
        problems.append(f"{survivors} process(es) outlived the run")
    if leaked_shm:
        problems.append(f"{leaked_shm} /dev/shm segment(s) leaked")
    if args.trace and result["metrics"]:
        result["metrics"]["procpool.shm_leaked"] = leaked_shm
    result["failures"] += problems
    result["failed"] = min(result["failed"] + len(problems),
                           result["attempted"])
    # process mode's shutdown noise, kept as an observation
    result["info"]["stderr_buffer_errors"] = err.count("BufferError")
    return result


def declared(spec: dict, trace: int) -> list[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def contract_result(result: dict, spec: dict, trace: int) -> dict:
    """The driver's JSON object: exactly the declared metrics, in order."""
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared(spec, trace)
    }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_table(result: dict, spec: dict, trace: int) -> None:
    info = result["info"]
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"ops_attempted={result['attempted']}  "
          f"ops_failed={result['failed']}  "
          f"failed_frac={result['failed'] / result['attempted']:.3f}")
    for m in declared(spec, trace):
        value = result["metrics"].get(m["name"], float("nan"))
        print(f"  {m['name']:<32} {value:>16.6g} {m['unit']}")
    if "wall_q1_s" in info:
        print(f"  wall_s over {info['reps']} reps: "
              f"q1 {info['wall_q1_s']:.4f}  q3 {info['wall_q3_s']:.4f}  "
              f"min {info['wall_min_s']:.4f}  max {info['wall_max_s']:.4f}  "
              f"(input {info['input_rows']} rows)")
        print(f"  times are at the reference speed; as measured: "
              f"wall {info['raw_wall_s']:.4f} s, set-up "
              f"{info['raw_setup_s']:.4f} s, machine at "
              f"{info['speed_factor']:.3f}x the reference calibration")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS NumPy loaded, if it can be asked."""
    import ctypes

    import numpy as np

    np.ones((2, 2)) @ np.ones((2, 2))
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": _blas_threads(),
            "machine": platform.machine()}


def selfcheck(args, spec: dict) -> int:
    """Two back-to-back sets of untraced runs of the same code must agree
    within every metric's own bound.  A set is ``SELFCHECK_RUNS`` runs
    per workload on consecutive seeds; its number is their median."""
    sets = [[run_workload(workload["name"], args, seed=args.seed + offset)
             for workload in spec["workloads"]
             for offset in range(SELFCHECK_RUNS)]
            for _ in range(2)]

    def median_of(runs, workload, metric):
        values = [r["metrics"][metric] for r in runs
                  if r["workload"] == workload and metric in r["metrics"]]
        return statistics.median(values) if values else float("nan")

    outside = sum(r["failed"] for runs in sets for r in runs)
    print(f"{'workload':<16} {'metric':<14} {'first':>12} {'second':>12} "
          f"{'gap':>8} {'bound':>6}")
    for workload in spec["workloads"]:
        for m in spec["end_to_end"]:
            a, b = (median_of(runs, workload["name"], m["name"])
                    for runs in sets)
            gap = abs(b - a) / a
            within = gap <= m["bound"]  # False for nan
            outside += not within
            print(f"{workload['name']:<16} {m['name']:<14} {a:>12.5g} "
                  f"{b:>12.5g} {gap:>8.2%} {m['bound']:>6.0%}"
                  f"{'' if within else '  EXCEEDED'}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "selfcheck.json")
    with open(path, "w") as f:
        json.dump({"environment": environment(), "first_seed": args.seed,
                   "runs_per_set": SELFCHECK_RUNS, "seconds": args.seconds,
                   "sets": sets}, f, indent=1)
    print(f"{outside} failure(s) or gap(s) outside bounds; "
          f"sets written to {path}")
    return 1 if outside else 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*names, *UNGATED_WORKLOADS],
                        help="one workload (default: every gated one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long each run measures")
    parser.add_argument("--reps", type=int, default=0,
                        help="measure exactly N iterations instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="traced run: per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (smoke test)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets of untraced runs must agree")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    if args.selfcheck:
        args.trace = 0
        return selfcheck(args, spec)

    results = [run_workload(name, args)
               for name in ([args.workload] if args.workload else names)]
    for result in results:
        print_table(result, spec, args.trace)
    if not all(r["metrics"] for r in results):
        return 1  # nothing to report: no result line
    if args.workload:
        print(json.dumps(contract_result(results[0], spec, args.trace)))
    else:
        print(json.dumps({
            "correct": all(r["failed"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                r["workload"]: contract_result(r, spec, args.trace)["metrics"]
                for r in results},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
