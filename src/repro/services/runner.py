"""Per-band subtask runners: the compute phase as a worker-side service.

:func:`run_subtask_kernels` is the engine's one kernel loop — the only
place an operator's ``execute`` is ever called, one op at a time, fused
steps included. It turns a subtask plus its input values into a
:class:`~repro.core.dispatch.SubtaskComputation` record and touches no
shared service state, so the executor's accounting walk — which only
*replays* such records — stays the single writer of every simulated
number. The loop is reached three ways:

- in process execution mode, a stage wide enough to win by overlapping
  bands (≥ 8 subtasks on ≥ 2 bands, see ``dispatch.should_use_parallel``):
  the band dispatcher calls each band's :meth:`SubtaskRunner.compute`
  from pool threads as dependencies resolve, and the call hops to a pool
  worker process (``repro.core.procpool``), which runs this same
  function out-of-GIL;
- any other stage: the accounting walk calls
  :meth:`SubtaskRunner.precompute` for each subtask just before
  accounting it, so kernel execution still goes through the runner
  interface (and shows up in the message trace);
- retries and lineage recovery: the walk has no usable record (the
  compute phase raced a fault, or the record predates the failure) and
  calls :func:`run_subtask_kernels` itself on the inputs it just
  acquired.
"""

from __future__ import annotations

from typing import Any

from ..core.dispatch import SubtaskComputation
from ..core.operator import ExecContext
from ..core.opfusion import plan_subtask
from ..engine.base import engine_of, is_multi_output, persist_result
from ..engine.local import materialized


def run_subtask_kernels(subtask, inputs: dict[str, Any],
                        config) -> SubtaskComputation:
    """Run one subtask's kernels against ``inputs`` (pure compute).

    No storage/meta/clock/memory effects — those happen later, in the
    accounting phase on the dispatching thread.  Every op takes the same
    path: its inputs materialized where it needs frames, its
    ``execute``, its result persisted.  A fused step (two or more ops,
    see ``core.opfusion.plan_subtask``) runs its ops in turn but records
    and persists only its final op's result; its intermediates leave
    ``env`` when the step ends.

    A filter's result is a ``Selection`` (its rows, not yet gathered),
    which only ops that declare ``reads_selection`` take.  This loop
    materializes one — one gather per column, once — as soon as it is
    made when it is a subtask output, else before the first op that
    does not read selections takes it; so no output is a selection, and
    an intermediate no one materialized reports its frame's ``nbytes``
    to the accounting replay (and pickles as its frame).
    """
    engine = engine_of(config)
    env: dict[str, Any] = dict(inputs)
    output_keys = set(subtask.output_keys)
    executed_ops: set[int] = set()
    op_results: dict[int, Any] = {}
    op_extra: dict[int, dict[str, dict]] = {}
    for step in plan_subtask(subtask, enable=config.operator_fusion):
        for chunk in step:
            op = chunk.op
            if id(op) in executed_ops:
                continue
            executed_ops.add(id(op))
            _materialize_inputs(op, env)
            ctx = ExecContext(env, config)
            result = op.execute(ctx)
            if chunk is not step[-1]:  # a fused step's intermediate
                env[chunk.key] = result
                continue
            result = persist_result(engine, op, result)
            if is_multi_output(op, result):
                env.update(result)
            else:
                key = op.outputs[0].key
                if key in output_keys:
                    result = materialized(result)
                env[key] = result
            op_results[id(op)] = result
            op_extra[id(op)] = {
                key: dict(extra) for key, extra in ctx.extra_meta.items()
            }
        for chunk in step[:-1]:
            del env[chunk.key]
    outputs = {
        key: env[key] for key in subtask.output_keys if key in env
    }
    return SubtaskComputation(op_results, op_extra, outputs)


def _materialize_inputs(op, env: dict[str, Any]) -> None:
    """Give an op that does not read selections its inputs as frames,
    materializing each selection once, in place in ``env``."""
    if not op.reads_selection:
        for dep in op.inputs:
            if dep.key in env:
                env[dep.key] = materialized(env[dep.key])


class SubtaskRunner:
    """Kernel execution for one band."""

    def __init__(self, band: str, storage, config, procpool=None):
        self.band = band
        self._storage = storage
        self._config = config
        #: the :class:`~repro.core.procpool.ProcPoolClient` shared by
        #: every runner of the cluster (process execution mode only).
        self._procpool = procpool

    def compute(self, subtask, inputs: dict[str, Any]) -> SubtaskComputation:
        """Run the subtask's kernels against ``inputs`` in a pool
        worker process (the dispatcher's path; process mode only).

        Called on a band-runner pool thread. A dead worker surfaces as
        :class:`~repro.errors.WorkerProcessCrash`, which the accounting
        walk treats like any other retryable compute fault.
        """
        return self._procpool.run_subtask(subtask, inputs, self._config)

    def precompute(self, subtask) -> SubtaskComputation:
        """Inline compute phase: gather inputs and run the kernels here.

        Inputs come from one batched accounting-free read; the charged
        ``get`` for the same keys happens in the accounting phase.
        Nothing is swallowed: a missing input raises the retryable
        :class:`~repro.errors.StorageKeyError` the accounting walk
        recovers from, and a kernel error surfaces once, with its
        original type.  These stages stay in-process even in process
        mode: they have nothing to overlap, so IPC would be pure cost.
        """
        inputs = self._storage.peek_values(list(subtask.input_keys))
        return run_subtask_kernels(subtask, inputs, self._config)
