"""Operator-level fusion (Section V-A).

After graph-level fusion decides *which* chunk ops run together in one
subtask, operator-level fusion decides how the subtask evaluates them:
maximal chains of elementwise operators are collapsed into single fused
steps, the way numexpr/JAX compile ``a * b + c`` into one kernel.

A step of two or more ops is fused. The kernel loop
(``services.runner``) calls its ops in turn and keeps only the final
op's result; the chain's intermediates leave the subtask's values when
the step ends. In the execution model a fused step

- pays one dispatch overhead instead of one per operator, and
- charges compute for the chain's *external* inputs and final outputs
  only — intermediates never hit memory, which is precisely the saving
  the paper attributes to numexpr-style fusion.
"""

from __future__ import annotations

from ..graph.entity import ChunkData
from ..graph.subtask import Subtask


def plan_subtask(subtask: Subtask, enable: bool) -> list[list[ChunkData]]:
    """Split a subtask's chunks into execution steps.

    With fusion disabled every chunk op is its own step. Enabled, a run of
    consecutive elementwise ops where each feeds only the next (within the
    subtask) merges into one step; a step of two or more ops is fused.
    """
    chunks = [c for c in subtask.chunks if c.op is not None]
    if not enable:
        return [[c] for c in chunks]

    internal_keys = {c.key for c in chunks}
    consumers: dict[str, list[ChunkData]] = {}
    for chunk in chunks:
        for dep in chunk.inputs:
            if dep.key in internal_keys:
                consumers.setdefault(dep.key, []).append(chunk)

    steps: list[list[ChunkData]] = []
    fused_into: dict[str, int] = {}
    for chunk in chunks:  # already in topological order within the subtask
        if not chunk.op.is_elementwise:
            steps.append([chunk])
            fused_into[chunk.key] = len(steps) - 1
            continue
        # try to append to the step of a sole elementwise producer
        producer_steps = {
            fused_into[dep.key]
            for dep in chunk.inputs
            if dep.key in internal_keys and dep.op is not None
            and dep.op.is_elementwise
            and len(consumers.get(dep.key, [])) == 1
            and dep.key not in subtask.output_keys
        }
        if len(producer_steps) == 1:
            step_idx = producer_steps.pop()
            steps[step_idx].append(chunk)
            fused_into[chunk.key] = step_idx
        else:
            steps.append([chunk])
            fused_into[chunk.key] = len(steps) - 1
    return steps


def step_io_keys(step: list[ChunkData]) -> tuple[set[str], set[str]]:
    """External input keys and final output keys of one fused step.

    Intermediates (produced and consumed inside the step) appear in
    neither set — they are the bytes fusion saves.
    """
    produced = {c.key for c in step}
    inputs: set[str] = set()
    for chunk in step:
        for dep in chunk.inputs:
            if dep.key not in produced:
                inputs.add(dep.key)
    consumed_inside: set[str] = set()
    for chunk in step:
        for dep in chunk.inputs:
            if dep.key in produced:
                consumed_inside.add(dep.key)
    outputs = produced - consumed_inside
    return inputs, outputs
