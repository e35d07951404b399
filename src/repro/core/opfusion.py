"""Operator-level fusion (Section V-A).

After graph-level fusion decides *which* chunk ops run together in one
subtask, operator-level fusion decides how the subtask evaluates them:
maximal chains of elementwise operators are collapsed into single fused
steps, the way numexpr/JAX compile ``a * b + c`` into one kernel.

In the execution model a fused step

- pays one dispatch overhead instead of one per operator, and
- charges compute for the chain's *external* inputs and final outputs
  only — intermediates never hit memory, which is precisely the saving
  the paper attributes to numexpr-style fusion.
"""

from __future__ import annotations

from ..engine.local import materialized
from ..graph.entity import ChunkData
from ..graph.subtask import Subtask


def plan_subtask(subtask: Subtask, enable: bool) -> list[list[ChunkData]]:
    """Split a subtask's chunks into execution steps.

    With fusion disabled every chunk op is its own step. Enabled, a run of
    consecutive elementwise ops where each feeds only the next (within the
    subtask) merges into one step.
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


class CompiledStep:
    """A fused step compiled into one generated evaluator.

    ``run(env)`` makes a single pass: external inputs are read from the
    subtask environment once, every intermediate lives only as a local
    variable of the generated function, and exactly one value — the
    step's final output — comes back. That is the numexpr-style saving
    of Section V-A made literal: fused intermediates never exist as
    chunk values at all.
    """

    __slots__ = ("fn", "funcs", "input_keys", "output_key", "final_op")

    def __init__(self, fn, funcs, input_keys, output_key, final_op):
        self.fn = fn
        self.funcs = funcs
        self.input_keys = input_keys
        self.output_key = output_key
        self.final_op = final_op

    def run(self, env: dict) -> object:
        return self.fn(*[env[key] for key in self.input_keys], *self.funcs)


#: generated source -> compiled function. Steps with the same structural
#: shape (op templates and argument wiring) share one code object; the
#: per-step closures (op callables, input keys) stay outside the cache.
_CODE_CACHE: dict[str, object] = {}


def compile_step(step: list[ChunkData]) -> CompiledStep | None:
    """Compile a fused step into a :class:`CompiledStep`, or decline.

    Eligible steps have at least two chained single-output ops, each
    providing the ``fuse_expr`` protocol (see
    :attr:`~repro.core.operator.Operator.fuse_expr`), converging on one
    final output. Anything else returns ``None`` and the caller
    interprets the step op-by-op. The decision depends only on the
    step's structure, so the serial walk, band-runner threads and pool
    worker processes all compile (or decline) identically.
    """
    if len(step) < 2:
        return None
    produced: dict[str, int] = {}
    for position, chunk in enumerate(step):
        op = chunk.op
        if op is None or op.fuse_expr is None:
            return None
        if len(op.outputs) != 1 or op.outputs[0].key != chunk.key:
            return None
        if chunk.key in produced:
            return None
        produced[chunk.key] = position
    _, outputs = step_io_keys(step)
    if outputs != {step[-1].key}:
        return None

    input_keys: list[str] = []
    var_of: dict[str, str] = {}
    funcs: list = []
    lines: list[str] = []
    for position, chunk in enumerate(step):
        op = chunk.op
        args = []
        for dep in op.inputs:
            var = var_of.get(dep.key)
            if var is None:
                var = f"x{len(input_keys)}"
                var_of[dep.key] = var
                input_keys.append(dep.key)
            elif (dep.key in produced and not op.reads_selection
                  and step[produced[dep.key]].op.reads_selection):
                # a selection made inside the step reaches an op that
                # takes frames only as its frame (the kernel loop sees
                # to the step's inputs)
                if materialized not in funcs:
                    funcs.append(materialized)
                var = f"f{funcs.index(materialized)}({var})"
            args.append(var)
        if op.fuse_expr == "call":
            func = getattr(op, "func", None)
            if not callable(func):
                return None
            expr = f"f{len(funcs)}({', '.join(args)})"
            funcs.append(func)
        else:
            try:
                expr = op.fuse_expr.format(*args)
            except (IndexError, KeyError):
                return None
        target = f"t{position}"
        var_of[chunk.key] = target
        lines.append(f"    {target} = {expr}")
    params = [var_of[key] for key in input_keys]
    params += [f"f{i}" for i in range(len(funcs))]
    source = "def _fused({}):\n{}\n    return t{}\n".format(
        ", ".join(params), "\n".join(lines), len(step) - 1
    )
    fn = _CODE_CACHE.get(source)
    if fn is None:
        namespace: dict[str, object] = {}
        exec(compile(source, "<opfusion>", "exec"), namespace)  # noqa: S102
        fn = _CODE_CACHE[source] = namespace["_fused"]
    return CompiledStep(fn, funcs, input_keys, step[-1].key, step[-1].op)


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
