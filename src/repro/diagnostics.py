"""Introspection tools: computation-graph export and execution reports.

Distributed engines live or die by their observability — these helpers
render the three plan levels and the simulated execution so users (and
the test suite) can see what the optimizer actually did.
"""

from __future__ import annotations

from io import StringIO
from typing import Optional

from .core.session import Session
from .graph.dag import DAG
from .graph.entity import ChunkData, TileableData
from .utils import human_bytes


def _node_label(node) -> str:
    op_name = type(node.op).__name__ if node.op is not None else "Data"
    if node.op is not None and node.op.stage is not None:
        op_name += f"::{node.op.stage}"
    shape = "x".join("?" if s is None else str(s) for s in node.shape)
    return f"{op_name}\\n{shape}"


def graph_to_dot(graph: DAG, name: str = "plan") -> str:
    """Render a tileable or chunk graph as Graphviz dot source."""
    out = StringIO()
    out.write(f"digraph {name} {{\n")
    out.write("  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
    ids = {node.key: f"n{i}" for i, node in enumerate(graph.nodes())}
    for node in graph.nodes():
        shape_attr = "ellipse" if node.op is not None else "box"
        out.write(
            f'  {ids[node.key]} [label="{_node_label(node)}", '
            f'shape={shape_attr}];\n'
        )
    for node in graph.nodes():
        for succ in graph.successors(node):
            out.write(f"  {ids[node.key]} -> {ids[succ.key]};\n")
    out.write("}\n")
    return out.getvalue()


def describe_tileable(tileable: TileableData) -> str:
    """One-paragraph summary of a tileable's tiling state."""
    lines = [
        f"tileable {tileable.key}",
        f"  kind:    {tileable.kind}",
        f"  shape:   {tileable.shape}",
        f"  op:      {type(tileable.op).__name__ if tileable.op else 'Data'}",
    ]
    if tileable.is_tiled:
        lines.append(f"  chunks:  {len(tileable.chunks)}")
        lines.append(f"  nsplits: {tileable.nsplits}")
    else:
        lines.append("  chunks:  (not tiled yet)")
    return "\n".join(lines)


def lineage(tileable: TileableData, max_depth: int = 20) -> str:
    """The operator chain leading to a tileable, innermost first."""
    steps = []
    node: Optional[TileableData] = tileable
    depth = 0
    while node is not None and depth < max_depth:
        op_name = type(node.op).__name__ if node.op is not None else "Data"
        shape = "x".join("?" if s is None else str(s) for s in node.shape)
        steps.append(f"{op_name}[{shape}]")
        node = node.inputs[0] if node.op is not None and node.inputs else None
        depth += 1
    return " <- ".join(steps)


def band_timeline(session: Session, width: int = 60) -> str:
    """ASCII utilization bars per band for the session's virtual clock."""
    clock = session.cluster.clock
    makespan = clock.makespan
    lines = [f"virtual makespan: {makespan:.4f}s"]
    if makespan <= 0:
        return lines[0]
    for band, busy in sorted(clock.band_busy.items()):
        fraction = min(busy / makespan, 1.0)
        filled = int(round(fraction * width))
        bar = "#" * filled + "." * (width - filled)
        lines.append(f"{band:20s} |{bar}| {fraction * 100:5.1f}% busy")
    return "\n".join(lines)


def memory_report(session: Session) -> str:
    """Per-worker memory state: used, peak, limit, spilled."""
    lines = ["worker memory (used / peak / limit):"]
    for name, tracker in sorted(session.cluster.memory.items()):
        lines.append(
            f"  {name:12s} {human_bytes(tracker.used):>10s} / "
            f"{human_bytes(tracker.peak):>10s} / "
            f"{human_bytes(tracker.limit):>10s}"
        )
    lines.append(
        f"total spilled: {human_bytes(session.storage.spilled_bytes())}"
    )
    lines.append(
        f"total transferred: "
        f"{human_bytes(session.storage.transferred_bytes())}"
    )
    return "\n".join(lines)


def recovery_report(session: Session) -> str:
    """Fault-recovery state: injected events, retries, recomputation."""
    injector = session.faults
    report = session.executor.report
    lines = [
        "fault recovery:",
        f"  injected events:     {len(injector.events)}",
        f"  retries:             {report.retries}",
        f"  recomputed subtasks: {report.recomputed_subtasks}",
        f"  recovery bytes:      {human_bytes(report.recovery_bytes)}",
        f"  backoff time:        {report.backoff_time:.4f}s",
    ]
    for event in injector.events[-10:]:
        lines.append(
            f"    [{event.point}] {event.target} "
            f"(stage {event.stage}, priority {event.priority})"
        )
    return "\n".join(lines)


def pressure_report(session: Session) -> str:
    """Memory-pressure state: backpressure, OOM retries, re-tiling."""
    report = session.executor.report
    pressure = session.executor.pressure
    lines = [
        "memory pressure:",
        f"  admission wait:      {report.admission_wait_time:.4f}s",
        f"  forced admissions:   {pressure.admission.forced_admissions}",
        f"  oom retries:         {report.oom_retries}",
        f"  re-tiling passes:    {report.pressure_splits}",
    ]
    return "\n".join(lines)


def cache_report(session: Session) -> str:
    """Result-cache state: hits, misses, invalidations, bytes reused.

    Reads the :class:`~repro.services.cache.ResultCacheService`
    counters through the session's cache actor ref — a hit is a key of a
    plan found with a live entry, a live entry is one stored result —
    plus the session's own view (stored chunks its plans were bound to),
    with the directory's counters broken down per live tenant.
    """
    stats = session.cache.stats_snapshot()
    report = session.executor.report
    lines = [
        "result cache:",
        f"  enabled:             {bool(session.config.result_cache)}",
        f"  hits / misses:       {stats['hits']} / {stats['misses']}",
        f"  invalidations:       {stats['invalidations']}",
        f"  evictions:           {stats['evictions']}",
        f"  bytes reused:        {human_bytes(stats['bytes_reused'])}",
        f"  live entries:        {stats['entries']} "
        f"({human_bytes(stats['bytes_cached'])})",
        f"  chunks bound:        {report.cache_hit_chunks}",
    ]
    for name, sess in sorted(stats["per_session"].items()):
        lines.append(
            f"    {name:20s} hits={sess['hits']} misses={sess['misses']} "
            f"reused={human_bytes(sess['bytes_reused'])}"
        )
    return "\n".join(lines)


def supervision_report(session: Session) -> str:
    """Actor-plane supervision: supervised actors, restarts and kills.

    Reads the cluster's :class:`~repro.core.supervision.SupervisionPlane`
    (restart/kill counters by kind and by uid).  All zeros on a healthy
    run.
    """
    lines = ["actor supervision:"]
    plane = getattr(session.cluster, "supervision", None)
    if plane is None:
        lines.append("  (no supervision plane deployed)")
    else:
        snap = plane.snapshot()
        sup = snap["supervisor"]
        lines.extend([
            f"  supervised actors:   {sup['supervised']}",
            f"  restarts / kills:    {sup['total_restarts']} / "
            f"{sup['total_kills']}",
            f"  service restarts:    {snap['service_restarts']}",
            f"  runner restarts:     {snap['runner_restarts']}",
        ])
        for uid, count in sorted(sup["restarts_by_uid"].items()):
            lines.append(f"    {uid:24s} restarted x{count}")
    return "\n".join(lines)


def messages_per_subtask(session: Session) -> float:
    """Actor messages delivered per executed subtask (0.0 before any run).

    The scalar the RPC-batching work targets: every point shaved off
    this number is one fewer supervisor round-trip per subtask on a real
    cluster's data plane.
    """
    n_subtasks = session.executor.report.n_subtasks
    if not n_subtasks:
        return 0.0
    snapshot = session.cluster.actor_system.log.snapshot()
    return snapshot["total_delivered"] / n_subtasks


def service_report(session: Session, top: int = 8) -> str:
    """The actor plane's delivery counts, summarized per service.

    Reads the :class:`~repro.actors.MessageLog` counts: messages
    delivered to each service actor,
    the chattiest sender -> recipient pairs, and — when the session has
    executed subtasks — the message cost per subtask, the number that
    tells you whether a boundary is too chatty for a real RPC plane.
    """
    log = session.cluster.actor_system.log
    snapshot = log.snapshot()
    lines = [
        "service plane:",
        f"  messages delivered:  {snapshot['total_delivered']}",
    ]
    n_subtasks = session.executor.report.n_subtasks
    if n_subtasks:
        per = snapshot["total_delivered"] / n_subtasks
        lines.append(
            f"  per subtask:         {per:.1f} ({n_subtasks} subtasks)"
        )
    lines.append("  per service:")
    for recipient, count in sorted(
        snapshot["recipients"].items(), key=lambda item: (-item[1], item[0]),
    ):
        lines.append(f"    {recipient:24s} {count:>8d}")
    lines.append(f"  top {top} edges:")
    for (sender, recipient), count in log.top_edges(top):
        lines.append(f"    {sender} -> {recipient:24s} {count:>8d}")
    return "\n".join(lines)


def session_summary(session: Session) -> str:
    """Everything at a glance: last run, bands, memory."""
    report = session.last_report
    head = (
        f"last run: {report.n_subtasks} subtasks over "
        f"{report.n_graph_nodes} chunk nodes, "
        f"{report.dynamic_yields} dynamic-tiling switches, "
        f"makespan {report.makespan:.4f}s"
    )
    parts = [head, band_timeline(session), memory_report(session)]
    if report.retries or report.recomputed_subtasks:
        parts.append(recovery_report(session))
    if (report.admission_wait_time or report.oom_retries
            or report.pressure_splits):
        parts.append(pressure_report(session))
    return "\n\n".join(parts)
