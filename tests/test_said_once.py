"""Lists that exist once stay once.

Each test here fails if a hand-kept copy comes back: a counter merged or
rebuilt field by field, a service method allow-list, a config knob no
caller sets, a ``Session`` keyword no program passes.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib

import numpy as np
import pytest

import repro.core.executor as executor_module
from repro import frame as pf
from repro.cluster.simulation import SimReport, counter_growth, fold_report
from repro.config import ClusterSpec, Config, CostModel, FaultSpec
from repro.core import Session
from repro.core.session import RunReport
from repro.dataframe import from_frame
from repro.errors import ActorError

REPO = pathlib.Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# (a) one counter list: SimReport's fields
# ---------------------------------------------------------------------------

def _tiny_run(session: Session) -> None:
    local = pf.DataFrame({"k": np.arange(40) % 4, "v": np.arange(40.0)})
    from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


def _tiny_session() -> Session:
    cfg = Config()
    cfg.chunk_store_limit = 400
    return Session(cfg)


@pytest.fixture(scope="module")
def clean_reports():
    with _tiny_session() as session:
        _tiny_run(session)
        return (dataclasses.replace(session.executor.report),
                session.last_report)


#: what a test plants on every stage report just before it is folded,
#: by how the field folds.
PLANTED_COUNT = 1024
PLANTED_MAKESPAN = 1e6
PLANTED_DICT = {"planted": 7}


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(SimReport)])
def test_stage_value_reaches_report_and_run_delta(name, monkeypatch,
                                                  clean_reports):
    """A value on a stage's report shows up in ``executor.report`` and —
    for a same-named summed counter — in the run's ``RunReport``, with
    nothing naming the field in between."""
    clean_sim, clean_run = clean_reports
    summed = counter_growth(SimReport(), SimReport()).keys()
    folds = []

    def planting_fold(total: SimReport, stage: SimReport) -> None:
        folds.append(stage)
        if name in summed:
            setattr(stage, name, getattr(stage, name) + PLANTED_COUNT)
        elif name == "makespan":
            stage.makespan = PLANTED_MAKESPAN
        else:
            setattr(stage, name, dict(PLANTED_DICT))
        fold_report(total, stage)

    monkeypatch.setattr(executor_module, "fold_report", planting_fold)
    with _tiny_session() as session:
        _tiny_run(session)
        sim, run = session.executor.report, session.last_report
    assert folds, "the executor no longer folds stages through fold_report"
    planted = PLANTED_COUNT * len(folds)
    if name in summed:
        assert getattr(sim, name) == getattr(clean_sim, name) + planted
    elif name == "makespan":
        assert sim.makespan == PLANTED_MAKESPAN
    elif name == "peak_memory":
        assert sim.peak_memory["planted"] == PLANTED_DICT["planted"]
    else:
        assert getattr(sim, name) == PLANTED_DICT
    if name in summed and name in {
            f.name for f in dataclasses.fields(RunReport)}:
        assert getattr(run, name) == getattr(clean_run, name) + planted
    if name == "total_shuffle_bytes":
        assert run.shuffle_bytes == clean_run.shuffle_bytes + planted


# ---------------------------------------------------------------------------
# (b) one service interface: the wrapped object's public methods
# ---------------------------------------------------------------------------

def _public_callables(service) -> list[str]:
    return [name for name in dir(service)
            if not name.startswith("_")
            and callable(getattr(service, name))]


def _data_attributes(service) -> list[str]:
    return [name for name, value in vars(service).items()
            if not name.startswith("_") and not callable(value)]


def test_every_public_service_method_is_a_message():
    with Session(Config()) as session:
        system = session.cluster.actor_system
        services = session.cluster.services
        refs = {
            field.name: getattr(services, field.name)
            for field in dataclasses.fields(services)
            if field.name != "runners"
        }
        refs.update(services.runners)
        saw_data_attribute = False
        for label, ref in refs.items():
            actor = system.get_pool(ref.address).lookup(ref.uid)
            service = actor._service
            names = _public_callables(service)
            assert names, label
            for name in names:
                assert actor.handler(name) == getattr(service, name), (
                    label, name)
            assert actor.handler("_service_private") is None
            with pytest.raises(AttributeError):
                ref._service
            for name in _data_attributes(service):
                saw_data_attribute = True
                assert actor.handler(name) is None
                with pytest.raises(ActorError):
                    getattr(ref, name)()
        assert saw_data_attribute


def test_service_method_is_resolved_per_message(monkeypatch):
    """The benchmark's tracer patches service classes while sessions
    are live; the next message must call the patched method."""
    with Session(Config()) as session:
        service_cls = type(
            session.cluster.actor_system.get_pool(session.meta.address)
            .lookup(session.meta.uid)._service)
        assert session.meta.count() >= 0
        monkeypatch.setattr(service_cls, "count", lambda self: -1)
        assert session.meta.count() == -1


# ---------------------------------------------------------------------------
# (c) one reason to be a Config field: somebody sets it
# ---------------------------------------------------------------------------

#: where a knob must be set to count: tests, benches, tools, examples
#: and the baseline engine profiles.
CALLER_DIRS = ("tests", "benchmarks", "tools", "examples",
               "src/repro/baselines")


def _names_set_by_callers() -> set[str]:
    """Every name some caller assigns: an attribute store (on it, or
    through it to a nested spec), a keyword argument, or a string key of
    a dict literal (the harnesses' ``faults={...}`` overrides)."""
    names: set[str] = set()
    for directory in CALLER_DIRS:
        for path in (REPO / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)):
                    names.add(node.attr)
                    if isinstance(node.value, ast.Attribute):
                        names.add(node.value.attr)
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        key.value for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str))
    return names


def test_every_config_field_is_set_by_some_caller():
    """``config.py`` says a value nobody chooses differently is a
    constant, not a field; this is the census that keeps it true."""
    assigned = _names_set_by_callers()
    specs = (Config, ClusterSpec, CostModel, FaultSpec)
    unset = [
        f"{spec.__name__}.{field.name}"
        for spec in specs for field in dataclasses.fields(spec)
        if field.name not in assigned
    ]
    assert not unset, f"fields no caller sets (make them constants): {unset}"


# ---------------------------------------------------------------------------
# (d) one reason to be a Session keyword: a program passes it
# ---------------------------------------------------------------------------

#: callers that count for a ``Session`` keyword: programs, not tests.
PROGRAM_DIRS = ("src", "benchmarks", "tools", "examples")


def test_every_session_keyword_is_passed_by_some_program():
    """The ``Config`` census for the client's own parameters: a keyword
    only tests pass is a knob nobody outside them chooses."""
    params = [name for name in inspect.signature(Session.__init__).parameters
              if name != "self"]
    passed: set[str] = set()
    for directory in PROGRAM_DIRS:
        for path in (REPO / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "Session":
                    passed.update(params[:len(node.args)])
                    passed.update(k.arg for k in node.keywords if k.arg)
    unpassed = [name for name in params if name not in passed]
    assert not unpassed, f"Session keywords no program passes: {unpassed}"


# ---------------------------------------------------------------------------
# (e) one combine loop: ``utils.combine_tree``
# ---------------------------------------------------------------------------

def _names(node: ast.AST) -> set[str]:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _combine_loops(source: str) -> list[str]:
    """The functions of ``source`` that loop over batches of
    ``COMBINE_ARITY``: a ``for`` / ``while`` (or a comprehension) that
    reads the arity or calls the old ``batched``."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loops = (node for node in ast.walk(func)
                 if isinstance(node, (ast.For, ast.While, ast.comprehension)))
        if any(_names(loop) & {"COMBINE_ARITY", "batched"} for loop in loops):
            found.append(func.name)
    return found


def test_the_combine_loop_exists_once():
    """Every map-combine-reduce operator builds its combine stage with
    ``combine_tree``; none writes the batching loop again."""
    loops = {
        f"{path.relative_to(REPO)}::{name}"
        for path in (REPO / "src").rglob("*.py")
        for name in _combine_loops(path.read_text())
    }
    assert loops == {"src/repro/utils.py::combine_tree"}


def test_the_combine_loop_guard_sees_a_copy():
    copy = (
        "def tile(self, ctx):\n"
        "    while len(level) > 1:\n"
        "        next_level = []\n"
        "        for batch in batched(level, COMBINE_ARITY):\n"
        "            next_level.append(combine(batch))\n"
        "        level = next_level\n"
    )
    assert _combine_loops(copy) == ["tile"]
    assert _combine_loops(copy.replace("batched(level, COMBINE_ARITY)",
                                       "range(0, len(level), COMBINE_ARITY)")
                          ) == ["tile"]
