"""Unit tests for the actor framework."""

import gc
import weakref

import numpy as np
import pytest

from repro.actors import Actor, ActorRef, ActorSystem
from repro.errors import ActorError


class Counter(Actor):
    def __init__(self, start: int = 0):
        super().__init__()
        self.value = start
        self.started = False
        self.stopped = False

    def on_start(self):
        self.started = True

    def on_stop(self):
        self.stopped = True

    def increment(self, by: int = 1) -> int:
        self.value += by
        return self.value

    def get(self) -> int:
        return self.value


class Caller(Actor):
    def __init__(self, target: ActorRef):
        super().__init__()
        self.target = target

    def bump_twice(self) -> int:
        self.target.increment()
        return self.target.increment()


@pytest.fixture
def system():
    sys_ = ActorSystem()
    sys_.create_pool("node-a")
    sys_.create_pool("node-b")
    return sys_


class TestLifecycle:
    def test_create_and_call(self, system):
        ref = system.create_actor("node-a", Counter, 10, uid="c1")
        assert ref.increment(5) == 15
        assert ref.get() == 15

    def test_on_start_called(self, system):
        system.create_actor("node-a", Counter, uid="c1")
        assert system.get_pool("node-a").lookup("c1").started

    def test_duplicate_uid_rejected(self, system):
        system.create_actor("node-a", Counter, uid="c1")
        with pytest.raises(ActorError):
            system.create_actor("node-a", Counter, uid="c1")

    def test_destroy_calls_on_stop(self, system):
        system.create_actor("node-a", Counter, uid="c1")
        actor = system.get_pool("node-a").lookup("c1")
        system.destroy_actor("node-a", "c1")
        assert actor.stopped
        assert not system.has_actor("node-a", "c1")

    def test_unknown_actor_raises(self, system):
        with pytest.raises(ActorError):
            system.actor_ref("node-a", "missing")

    def test_unknown_pool_raises(self, system):
        with pytest.raises(ActorError):
            system.get_pool("nowhere")

    def test_stop_pool_destroys_actors(self, system):
        system.create_actor("node-a", Counter, uid="c1")
        actor = system.get_pool("node-a").lookup("c1")
        system.stop_pool("node-a")
        assert actor.stopped
        with pytest.raises(ActorError):
            system.get_pool("node-a")


class TestMessaging:
    def test_cross_node_call(self, system):
        counter = system.create_actor("node-a", Counter, uid="counter")
        caller = system.create_actor("node-b", Caller, counter, uid="caller")
        assert caller.bump_twice() == 2

    def test_messages_logged_with_sender(self, system):
        counter = system.create_actor("node-a", Counter, uid="counter")
        caller = system.create_actor("node-b", Caller, counter, uid="caller")
        caller.bump_twice()
        methods = system.log.snapshot()["methods"]
        assert methods[("<external>", "caller", "bump_twice")] == 1
        assert methods[("caller", "counter", "increment")] == 2
        assert system.log.total_delivered == 3

    def test_unknown_method_raises(self, system):
        ref = system.create_actor("node-a", Counter, uid="c1")
        with pytest.raises(ActorError):
            ref.no_such_method()

    def test_count_for(self, system):
        ref = system.create_actor("node-a", Counter, uid="c1")
        ref.increment()
        ref.increment()
        assert system.log.count_for("c1") == 2

    def test_ref_equality(self, system):
        system.create_actor("node-a", Counter, uid="c1")
        a = system.actor_ref("node-a", "c1")
        b = system.actor_ref("node-a", "c1")
        assert a == b and hash(a) == hash(b)

    def test_self_ref(self, system):
        ref = system.create_actor("node-a", Counter, uid="c1")
        actor = system.get_pool("node-a").lookup("c1")
        assert actor.ref() == ref


class Holder(Actor):
    def __init__(self):
        super().__init__()
        self.held = None

    def hold(self, value) -> None:
        self.held = value

    def drop(self) -> None:
        self.held = None


class TestLog:
    def test_delivery_keeps_no_reference_to_arguments(self, system):
        """A value the recipient has let go of is freed at once: the
        log counts deliveries and never holds their arguments."""
        ref = system.create_actor("node-a", Holder, uid="holder")
        value = np.arange(1000)
        alive = weakref.ref(value)
        gc.disable()
        try:
            ref.hold(value)
            del value
            assert alive() is not None
            ref.drop()
            assert alive() is None
        finally:
            gc.enable()
        assert system.log.count_for("holder") == 2
