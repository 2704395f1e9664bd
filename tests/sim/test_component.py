"""Unit tests for the hierarchical component model (tree, ports, lifecycle)."""

import pytest

from repro.errors import WiringError
from repro.sim import Component, InputPort, OutputPort, Simulator


class Producer(Component):
    def __init__(self, parent=None, optional=False):
        super().__init__("producer", parent=parent)
        self.out = self.out_port("out", int, optional=optional)


class Consumer(Component):
    def __init__(self, parent=None):
        super().__init__("consumer", parent=parent)
        self.seen = []
        self.inp = self.in_port("inp", int, handler=self.seen.append)


class TestTree:
    def test_paths_are_scoped(self):
        root = Component("chip")
        mid = Component("subring0", parent=root)
        leaf = Component("mact", parent=mid)
        assert leaf.path == "chip.subring0.mact"
        assert leaf.root is root
        assert root.child("subring0") is mid

    def test_children_inherit_sim_and_registry(self):
        sim = Simulator()
        root = Component("chip", sim=sim)
        child = Component("core0", parent=root)
        assert child.sim is sim
        assert child.registry is root.registry

    def test_duplicate_child_name_rejected(self):
        root = Component("chip")
        Component("core0", parent=root)
        with pytest.raises(WiringError):
            Component("core0", parent=root)

    def test_bad_names_rejected(self):
        for bad in ("", "a.b", "a/b"):
            with pytest.raises(WiringError):
                Component(bad)

    def test_walk_is_preorder(self):
        root = Component("chip")
        a = Component("a", parent=root)
        Component("a1", parent=a)
        Component("b", parent=root)
        assert [c.name for c in root.walk()] == ["chip", "a", "a1", "b"]

    def test_find_with_glob_segments(self):
        root = Component("chip")
        for s in range(3):
            ring = Component(f"subring{s}", parent=root)
            Component("mact", parent=ring)
        macts = root.find("subring*/mact")
        assert [m.path for m in macts] == [
            "chip.subring0.mact", "chip.subring1.mact", "chip.subring2.mact"]
        assert root.find("subring1.mact")[0] is macts[1]
        assert root.find("nothing/*") == []

    def test_tree_render_and_dict(self):
        root = Component("chip")
        ring = Component("subring0", parent=root)
        Component("mact", parent=ring)
        text = root.tree()
        assert "chip" in text and "subring0" in text and "mact" in text
        d = root.tree_dict()
        assert d["path"] == "chip"
        assert d["children"][0]["children"][0]["name"] == "mact"


class TestPorts:
    def test_send_flows_through_wire(self):
        root = Component("rig")
        producer = Producer(parent=root)
        consumer = Consumer(parent=root)
        wire = producer.out.connect(consumer.inp)
        producer.out.send(7)
        assert consumer.seen == [7]
        assert wire.messages == 1
        assert producer.out.sent == 1 and consumer.inp.received == 1

    def test_fan_out_and_fan_in(self):
        root = Component("rig")
        producer = Producer(parent=root)
        c1, c2 = Consumer(parent=root), Consumer(parent=root.child("consumer"))
        producer.out.connect(c1.inp)
        producer.out.connect(c2.inp)
        producer.out.send(1)
        assert c1.seen == [1] and c2.seen == [1]

    def test_type_mismatch_rejected_at_connect(self):
        root = Component("rig")
        producer = Producer(parent=root)
        other = Component("other", parent=root)
        strings = other.in_port("strings", str, handler=lambda s: None)
        with pytest.raises(WiringError):
            producer.out.connect(strings)

    def test_payload_type_checked_at_delivery(self):
        root = Component("rig")
        producer = Producer(parent=root)
        consumer = Consumer(parent=root)
        producer.out.connect(consumer.inp)
        with pytest.raises(WiringError):
            producer.out.send("not an int")

    def test_send_on_unconnected_port_raises(self):
        producer = Producer()
        with pytest.raises(WiringError):
            producer.out.send(1)

    def test_unbound_input_raises_on_recv(self):
        root = Component("rig")
        port = root.in_port("inp", int)
        with pytest.raises(WiringError):
            port.recv(1)
        port.bind(lambda x: x * 2)
        assert port.recv(3) == 6
        with pytest.raises(WiringError):
            port.bind(lambda x: x)

    def test_duplicate_port_name_rejected(self):
        root = Component("rig")
        root.in_port("p", int, handler=lambda x: None)
        with pytest.raises(WiringError):
            root.out_port("p", int)

    def test_port_paths(self):
        root = Component("chip")
        core = Component("core0", parent=root)
        port = core.out_port("mem_req", int, optional=True)
        assert port.path == "chip.core0.mem_req"
        assert core.port("mem_req") is port


class Wired(Component):
    """Connects its producer to its consumer in on_connect."""

    def __init__(self):
        super().__init__("rig")
        self.producer = Producer(parent=self)
        self.consumer = Consumer(parent=self)
        self.finalized = False

    def on_connect(self):
        self.producer.out.connect(self.consumer.inp)

    def on_finalize(self):
        self.finalized = True


class TestLifecycle:
    def test_elaborate_runs_connect_then_finalize(self):
        rig = Wired()
        assert rig.phase == "build"
        rig.elaborate()
        assert rig.phase == "ready"
        assert rig.finalized
        rig.producer.out.send(5)
        assert rig.consumer.seen == [5]

    def test_elaborate_only_on_root_and_only_once(self):
        rig = Wired()
        with pytest.raises(WiringError):
            rig.producer.elaborate()
        rig.elaborate()
        with pytest.raises(WiringError):
            rig.elaborate()

    def test_unconnected_required_output_fails_finalize(self):
        root = Component("rig")
        Producer(parent=root)
        with pytest.raises(WiringError):
            root.elaborate()

    def test_optional_output_may_stay_unconnected(self):
        root = Component("rig")
        Producer(parent=root, optional=True)
        root.elaborate()
        assert root.phase == "ready"

    def test_connect_after_elaborate_rejected(self):
        rig = Wired()
        rig.elaborate()
        with pytest.raises(WiringError):
            rig.producer.out.connect(
                InputPort(rig.consumer, "late", int, handler=print))

    def test_children_cannot_join_after_build(self):
        rig = Wired()
        rig.elaborate()
        with pytest.raises(WiringError):
            Component("late", parent=rig)

    def test_reset_reaches_every_component(self):
        class Resettable(Component):
            def __init__(self, name, parent=None):
                super().__init__(name, parent=parent)
                self.resets = 0

            def on_reset(self):
                self.resets += 1

        root = Resettable("root")
        kid = Resettable("kid", parent=root)
        root.reset()
        assert root.resets == 1 and kid.resets == 1


class TestScopedStats:
    def test_stats_registered_under_path(self):
        root = Component("chip")
        leaf = Component("mact", parent=Component("subring0", parent=root))
        counter = leaf.stats.counter("requests_in")
        counter.inc(3)
        assert root.registry.dump()["chip.subring0.mact.requests_in"] == 3
