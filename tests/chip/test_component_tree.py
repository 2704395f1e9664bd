"""The assembled chips as component trees: introspection, declared wiring,
hierarchical stats, and the no-closure-wiring contract on the chip layer."""

import inspect

from repro.chip import SmarCoChip, XeonSystem
from repro.chip.run import RunRequest, execute
from repro.config import smarco_scaled
from repro.sim.stats import nest_flat_stats
from repro.workloads import get_profile


def make_chip(subrings=2, cores=4, seed=3):
    return SmarCoChip(smarco_scaled(subrings, cores), seed=seed)


class TestSmarcoTree:
    def test_tree_contains_every_subsystem(self):
        chip = make_chip()
        text = chip.tree()
        for name in ("chip", "noc", "mem", "subring0", "subring1",
                     "mact", "dma", "spm0", "core0"):
            assert name in text, f"{name} missing from tree render"

    def test_find_locates_macts_across_subrings(self):
        chip = make_chip(subrings=3)
        macts = chip.find("subring*/mact")
        assert [m.path for m in macts] == [
            "chip.subring0.mact", "chip.subring1.mact", "chip.subring2.mact"]
        assert chip.find("subring1.mact")[0] is macts[1]

    def test_cores_live_under_their_subring(self):
        chip = make_chip(subrings=2, cores=4)
        for cid, core in enumerate(chip.cores):
            ring = cid // 4
            assert core.path == f"chip.subring{ring}.core{cid}"

    def test_core_requests_fan_into_chip_port(self):
        chip = make_chip()
        port = chip.port("core_req")
        # one wire per core: every core's mem_req output lands here
        assert len(port.wires) == len(chip.cores)
        assert all(w.src.name == "mem_req" for w in port.wires)

    def test_mact_ports_wired_per_subring(self):
        chip = make_chip()
        for mact in chip.find("subring*/mact"):
            assert mact.port("submit").connected
            assert mact.port("batch_out").connected

    def test_elaboration_finished_in_constructor(self):
        chip = make_chip()
        assert chip.phase == "ready"
        assert all(c.phase == "ready" for c in chip.walk())

    def test_no_lambda_wiring_in_chip_assembly(self):
        import repro.chip.smarco as smarco
        source = inspect.getsource(smarco)
        assert "lambda" not in source, \
            "chip assembly must use declared ports, not closures"

    def test_stats_nest_by_component_path(self):
        chip = make_chip()
        chip.load_profile(get_profile("wordcount"), threads_per_core=4,
                          instrs_per_thread=100)
        chip.run()
        dump = chip.registry.dump()
        assert dump["chip.subring0.mact.requests_in"] > 0
        assert dump["chip.noc.delivered"] > 0
        nested = nest_flat_stats(dump)
        assert nested["chip"]["subring0"]["mact"]["requests_in"] == \
            dump["chip.subring0.mact.requests_in"]

    def test_tree_dict_lists_ports_and_wires(self):
        chip = make_chip()
        d = chip.tree_dict()
        assert d["name"] == "chip"
        ports = {p["name"]: p for p in d["ports"]}
        assert ports["core_req"]["direction"] == "in"
        assert ports["core_req"]["wires"] == len(chip.cores)


class TestXeonTree:
    def test_hierarchies_and_cores_in_tree(self):
        system = XeonSystem(seed=1)
        text = system.tree()
        assert "xeon" in text and "xcore0" in text
        assert len(system.find("xcore*")) == len(system.cores)

    def test_llc_stats_scoped_under_root(self):
        system = XeonSystem(seed=1)
        assert any(name.startswith("xeon.llc.")
                   for name in system.registry.names())


class TestRunOutcomeComponents:
    def test_outcome_carries_component_tree(self):
        request = RunRequest(
            kind="smarco", workload="wordcount", seed=0,
            smarco_config=smarco_scaled(1, 4),
            threads_per_core=4, instrs_per_thread=100)
        outcome = execute(request)
        assert outcome.components["name"] == "chip"
        child_names = {c["name"] for c in outcome.components["children"]}
        assert "subring0" in child_names and "noc" in child_names
        tree = nest_flat_stats(outcome.stats)
        assert tree["chip"]["noc"]["delivered"] == \
            outcome.stats["chip.noc.delivered"]
