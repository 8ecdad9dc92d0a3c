"""Tests for the mapping algorithms."""

import pytest

from repro.core import (BacktrackingMapper, CongestionAwareMapper,
                        GreedyMapper, MappingError, ResourceView,
                        ServiceGraph, ShortestPathMapper, default_catalog)

MAPPERS = [GreedyMapper, ShortestPathMapper, BacktrackingMapper]


def star_view(containers=2, cpu=2.0, mem=1024.0):
    """h1 -- s1 -- s2 -- h2 with containers hanging off each switch."""
    view = ResourceView()
    view.add_sap("h1")
    view.add_sap("h2")
    view.add_switch("s1", 1)
    view.add_switch("s2", 2)
    view.add_link("h1", "s1", delay=0.001)
    view.add_link("s1", "s2", delay=0.002, bandwidth=100e6)
    view.add_link("h2", "s2", delay=0.001)
    for index in range(containers):
        name = "nc%d" % (index + 1)
        view.add_container(name, cpu=cpu, mem=mem)
        switch = "s1" if index % 2 == 0 else "s2"
        view.add_link(name, switch, delay=0.0005)
    return view


def chain_sg(vnf_count=1, vnf_type="firewall", bandwidth=0.0,
             max_delay=None):
    sg = ServiceGraph("test-chain")
    sg.add_sap("h1")
    sg.add_sap("h2")
    names = []
    for index in range(vnf_count):
        name = "v%d" % index
        sg.add_vnf(name, vnf_type)
        names.append(name)
    sg.add_chain(["h1"] + names + ["h2"], bandwidth=bandwidth)
    if max_delay is not None:
        sg.add_requirement("h1", "h2", max_delay=max_delay)
    return sg


@pytest.mark.parametrize("mapper_cls", MAPPERS)
class TestAllMappers:
    def test_single_vnf_mapped(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view()
        mapping = mapper.map(chain_sg(1), view)
        assert mapping.vnf_placement["v0"] in ("nc1", "nc2")
        assert len(mapping.link_paths) == 2

    def test_resources_reserved_on_view(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view(containers=1, cpu=0.6)
        mapper.map(chain_sg(1), view)  # firewall needs 0.5 cpu
        with pytest.raises(MappingError):
            mapper.map(chain_sg(1), view)  # no room for a second

    def test_release_frees_resources(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view(containers=1, cpu=0.6)
        mapping = mapper.map(chain_sg(1), view)
        mapper.release(mapping, view)
        mapper.map(chain_sg(1), view)  # fits again

    def test_infeasible_cpu_rejected(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view(cpu=0.1)
        with pytest.raises(MappingError):
            mapper.map(chain_sg(1), view)

    def test_multiple_vnfs_spread_when_needed(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        # each container fits exactly one firewall (0.5 cpu)
        view = star_view(containers=3, cpu=0.6)
        mapping = mapper.map(chain_sg(3), view)
        assert len(set(mapping.vnf_placement.values())) == 3

    def test_paths_are_connected(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view()
        mapping = mapper.map(chain_sg(2), view)
        chain = mapping.sg.chain_from("h1")
        for src, dst in zip(chain, chain[1:]):
            path = mapping.link_paths[(src, dst)]
            assert len(path) >= 2
            # endpoints anchor correctly
            start = src if src in mapping.sg.saps \
                else mapping.vnf_placement[src]
            end = dst if dst in mapping.sg.saps \
                else mapping.vnf_placement[dst]
            assert path[0] == start
            assert path[-1] == end

    def test_bandwidth_reserved_along_paths(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view()
        mapper.map(chain_sg(1, bandwidth=60e6), view)
        # the s1--s2 spine has 100 Mbit/s; a second 60 Mbit/s chain
        # cannot cross it
        with pytest.raises(MappingError):
            mapper.map(
                ServiceGraphFactory.second_chain(bandwidth=60e6), view)


class ServiceGraphFactory:
    @staticmethod
    def second_chain(bandwidth=0.0):
        sg = ServiceGraph("second")
        sg.add_sap("h1")
        sg.add_sap("h2")
        sg.add_vnf("w0", "firewall")
        sg.add_chain(["h1", "w0", "h2"], bandwidth=bandwidth)
        return sg


def diamond_view():
    """h1 -- a, then a -- b -- d (fast) or a -- c -- d (slow), with h2
    and the only container hanging off d."""
    view = ResourceView()
    view.add_sap("h1")
    view.add_sap("h2")
    for index, name in enumerate("abcd"):
        view.add_switch(name, index + 1)
    view.add_link("h1", "a", delay=0.001)
    view.add_link("a", "b", delay=0.001)
    view.add_link("b", "d", delay=0.001)
    view.add_link("a", "c", delay=0.005)
    view.add_link("c", "d", delay=0.005)
    view.add_link("h2", "d", delay=0.001)
    view.add_container("nc1", cpu=2.0, mem=1024.0)
    view.add_link("nc1", "d", delay=0.0005)
    return view


class TestDownedEdges:
    def test_copy_keeps_down_marks(self):
        view = diamond_view()
        view.set_link_up("a", "b", False)
        clone = view.copy()
        assert clone.down_links() == [("a", "b")]
        assert clone.shortest_path("a", "d") == ["a", "c", "d"]
        assert view.shortest_path("a", "d") == ["a", "c", "d"]
        # the copy's marks are its own
        clone.set_link_up("a", "b", True)
        assert view.down_links() == [("a", "b")]

    @pytest.mark.parametrize("mapper_cls", MAPPERS + [CongestionAwareMapper])
    def test_chain_avoids_downed_edge(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = diamond_view()
        assert any("b" in path for path in
                   mapper.map(chain_sg(1), view.copy()).link_paths.values())
        view.set_link_up("a", "b", False)
        mapping = mapper.map(chain_sg(1), view)
        for path in mapping.link_paths.values():
            hops = {frozenset(hop) for hop in zip(path, path[1:])}
            assert frozenset(("a", "b")) not in hops, path
        assert mapping.link_paths[("h1", "v0")] == \
            ["h1", "a", "c", "d", "nc1"]


class TestShortestPathSpecifics:
    def test_prefers_nearby_container(self):
        view = ResourceView()
        view.add_sap("h1")
        view.add_sap("h2")
        view.add_switch("s1", 1)
        view.add_switch("s2", 2)
        view.add_link("h1", "s1", delay=0.001)
        view.add_link("s1", "s2", delay=0.010)
        view.add_link("h2", "s2", delay=0.001)
        view.add_container("near", cpu=4, mem=4096)
        view.add_container("far", cpu=4, mem=4096)
        view.add_link("near", "s1", delay=0.0001)
        view.add_link("far", "s2", delay=0.0001)
        mapper = ShortestPathMapper(default_catalog())
        mapping = mapper.map(chain_sg(1), view)
        assert mapping.vnf_placement["v0"] == "near"

    def test_delay_requirement_enforced(self):
        view = star_view()
        mapper = ShortestPathMapper(default_catalog())
        with pytest.raises(MappingError):
            mapper.map(chain_sg(1, max_delay=0.0001), view)
        mapper.map(chain_sg(1, max_delay=1.0), view)


class TestBacktrackingSpecifics:
    def test_finds_global_optimum_greedy_misses(self):
        """Two VNFs, two containers: nc-far sits 10 ms away.  Greedy
        first-fit puts both VNFs wherever they fit first; backtracking
        must place both in the near container (it fits both)."""
        view = ResourceView()
        view.add_sap("h1")
        view.add_sap("h2")
        view.add_switch("s1", 1)
        view.add_link("h1", "s1", delay=0.001)
        view.add_link("h2", "s1", delay=0.001)
        view.add_container("zz-near", cpu=2.0, mem=2048)
        view.add_container("aa-far", cpu=2.0, mem=2048)
        view.add_link("zz-near", "s1", delay=0.0001)
        view.add_link("aa-far", "s1", delay=0.010)
        sg = chain_sg(2)
        backtracking = BacktrackingMapper(default_catalog())
        mapping = backtracking.map(sg, view.copy())
        assert set(mapping.vnf_placement.values()) == {"zz-near"}
        # greedy picks the alphabetically-first container dict order:
        greedy = GreedyMapper(default_catalog())
        greedy_mapping = greedy.map(sg, view.copy())
        assert greedy_mapping.vnf_placement["v0"] == "zz-near" \
            or greedy_mapping.vnf_placement["v0"] == "aa-far"

    def test_total_delay_not_worse_than_others(self):
        view = star_view(containers=4)
        sg = chain_sg(3)
        catalog = default_catalog()
        results = {}
        for mapper_cls in MAPPERS:
            mapping = mapper_cls(catalog).map(sg, view.copy())
            results[mapper_cls.name] = mapping.total_delay(view)
        assert results["backtracking"] <= results["greedy"] + 1e-12
        assert results["backtracking"] <= results["shortest-path"] + 1e-12

    def test_requirement_pruning(self):
        view = star_view()
        mapper = BacktrackingMapper(default_catalog())
        with pytest.raises(MappingError):
            mapper.map(chain_sg(1, max_delay=0.0001), view)

    def test_step_budget_limits_search(self):
        view = star_view(containers=6)
        mapper = BacktrackingMapper(default_catalog(), max_steps=1)
        # with an absurd budget the search returns the first (and only
        # explored) assignment or nothing; either way it must not hang
        try:
            mapper.map(chain_sg(4), view)
        except MappingError:
            pass


class TestMappingObject:
    def test_chain_delay_sums_segments(self):
        view = star_view()
        mapper = GreedyMapper(default_catalog())
        mapping = mapper.map(chain_sg(1), view)
        total = mapping.chain_delay(view, "h1")
        by_hand = sum(view.path_delay(path)
                      for path in mapping.link_paths.values())
        assert total == pytest.approx(by_hand)

    def test_total_hops(self):
        view = star_view()
        mapper = GreedyMapper(default_catalog())
        mapping = mapper.map(chain_sg(1), view)
        assert mapping.total_hops() >= 2
