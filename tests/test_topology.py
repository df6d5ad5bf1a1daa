"""Topology parsing, validation, and active-path resolution."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdsim.switch import CMD_ADD, OpticalSwitch
from qkdsim.topology import (
    CrossConnect,
    TopologyError,
    load_topology,
    parse_topology,
    resolve_active_path,
)


@pytest.fixture(scope="module")
def reference_doc(configs) -> dict:
    with open(configs / "reference_topology.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def doc(reference_doc) -> dict:
    return copy.deepcopy(reference_doc)


def states_for(topology, *path_ids) -> dict:
    """Switch tables holding exactly the given paths' cross-connects."""
    states = {sw: set() for sw in topology.switches}
    for pid in path_ids:
        for cc in topology.path(pid).cross_connects:
            states[cc.switch].add((cc.in_port, cc.out_port))
    return states


class TestReferenceTopology:
    def test_structure(self, reference_topology):
        topo = reference_topology
        assert topo.switches == {"alice": 8, "bob": 8, "int1": 4, "int2": 4}
        assert [l.link_id for l in topo.links] == ["link1", "link2", "link3"]
        assert {l.link_id: l.kind for l in topo.links} == {
            "link1": "coupler", "link2": "mcf", "link3": "multihop",
        }
        assert topo.link("link3").hop_count == 3
        assert topo.alice_port == ("alice", 0)
        assert topo.bob_port == ("bob", 0)
        assert topo.path_ids() == ["link1", "link2", "link3"]
        assert len(topo.path("link3").cross_connects) == 4

    def test_selection_order_follows_file_order(self, configs):
        swapped = load_topology(str(configs / "reference_topology_link2_first.json"))
        assert swapped.path_ids() == ["link2", "link1", "link3"]

    def test_channels_are_calibrated(self, reference_topology):
        for link in reference_topology.links:
            assert link.channel.sifted_rate_cps > 0
            assert link.channel.dark_rate_cps == 0.0
            assert link.channel.knee_sharpness > 1.0

    def test_lookup_helpers(self, reference_topology):
        topo = reference_topology
        assert topo.link_for_path("link2").kind == "mcf"
        with pytest.raises(KeyError):
            topo.link("nope")
        with pytest.raises(KeyError):
            topo.path("nope")


class TestResolveActivePath:
    @pytest.mark.parametrize("pid", ["link1", "link2", "link3"])
    def test_each_path_round_trips(self, reference_topology, pid):
        states = states_for(reference_topology, pid)
        assert resolve_active_path(reference_topology, states) == pid

    def test_dark_fabric_resolves_to_none(self, reference_topology):
        assert resolve_active_path(reference_topology, states_for(reference_topology)) is None

    @pytest.mark.parametrize("drop", range(4))
    def test_partial_multihop_circuit_is_incomplete(self, reference_topology, drop):
        topo = reference_topology
        states = {sw: set() for sw in topo.switches}
        for i, cc in enumerate(topo.path("link3").cross_connects):
            if i != drop:
                states[cc.switch].add((cc.in_port, cc.out_port))
        assert resolve_active_path(topo, states) is None

    def test_two_complete_paths_is_ambiguous(self, reference_topology):
        states = states_for(reference_topology, "link1", "link2")
        assert resolve_active_path(reference_topology, states) is None

    def test_second_entry_on_an_exit_port_is_ambiguous(self, reference_topology):
        # link1 leaves alice on port 1; a second entry there darkens it.
        states = states_for(reference_topology, "link1")
        states["alice"].add((1, 5))
        assert resolve_active_path(reference_topology, states) is None

    def test_unrelated_entries_elsewhere_do_not_matter(self, reference_topology):
        states = states_for(reference_topology, "link1")
        states["int1"].add((2, 3))
        assert resolve_active_path(reference_topology, states) == "link1"

    def test_entries_act_as_bidirectional_bridges(self, reference_topology):
        # Same circuit with every pair written reversed still lights up.
        topo = reference_topology
        states = {sw: set() for sw in topo.switches}
        for cc in topo.path("link3").cross_connects:
            states[cc.switch].add((cc.out_port, cc.in_port))
        assert resolve_active_path(topo, states) == "link3"

    def test_loop_returns_none(self, reference_topology):
        topo = reference_topology
        states = {sw: set() for sw in topo.switches}
        # link1's alice entry, then a bob entry that lands on port 2
        # instead of the Bob QKD port: no path is fully installed.
        states["alice"] = {(0, 1)}
        states["bob"] = {(1, 2)}
        assert resolve_active_path(topo, states) is None

    @given(st.lists(st.tuples(st.integers(0, 7), st.booleans()), max_size=12))
    def test_resolved_path_is_fully_installed(self, reference_topology, picks):
        # Picks go through real flow-mods and a barrier, so the committed
        # tables never share a port between two entries.
        topo = reference_topology
        all_ccs = [cc for p in topo.paths for cc in p.cross_connects]
        switches = {sid: OpticalSwitch(sid, n) for sid, n in topo.switches.items()}
        for xid, (i, reverse) in enumerate(picks, start=1):
            cc = all_ccs[i % len(all_ccs)]
            ports = (cc.out_port, cc.in_port) if reverse else (cc.in_port, cc.out_port)
            switches[cc.switch].handle_flow_mod(xid, CMD_ADD, *ports)
        for sw in switches.values():
            sw.handle_barrier(0)
        states = {sid: sw.query_entries() for sid, sw in switches.items()}
        resolved = resolve_active_path(topo, states)

        def users(cc):
            return [set(e) for e in states[cc.switch] if {cc.in_port, cc.out_port} & set(e)]

        for path in topo.paths:
            installed = all({cc.in_port, cc.out_port} in users(cc)
                            for cc in path.cross_connects)
            # A fully installed path is the one resolved, and only it.
            assert installed == (path.path_id == resolved)
        if resolved is not None:
            for cc in topo.path(resolved).cross_connects:
                assert users(cc) == [{cc.in_port, cc.out_port}]


def _mutate(doc: dict, fn) -> dict:
    fn(doc)
    return doc


class TestValidation:
    def test_cross_connect_rejects_identity_mapping(self):
        with pytest.raises(TopologyError):
            CrossConnect("sw", 3, 3)

    @pytest.mark.parametrize(
        "mutator",
        [
            pytest.param(lambda d: d["switches"].append({"id": "alice", "ports": 4}),
                         id="duplicate-switch-id"),
            pytest.param(lambda d: d["links"].append(dict(d["links"][0])),
                         id="duplicate-link-id"),
            pytest.param(lambda d: d["paths"].append(copy.deepcopy(d["paths"][0])),
                         id="duplicate-path-id"),
            pytest.param(lambda d: d["switches"].__setitem__(0, {"id": "alice", "ports": 0}),
                         id="zero-port-switch"),
            pytest.param(lambda d: d.__setitem__("alice_port", ["ghost", 0]),
                         id="alice-on-unknown-switch"),
            pytest.param(lambda d: d.__setitem__("alice_port", ["alice", 99]),
                         id="alice-port-out-of-range"),
            pytest.param(lambda d: d.__setitem__("alice_port", "alice:0"),
                         id="alice-port-not-a-pair"),
            # False == 0, so a bool port would load as the real one.
            pytest.param(lambda d: d.__setitem__("alice_port", ["alice", False]),
                         id="alice-port-is-a-bool"),
            pytest.param(lambda d: d.__setitem__("bob_port", ["bob", False]),
                         id="bob-port-is-a-bool"),
            pytest.param(lambda d: d.__setitem__("bob_port", d["alice_port"]),
                         id="alice-equals-bob"),
            pytest.param(lambda d: d["paths"][0]["cross_connects"][0].__setitem__("switch", "ghost"),
                         id="cc-unknown-switch"),
            pytest.param(lambda d: d["paths"][0]["cross_connects"][0].__setitem__("out_port", 99),
                         id="cc-port-out-of-range"),
            pytest.param(lambda d: d["paths"][0]["cross_connects"][0].__setitem__("out_port", 0),
                         id="cc-identity-mapping"),
            pytest.param(lambda d: d["paths"][0]["cross_connects"][0].__setitem__("in_port", 4),
                         id="path-not-anchored-at-alice"),
            pytest.param(lambda d: d["paths"][0]["cross_connects"][-1].__setitem__("out_port", 4),
                         id="path-not-anchored-at-bob"),
            pytest.param(lambda d: d.__setitem__("paths", []),
                         id="no-paths"),
            pytest.param(lambda d: d["paths"][0].__setitem__("cross_connects", []),
                         id="empty-path"),
            pytest.param(lambda d: d["paths"][0].__setitem__("link", "ghost"),
                         id="path-unknown-link"),
            pytest.param(lambda d: d["links"][0].__setitem__("kind", "teleport"),
                         id="unknown-link-kind"),
            pytest.param(lambda d: d["links"][2].__setitem__("hop_count", 1),
                         id="multihop-with-one-hop"),
            pytest.param(lambda d: d["links"][0].__setitem__("hop_count", 2),
                         id="coupler-with-two-hops"),
            pytest.param(lambda d: d["paths"][1]["cross_connects"][0].__setitem__("out_port", 1),
                         id="paths-share-a-port"),
            pytest.param(lambda d: d["paths"][2].__setitem__(
                "cross_connects", [d["paths"][2]["cross_connects"][0],
                                   {"switch": "bob", "in_port": 3, "out_port": 0}]),
                         id="multihop-not-longer-than-single-hop"),
            pytest.param(lambda d: d["links"][0]["channel"]["calibrate"].__setitem__(
                "death_power_dbm", -70.0),
                         id="infeasible-calibration-anchors"),
            pytest.param(lambda d: d.pop("switches"),
                         id="missing-switches"),
            pytest.param(lambda d: d["links"][0]["channel"]["calibrate"].pop("knee_power_dbm"),
                         id="missing-calibration-field"),
            pytest.param(lambda d: d["links"][0]["channel"]["calibrate"].__setitem__(
                "knee_power_dbm", "-68"),
                         id="calibration-anchor-is-a-string"),
            pytest.param(lambda d: d["links"][2].__setitem__("hop_count", "3"),
                         id="hop-count-is-a-string"),
            pytest.param(lambda d: d["links"][2].__setitem__("hop_count", True),
                         id="hop-count-is-a-bool"),
            pytest.param(lambda d: d["switches"][0].__setitem__("ports", 4.0),
                         id="port-count-is-a-float"),
            pytest.param(lambda d: d["links"][0]["channel"]["calibrate"].__setitem__(
                "knee_power_dbm", float("nan")),
                         id="calibration-anchor-is-nan"),
            pytest.param(lambda d: d["links"][0]["channel"]["calibrate"].__setitem__(
                "suppression_db", float("inf")),
                         id="calibration-anchor-is-infinite"),
            pytest.param(lambda d: d.update(bob_port=["alice", 5], paths=[
                {"id": p, "link": p,
                 "cross_connects": [{"switch": "alice", "in_port": 0, "out_port": 5}]}
                for p in ("link1", "link2")]),
                         id="paths-share-an-alice-to-bob-cross-connect"),
        ],
    )
    def test_bad_documents_rejected(self, doc, mutator):
        with pytest.raises(TopologyError):
            parse_topology(_mutate(doc, mutator))

    def test_port_reuse_within_a_path(self, doc):
        # Splice an extra cross-connect that reuses alice port 1.
        doc["paths"][0]["cross_connects"] = [
            {"switch": "alice", "in_port": 0, "out_port": 1},
            {"switch": "alice", "in_port": 1, "out_port": 4},
            {"switch": "bob", "in_port": 1, "out_port": 0},
        ]
        with pytest.raises(TopologyError, match="reuses port"):
            parse_topology(doc)

    @pytest.mark.parametrize("new_id", ["li,nk2", "li\nnk2", "link2\r", "li\u2028nk2"])
    @pytest.mark.parametrize("field", ["link", "path"])
    def test_an_id_that_breaks_a_csv_field_is_refused(self, tmp_path, doc, field, new_id):
        """Path ids fill metrics.csv's active_path column and link ids its
        header names, so neither may hold a comma or a line break."""
        if field == "link":
            doc["links"][1]["id"] = doc["paths"][1]["link"] = new_id
        else:
            doc["paths"][1]["id"] = new_id
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(TopologyError, match=f"{field} entry: id .* comma or a line break"):
            load_topology(str(path))

    def test_unparseable_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(TopologyError, match="cannot parse"):
            load_topology(str(bad))

    def test_raw_channel_parameters_accepted(self, doc):
        doc["links"][0]["channel"] = {
            "sifted_rate_cps": 1200.0,
            "intrinsic_error": 0.025,
            "dark_rate_cps": 10.0,
            "noise_coupling_cps_per_mw": 500.0,
            "suppression_db": 30.0,
        }
        topo = parse_topology(doc)
        assert topo.link("link1").channel.sifted_rate_cps == 1200.0
        assert topo.link("link1").channel.knee_sharpness == 1.0
