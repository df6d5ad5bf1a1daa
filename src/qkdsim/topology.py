"""Network description: switches, links, and pre-computed secure paths.

The topology is loaded once from a JSON file and treated as immutable.
Paths are ordered lists of cross-connects written in Alice-to-Bob
orientation (in_port faces Alice, out_port faces Bob); fiber cabling
between switches is implied by consecutive cross-connects.
resolve_active_path answers the one question the rest of the system
asks: which pre-computed path, if any, do the installed switch tables
light? A path is lit when each of its cross-connects is installed, in
either orientation, and is the only entry on either of its ports.
The module also holds what every loader shares: the validators checked
and is_number, and the one reader of input files (read_text,
parse_json, read_json), which refuses a file that is not UTF-8 or not
JSON with the caller's error, naming the file.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from itertools import combinations
from typing import Iterable, Optional

from .physics import CalibrationAnchors, ChannelParams, calibrate

LINK_KINDS = ("coupler", "mcf", "multihop")

Port = tuple[str, int]

NUMBER = (int, float)
_FLOAT_MAX = sys.float_info.max
_KIND_NAMES = {int: "an integer", NUMBER: "a number", str: "a string",
               list: "a list", Mapping: "an object"}


class TopologyError(ValueError):
    """Malformed or internally inconsistent topology file."""


@dataclass(frozen=True)
class CrossConnect:
    switch: str
    in_port: int
    out_port: int

    def __post_init__(self):
        if self.in_port == self.out_port:
            raise TopologyError(
                f"cross-connect on {self.switch} maps port {self.in_port} to itself"
            )


@dataclass(frozen=True)
class LinkSpec:
    link_id: str
    kind: str
    hop_count: int
    channel: ChannelParams


@dataclass(frozen=True)
class PathSpec:
    path_id: str
    link_id: str
    cross_connects: tuple[CrossConnect, ...]

    def port_set(self) -> set[Port]:
        return {(cc.switch, port) for cc in self.cross_connects
                for port in (cc.in_port, cc.out_port)}


@dataclass(frozen=True)
class Topology:
    switches: dict[str, int]  # switch id -> port count
    links: tuple[LinkSpec, ...]
    paths: tuple[PathSpec, ...]  # order is the QPM selection order
    alice_port: Port
    bob_port: Port
    # Lookups by id, built once from links and paths.
    _links: dict[str, LinkSpec] = field(init=False, repr=False, compare=False)
    _paths: dict[str, PathSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_links", {link.link_id: link for link in self.links})
        object.__setattr__(self, "_paths", {path.path_id: path for path in self.paths})

    def link(self, link_id: str) -> LinkSpec:
        return self._links[link_id]

    def path(self, path_id: str) -> PathSpec:
        return self._paths[path_id]

    def link_for_path(self, path_id: str) -> LinkSpec:
        return self.link(self.path(path_id).link_id)

    def path_ids(self) -> list[str]:
        return [p.path_id for p in self.paths]


def checked(data, key: str, kind, where: str, error: type = TopologyError,
            default=MISSING):
    """data[key] checked to be a kind (default if missing), else raise error."""
    if not isinstance(data, Mapping):
        raise error(f"{where} must be an object")
    if key not in data:
        if default is MISSING:
            raise error(f"{where}: missing required field '{key}'")
        return default
    value = data[key]
    if not (is_number(value, kind) if kind in (int, NUMBER) else isinstance(value, kind)):
        raise error(f"{where}: {key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def is_number(value, kind=NUMBER) -> bool:
    """value is of kind (int or NUMBER), not a bool, and finite as a float."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and -_FLOAT_MAX <= value <= _FLOAT_MAX)


def read_text(path: str, error: type) -> str:
    """The file at path read as UTF-8 with universal newlines; a file that
    is not UTF-8 raises error naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"cannot parse {path}: {exc}") from None


def parse_json(text: str, where: str, error: type):
    """text parsed as JSON; text that is not JSON, or is nested too deeply
    to parse, raises error naming where."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"cannot parse {where}: {exc}") from None


def read_json(path: str, error: type):
    """The JSON file at path, refused as read_text and parse_json refuse it."""
    return parse_json(read_text(path, error), path, error)


def _numbers(cls, data, where: str) -> dict:
    """Keyword arguments for dataclass cls, read as numbers from data."""
    return {f.name: checked(data, f.name, NUMBER, where, default=f.default)
            for f in fields(cls)}


def _parse_channel(data: Mapping, where: str) -> ChannelParams:
    if "calibrate" in data:
        anchors = checked(data, "calibrate", Mapping, where)
        return calibrate(CalibrationAnchors(**_numbers(CalibrationAnchors, anchors, where)))
    return ChannelParams(**_numbers(ChannelParams, data, where))


def _port(raw, switches: Mapping[str, int], where: str) -> Port:
    """raw checked to be a [switch, port] pair that exists in switches."""
    if len(raw) != 2:
        raise TopologyError(f"{where} must be a [switch, port] pair")
    sw, port = raw
    if not isinstance(sw, str) or sw not in switches:
        raise TopologyError(f"{where} references unknown switch {sw!r}")
    if not is_number(port, int) or not 0 <= port < switches[sw]:
        raise TopologyError(f"{where} port {port} out of range on switch '{sw}'")
    return (sw, port)


def _field_id(entry, where: str) -> str:
    """entry["id"], checked to be a string that fits in one metrics.csv field:
    path ids fill its active_path column and link ids its header names."""
    value = checked(entry, "id", str, where)
    if "," in value or "".join(value.splitlines()) != value:
        raise TopologyError(f"{where}: id {value!r} holds a comma or a line break")
    return value


def parse_topology(data: Mapping) -> Topology:
    """Validate a parsed topology document and build the immutable value."""
    switches: dict[str, int] = {}
    for entry in checked(data, "switches", list, "topology"):
        sw_id = checked(entry, "id", str, "switch entry")
        ports = checked(entry, "ports", int, f"switch '{sw_id}'")
        if sw_id in switches:
            raise TopologyError(f"duplicate switch id '{sw_id}'")
        if ports < 1:
            raise TopologyError(f"switch '{sw_id}' must have a positive port count")
        switches[sw_id] = ports

    alice_port, bob_port = (_port(checked(data, name, list, "topology"), switches, name)
                            for name in ("alice_port", "bob_port"))
    if alice_port == bob_port:
        raise TopologyError("alice_port and bob_port must differ")

    links: dict[str, LinkSpec] = {}
    for entry in checked(data, "links", list, "topology"):
        link_id = _field_id(entry, "link entry")
        where = f"link '{link_id}'"
        kind = checked(entry, "kind", str, where)
        hop_count = checked(entry, "hop_count", int, where)
        if link_id in links:
            raise TopologyError(f"duplicate link id '{link_id}'")
        if kind not in LINK_KINDS:
            raise TopologyError(f"link '{link_id}' has unknown kind '{kind}'")
        if kind == "multihop":
            if hop_count < 2:
                raise TopologyError(f"multihop link '{link_id}' needs hop_count >= 2")
        elif hop_count != 1:
            raise TopologyError(f"{kind} link '{link_id}' must have hop_count = 1")
        try:
            channel = _parse_channel(checked(entry, "channel", Mapping, where), "channel")
        except ValueError as exc:
            raise TopologyError(f"{where}: {exc}") from exc
        links[link_id] = LinkSpec(link_id=link_id, kind=kind, hop_count=hop_count,
                                  channel=channel)

    paths: dict[str, PathSpec] = {}
    raw_paths = checked(data, "paths", list, "topology")
    if not raw_paths:
        raise TopologyError("topology must define at least one path")
    for entry in raw_paths:
        path_id = _field_id(entry, "path entry")
        where = f"path '{path_id}'"
        link_id = checked(entry, "link", str, where)
        if path_id in paths:
            raise TopologyError(f"duplicate path id '{path_id}'")
        if link_id not in links:
            raise TopologyError(f"path '{path_id}' references unknown link '{link_id}'")
        raw_ccs = checked(entry, "cross_connects", list, where)
        if not raw_ccs:
            raise TopologyError(f"path '{path_id}' has no cross-connects")
        ccs: list[CrossConnect] = []
        seen: set[Port] = set()  # one port drives at most one cross-connect in a path
        for raw_cc in raw_ccs:
            cc_where = f"{where} cross-connect"
            cc = CrossConnect(switch=checked(raw_cc, "switch", str, cc_where),
                              in_port=checked(raw_cc, "in_port", int, cc_where),
                              out_port=checked(raw_cc, "out_port", int, cc_where))
            for port in ((cc.switch, cc.in_port), (cc.switch, cc.out_port)):
                if _port(port, switches, where) in seen:
                    raise TopologyError(f"path '{path_id}' reuses port {port}")
                seen.add(port)
            ccs.append(cc)
        # Anchoring and orientation: first cross-connect leaves the Alice
        # QKD port, last one lands on the Bob QKD port.
        if (ccs[0].switch, ccs[0].in_port) != alice_port:
            raise TopologyError(f"path '{path_id}' does not start at alice_port")
        if (ccs[-1].switch, ccs[-1].out_port) != bob_port:
            raise TopologyError(f"path '{path_id}' does not end at bob_port")
        paths[path_id] = PathSpec(path_id=path_id, link_id=link_id,
                                  cross_connects=tuple(ccs))

    # Parallel paths may meet only at the QKD endpoint ports.
    endpoint_ports = {alice_port, bob_port}
    for a, b in combinations(paths.values(), 2):
        shared = (a.port_set() & b.port_set()) - endpoint_ports
        if shared:
            raise TopologyError(
                f"paths '{a.path_id}' and '{b.path_id}' share port {sorted(shared)[0]}"
            )

    longest_single_hop = max((len(p.cross_connects) for p in paths.values()
                              if links[p.link_id].kind != "multihop"), default=0)
    for path in paths.values():
        if (links[path.link_id].kind == "multihop"
                and len(path.cross_connects) <= longest_single_hop):
            raise TopologyError(
                f"multihop path '{path.path_id}' must use more cross-connects "
                "than any single-hop path"
            )

    topo = Topology(
        switches=switches,
        links=tuple(links.values()),
        paths=tuple(paths.values()),
        alice_port=alice_port,
        bob_port=bob_port,
    )

    # Round trip: installing exactly one path's cross-connects must light
    # exactly that path.
    for path in topo.paths:
        states = {sw: set() for sw in switches}
        for cc in path.cross_connects:
            states[cc.switch].add((cc.in_port, cc.out_port))
        lit = resolve_active_path(topo, states)
        if lit != path.path_id:
            raise TopologyError(f"installing path '{path.path_id}' alone lights path '{lit}'")
    return topo


def load_topology(file_path: str) -> Topology:
    """Load and validate a topology JSON file."""
    return parse_topology(read_json(file_path, TopologyError))


def resolve_active_path(
    topology: Topology,
    switch_states: Mapping[str, Iterable[tuple[int, int]]],
) -> Optional[str]:
    """Identify which pre-computed path is lit, if any.

    switch_states maps each switch id to its installed cross-connect
    entries as (in_port, out_port) pairs. A path is lit when each of its
    cross-connects is installed, in either orientation, and is the only
    entry on either of its ports. Returns the first lit path in
    topology.paths order, or None when no complete unambiguous circuit
    exists. Every path leaves alice_port and paths share no other port
    but bob_port, so at most one path is ever lit.
    """
    # port -> the port its only entry bridges it to; None when shared.
    bridges: dict[Port, Optional[int]] = {}
    for sw in topology.switches:
        for in_port, out_port in switch_states[sw]:
            for port, other in (((sw, in_port), out_port), ((sw, out_port), in_port)):
                bridges[port] = None if port in bridges else other
    for path in topology.paths:
        if all(bridges.get((cc.switch, cc.in_port)) == cc.out_port
               and bridges.get((cc.switch, cc.out_port)) == cc.in_port
               for cc in path.cross_connects):
            return path.path_id
    return None
