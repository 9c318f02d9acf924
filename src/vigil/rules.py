"""Business rules over confirmed tracks: intrusion, line crossing,
loitering, and occupancy, with per-rule debounced alert emission.

Geometry uses the same anchor convention as the analytics layer (bottom
center of the box).  Intrusion is edge-triggered on the outside-to-inside
transition; a track first observed already inside does not fire until it
leaves and re-enters.  Loitering accrues while the anchor stays inside
continuously and fires once the dwell reaches the threshold, re-firing
only after the debounce window.  Occupancy compares the in-zone track
count against a threshold and fires on the frame the comparison first
becomes true, re-arming when it stops holding.
"""

from __future__ import annotations

import json
import logging
import math
import socket
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from . import config
from .config import REQUIRED, fields_of, list_of, pair, parse, read_config, string
from .errors import ConfigError, next_frame
from .geometry import (
    BoundingBox,
    FrameMeta,
    point_in_polygon,
    polygon_edges,
    polygon_is_simple,
    polygon_reach,
    segment_side,
)
from .tracker import TrackStatus

log = logging.getLogger(__name__)

DEFAULT_DEBOUNCE_MS = 30_000

_COMPARATORS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
}


@dataclass(frozen=True)
class Zone:
    id: str
    polygon: tuple  # ((x, y), ...) with >= 3 vertices
    class_filter: Optional[frozenset] = None
    # box outside which point_in_polygon is False, and the edge table of
    # the exact test, both prepared once (see polygon_reach, polygon_edges)
    reach: BoundingBox = field(init=False, repr=False, compare=False)
    edges: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "polygon",
                           tuple((float(x), float(y)) for x, y in self.polygon))
        if len(self.polygon) < 3:
            raise ConfigError(f"zone {self.id!r}: polygon needs >= 3 vertices")
        try:
            reach = polygon_reach(self.polygon)
        except ValueError as exc:
            raise ConfigError(f"zone {self.id!r}: {exc}") from None
        if not polygon_is_simple(list(self.polygon)):
            raise ConfigError(f"zone {self.id!r}: polygon self-intersects")
        try:
            edges = polygon_edges(self.polygon)
        except OverflowError:  # an edge's squared length
            raise ConfigError(f"zone {self.id!r}: polygon is too large") from None
        object.__setattr__(self, "reach", reach)
        object.__setattr__(self, "edges", edges)


class ZoneSet:
    """Zones prepared to be placed together: ``zones``, one per id in
    first-use order, which :func:`place` tests in that order.

    Containment is keyed by zone id, so an id naming two different zones
    (polygon or class filter) is a ConfigError.
    """

    __slots__ = ("zones",)

    def __init__(self, zones):
        by_id: dict = {}
        for zone in zones:
            if by_id.setdefault(zone.id, zone) != zone:
                raise ConfigError(f"zone id {zone.id!r} names two different zones "
                                  f"(polygon or classes differ)")
        self.zones = tuple(by_id.values())


@dataclass(frozen=True)
class TripLine:
    id: str
    p: tuple[float, float]
    q: tuple[float, float]
    direction: str = "any"  # any | left-to-right | right-to-left

    def __post_init__(self):
        object.__setattr__(self, "p", (float(self.p[0]), float(self.p[1])))
        object.__setattr__(self, "q", (float(self.q[0]), float(self.q[1])))
        dx, dy = self.q[0] - self.p[0], self.q[1] - self.p[1]
        length2 = dx * dx + dy * dy  # crossing() divides by it
        if length2 == 0.0:
            raise ConfigError(f"line {self.id!r}: endpoints coincide or are too close")
        if not math.isfinite(length2):  # crossing() would never fire
            raise ConfigError(f"line {self.id!r}: endpoints are too far apart")
        if self.direction not in ("any", "left-to-right", "right-to-left"):
            raise ConfigError(f"line {self.id!r}: bad direction {self.direction!r}")


def crossing(prev, curr, line: TripLine) -> Optional[str]:
    """Direction ('left-to-right' / 'right-to-left') if the motion segment
    crosses the finite trip line, else None.

    Requires strictly opposite signed sides of the infinite line, plus the
    intersection point falling within the segment (endpoints inclusive).
    """
    s_prev = segment_side(line.p, line.q, prev)
    s_curr = segment_side(line.p, line.q, curr)
    if s_prev == 0.0 or s_curr == 0.0 or (s_prev > 0) == (s_curr > 0):
        return None
    # intersection parameter along p->q, from similar triangles
    t = s_prev / (s_prev - s_curr)  # position along the motion, in (0, 1)
    ix = prev[0] + t * (curr[0] - prev[0])
    iy = prev[1] + t * (curr[1] - prev[1])
    px, py = line.p
    qx, qy = line.q
    dx, dy = qx - px, qy - py
    u = ((ix - px) * dx + (iy - py) * dy) / (dx * dx + dy * dy)
    if not 0.0 <= u <= 1.0:
        return None
    # positive side = left of the directed line p->q
    return "left-to-right" if s_prev > 0 else "right-to-left"


# the optional rule fields that each kind reads, and so needs; a field
# its kind does not read is an error, not dropped silently
_KIND_FIELDS = {"Intrusion": ("zone",), "LineCross": ("line",),
                "Loiter": ("zone", "threshold_ms"), "Occupancy": ("zone", "min_count")}


@dataclass(frozen=True)
class Rule:
    id: str
    kind: str  # Intrusion | LineCross | Loiter | Occupancy
    zone: Optional[Zone] = None
    line: Optional[TripLine] = None
    class_filter: Optional[frozenset] = None
    debounce_ms: int = DEFAULT_DEBOUNCE_MS
    threshold_ms: Optional[int] = None      # Loiter
    min_count: Optional[int] = None         # Occupancy
    comparator: Optional[str] = None        # Occupancy; ">=" when not given
    # the class labels the rule applies to, its own filter intersected with
    # its zone's, or None for all labels; worked out once here
    classes: Optional[frozenset] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        classes = self.class_filter
        zone_classes = self.zone.class_filter if self.zone is not None else None
        if zone_classes is not None:
            classes = zone_classes if classes is None else classes & zone_classes
        object.__setattr__(self, "classes", classes)
        if self.kind not in _KIND_FIELDS:
            raise ConfigError(f"rule {self.id!r}: unknown kind {self.kind!r}")
        for name in ("zone", "line", "threshold_ms", "min_count"):
            given = getattr(self, name) is not None
            if given != (name in _KIND_FIELDS[self.kind]):
                raise ConfigError(f"rule {self.id!r}: {self.kind} "
                                  f"{'takes no' if given else 'needs a'} {name}")
        if self.comparator is not None and self.kind != "Occupancy":
            raise ConfigError(f"rule {self.id!r}: {self.kind} takes no comparator")
        if self.debounce_ms < 0:
            raise ConfigError(f"rule {self.id!r}: debounce_ms must be >= 0")
        if self.kind == "Loiter" and self.threshold_ms <= 0:
            raise ConfigError(f"rule {self.id!r}: Loiter needs threshold_ms > 0")
        if self.kind == "Occupancy":
            if self.min_count <= 0:
                raise ConfigError(f"rule {self.id!r}: Occupancy needs min_count > 0")
            if self.comparator is None:
                object.__setattr__(self, "comparator", ">=")
            if self.comparator not in _COMPARATORS:
                raise ConfigError(
                    f"rule {self.id!r}: comparator must be one of "
                    f"{sorted(_COMPARATORS)}")


@dataclass(frozen=True)
class AlertEvent:
    rule_id: str
    track_id: Optional[int]  # None for Occupancy
    frame_id: int
    timestamp_ms: int
    kind: str
    payload: dict = field(default_factory=dict)


def alert_record(event: AlertEvent) -> dict:
    """One JSONL output row (fixed key order)."""
    return {
        "rule_id": event.rule_id,
        "track_id": event.track_id,
        "frame_id": event.frame_id,
        "timestamp_ms": event.timestamp_ms,
        "kind": event.kind,
        "payload": event.payload,
    }


def place(zones: ZoneSet, tracks) -> dict:
    """track_id -> (class label, anchor, ids of the *zones* containing it)
    for the confirmed tracks in *tracks*, in their order.

    A track is read through ``track_id``, ``class_label``, ``status`` and
    ``corners``, its box as [x1, y1, x2, y2] (see
    :class:`~vigil.tracker.Track`); its anchor is the box's bottom center,
    ``(0.5 * (x1 + x2), y2)``, as :attr:`BoundingBox.anchor` computes it.
    Each anchor is tested against the zones in order: first the zone's
    ``reach`` box (edge-inclusive), then, only inside it, the ray cast.
    Rules and statistics over the same frame and zones read the frame from
    this record alone, so each anchor is read once and each (track, zone)
    pair is tested once.
    """
    placed = {}
    for t in tracks:
        if t.status is not TrackStatus.CONFIRMED:
            continue
        x1, _, x2, y2 = t.corners
        anchor = x, y = (0.5 * (x1 + x2), y2)
        ids = []
        for zone in zones.zones:
            reach = zone.reach
            if (reach.x1 <= x <= reach.x2 and reach.y1 <= y <= reach.y2
                    and point_in_polygon(anchor, zone.polygon, zone.edges)):
                ids.append(zone.id)
        placed[t.track_id] = (t.class_label, anchor, frozenset(ids))
    return placed


class RuleEngine:
    """Per-source rule state machine; evaluate() must see frames in order.

    ``prepared_zones`` is the :class:`ZoneSet` of the rules' zones.  All
    rules of a frame read it from one :func:`place` record over them, which
    ``evaluate`` takes as *placed*.

    A rule reads only the tracks whose class label is in its ``classes``
    (every track when that is None).  Each frame's record is read once
    into per-zone member lists, the (track id, label, anchor) of the
    frame's tracks in each zone id in track order, which Intrusion, Loiter
    and Occupancy read instead of every track.  LineCross reads the record
    itself: it works out the sides of a track's last and current anchors
    as :func:`~vigil.geometry.segment_side` does and calls
    :func:`crossing` only when their signs are strictly opposite.

    *before* maps each track id to the :func:`place` record of the last
    frame it was placed in (:class:`~vigil.pipeline.FrameLoop` passes the
    previous frame's; a caller whose tracks skip frames, a map updated with
    each frame's): Intrusion reads whether the track was in its zone,
    LineCross its last anchor.  A track's class must stay fixed, as
    :class:`~vigil.tracker.SortTracker` keeps it.  The engine keeps only
    rule state: Loiter entry times per rule and track, debounce times per
    (rule, track) and Occupancy flags.  Events come in rule, then track order.
    """

    def __init__(self, rules: list[Rule]):
        ids = [r.id for r in rules]
        if len(set(ids)) != len(ids):
            raise ConfigError("rule ids must be unique")
        self.rules = list(rules)
        self.prepared_zones = ZoneSet(r.zone for r in rules if r.zone is not None)
        self._last_frame: Optional[int] = None
        self._loiter_start: dict = {r.id: {} for r in rules
                                    if r.kind == "Loiter"}  # rule_id -> {track_id: entry ts}
        self._last_emit: dict = {}     # (rule_id, track_id|None) -> ts
        self._occupancy_on: dict = {r.id: False for r in rules
                                    if r.kind == "Occupancy"}

    def evaluate(self, frame: FrameMeta, placed: dict, before: dict) -> list[AlertEvent]:
        """The frame's alerts from *placed*, its tracks' place() over ``prepared_zones``."""
        self._last_frame = next_frame(self._last_frame, frame.frame_id)
        ts = frame.timestamp_ms
        members: dict = {}  # zone id -> (track id, label, anchor) of its tracks, in order
        for tid, (label, anchor, zone_ids) in placed.items():
            for zid in zone_ids:
                members.setdefault(zid, []).append((tid, label, anchor))
        events: list[AlertEvent] = []

        for rule in self.rules:
            kind, classes = rule.kind, rule.classes
            if kind == "LineCross":
                line = rule.line
                (px, py), (qx, qy) = line.p, line.q
                dx, dy = qx - px, qy - py
                for tid, (label, anchor, _) in placed.items():
                    prev = before.get(tid)
                    if not prev or (classes is not None and label not in classes):
                        continue
                    # both sides as segment_side computes them, inlined (two
                    # calls per rule and track cost more than the arithmetic);
                    # only strictly opposite signs can cross, and a product
                    # of two sides of 1e-200 would underflow to 0
                    (x0, y0), (x1, y1) = prev[1], anchor
                    s0 = dx * (y0 - py) - dy * (x0 - px)
                    s1 = dx * (y1 - py) - dy * (x1 - px)
                    if s0 < 0.0 < s1 or s1 < 0.0 < s0:
                        direction = crossing(prev[1], anchor, line)
                        if direction and line.direction in ("any", direction):
                            self._emit(events, rule, frame, ts, tid,
                                       {"direction": direction})
                continue
            zid = rule.zone.id
            inside = members.get(zid, ())
            if classes is not None:
                inside = [m for m in inside if m[1] in classes]
            if kind == "Occupancy":
                self._occupancy(rule, frame, ts, len(inside), events)
            elif kind == "Intrusion":
                for tid, _, anchor in inside:
                    prev = before.get(tid)
                    if prev and zid not in prev[2]:
                        self._emit(events, rule, frame, ts, tid,
                                   {"anchor": [anchor[0], anchor[1]]})
            else:  # Loiter: continuous in-zone time
                starts = self._loiter_start[rule.id]
                for tid, _, _ in inside:
                    dwell = ts - starts.setdefault(tid, ts)
                    if dwell >= rule.threshold_ms:
                        self._emit(events, rule, frame, ts, tid, {"dwell_ms": dwell})
                for tid in starts.keys() & placed.keys() if starts else ():
                    if zid not in placed[tid][2]:  # starts holds only the rule's classes
                        del starts[tid]  # a track seen outside has left

        return events

    def _emit(self, events, rule, frame, ts, track_id, payload):
        # a (rule, track) emits at most once per frame, so no later check
        # in this frame reads the time stored here
        key = (rule.id, track_id)
        last = self._last_emit.get(key)
        if last is None or ts - last >= rule.debounce_ms:
            events.append(AlertEvent(rule.id, track_id, frame.frame_id, ts,
                                     rule.kind, payload))
            self._last_emit[key] = ts

    def _occupancy(self, rule, frame, ts, count, events):
        holds = _COMPARATORS[rule.comparator](count, rule.min_count)
        armed = not self._occupancy_on[rule.id]
        self._occupancy_on[rule.id] = holds
        if holds and armed:
            self._emit(events, rule, frame, ts, None, {"count": count})


# ---------------------------------------------------------------------------
# config loading


def _zone(value, where) -> dict:
    """A zone object, or its polygon alone ([[x, y], ...])."""
    return parse({"polygon": value} if isinstance(value, list) else value, _ZONE, where)


def _line(value, where) -> dict:
    """A line object, or its endpoints alone ([[x1, y1], [x2, y2]])."""
    if isinstance(value, list):
        if len(value) != 2:
            raise ConfigError(f"{where} must be [[x1, y1], [x2, y2]] or an object")
        value = {"p": value[0], "q": value[1]}
    return parse(value, _LINE, where)


# a zone's or line's id defaults to "<rule id>.zone" / "<rule id>.line"
_ZONE = {"id": (config.label, None), "polygon": (list_of(pair), REQUIRED),
         "classes": (config.classes, None)}
_LINE = {**fields_of(TripLine), "id": (config.label, None)}
_RULE = fields_of(Rule, id=config.label, zone=_zone, line=_line, class_filter=config.classes,
                  comparator=string)
_RULE["classes"] = _RULE.pop("class_filter")


def _rule(value, where) -> Rule:
    fields = parse(value, _RULE, where)
    rid, zone, line = fields["id"], fields.pop("zone"), fields.pop("line")
    if zone is not None:
        zone = Zone(zone["id"] or f"{rid}.zone", zone["polygon"], zone["classes"])
    if line is not None:
        line = TripLine(**dict(line, id=line["id"] or f"{rid}.line"))
    return Rule(zone=zone, line=line, class_filter=fields.pop("classes"), **fields)


def rules_from_doc(doc, where: str = "rules") -> list[Rule]:
    rules = list_of(_rule)(doc, where)
    ZoneSet(r.zone for r in rules if r.zone is not None)  # fails on a reused zone id
    return rules


def load_rules(path) -> list[Rule]:
    return rules_from_doc(read_config(path, "rules"))


# ---------------------------------------------------------------------------
# real-time delivery


class TcpAlertSink:
    """Line-delimited TCP mirror for alerts; lossy-by-buffering.

    It can block the caller: while the receiver is unreachable, each
    `send` makes one `create_connection` attempt, which may take up to
    `timeout`, and a receiver that stops reading can hold each `sendall`
    as long.  A line whose `sendall` times out is resent whole on the next
    connection, so the receiver may see part of it twice.  ROADMAP item 3
    (a reconnect backoff, sends that handle partial writes) fixes both.

    Failed sends stash lines in a bounded deque and retry on the next
    call; connection errors are logged, not raised: the receiver being
    unreachable is logged once per outage (again only after a connection
    has succeeded in between).  When the buffer is
    full the oldest line is dropped and counted in `dropped`: the first
    drop logs a warning.  `close()` tries once more to send the buffer,
    counts what is left in `dropped` and logs the total.
    """

    def __init__(self, host: str, port: int, buffer_limit: int = 10_000,
                 timeout: float = 0.25):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.dropped = 0
        self._reachable = True  # False from a failed connect to the next success
        self._buffer: deque = deque(maxlen=buffer_limit)
        self._sock: Optional[socket.socket] = None

    def _connect(self) -> bool:
        if self._sock is not None:
            return True
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            if self._reachable:
                log.warning("alert sink %s:%d unreachable: %s",
                            self.host, self.port, exc)
            self._reachable = False
            return False
        self._reachable = True
        return True

    def send(self, event: AlertEvent) -> None:
        line = json.dumps(alert_record(event)) + "\n"
        if len(self._buffer) == self._buffer.maxlen:
            self.dropped += 1  # the append below evicts the oldest line
            if self.dropped == 1:
                log.warning("alert sink %s:%d buffer full (%d alerts), "
                            "dropping the oldest", self.host, self.port,
                            self._buffer.maxlen)
        self._buffer.append(line.encode("utf-8"))
        self._flush()

    def _flush(self) -> None:
        """Send buffered lines in order until the buffer empties or a send fails."""
        if not self._connect():
            return
        try:
            while self._buffer:
                self._sock.sendall(self._buffer[0])
                self._buffer.popleft()
        except OSError as exc:
            log.warning("alert sink send failed, buffering: %s", exc)
            self._disconnect()

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Try once to send what is still buffered, then disconnect.

        The attempt uses the open socket or one connection attempt bounded
        by `timeout`; lines it cannot send are counted in `dropped`.
        """
        if self._buffer:
            self._flush()
        self._disconnect()
        self.dropped += len(self._buffer)
        self._buffer.clear()
        if self.dropped:
            log.warning("alert sink %s:%d dropped %d alerts in total",
                        self.host, self.port, self.dropped)
