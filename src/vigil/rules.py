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
import socket
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .config import REQUIRED, classes, fields_of, label, list_of, pair, parse, read_config
from .errors import ConfigError, DataError
from .geometry import (
    BoundingBox,
    FrameMeta,
    point_in_polygon,
    polygon_edges,
    polygon_is_simple,
    polygon_reach,
    segment_side,
)
from .tracker import Track, TrackStatus

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
    # box outside which contains() is False, and the edge table of the
    # exact test, both prepared once (see polygon_reach, polygon_edges)
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
        object.__setattr__(self, "reach", reach)
        object.__setattr__(self, "edges", polygon_edges(self.polygon))

    def contains(self, point) -> bool:
        """Edge-inclusive test; points outside ``reach`` skip the ray cast."""
        return (self.reach.contains(point)
                and point_in_polygon(point, self.polygon, self.edges))


@dataclass(frozen=True)
class TripLine:
    id: str
    p: tuple[float, float]
    q: tuple[float, float]
    direction: str = "any"  # any | left-to-right | right-to-left

    def __post_init__(self):
        object.__setattr__(self, "p", (float(self.p[0]), float(self.p[1])))
        object.__setattr__(self, "q", (float(self.q[0]), float(self.q[1])))
        if self.p == self.q:
            raise ConfigError(f"line {self.id!r}: endpoints coincide")
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
    comparator: str = ">="                  # Occupancy

    def __post_init__(self):
        if self.kind not in _KIND_FIELDS:
            raise ConfigError(f"rule {self.id!r}: unknown kind {self.kind!r}")
        for name in ("zone", "line", "threshold_ms", "min_count"):
            given = getattr(self, name) is not None
            if given != (name in _KIND_FIELDS[self.kind]):
                raise ConfigError(f"rule {self.id!r}: {self.kind} "
                                  f"{'takes no' if given else 'needs a'} {name}")
        if self.debounce_ms < 0:
            raise ConfigError(f"rule {self.id!r}: debounce_ms must be >= 0")
        if self.kind == "Loiter" and self.threshold_ms <= 0:
            raise ConfigError(f"rule {self.id!r}: Loiter needs threshold_ms > 0")
        if self.kind == "Occupancy":
            if self.min_count <= 0:
                raise ConfigError(f"rule {self.id!r}: Occupancy needs min_count > 0")
            if self.comparator not in _COMPARATORS:
                raise ConfigError(
                    f"rule {self.id!r}: comparator must be one of "
                    f"{sorted(_COMPARATORS)}")

    def applies_to(self, class_label: str) -> bool:
        if self.class_filter is not None and class_label not in self.class_filter:
            return False
        if self.zone is not None and self.zone.class_filter is not None:
            return class_label in self.zone.class_filter
        return True


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


def place(zones, tracks) -> dict:
    """track_id -> (class label, anchor, ids of the *zones* containing it)
    for the confirmed tracks in *tracks*, in their order.

    Rules and statistics over the same frame and zones read the frame from
    this record alone, so each anchor is read and tested once per zone.
    """
    placed = {}
    for track in tracks:
        if track.status is TrackStatus.CONFIRMED:
            anchor = track.bbox.anchor
            placed[track.track_id] = (
                track.class_label, anchor,
                frozenset(z.id for z in zones if z.contains(anchor)))
    return placed


def _distinct_zones(rules: list[Rule]) -> list[Zone]:
    """The rules' zones, one per id, in first-use order.

    Containment is keyed by zone id, so an id naming two different zones
    (polygon or class filter) is a ConfigError.
    """
    by_id: dict = {}
    for rule in rules:
        if rule.zone is None:
            continue
        known = by_id.setdefault(rule.zone.id, rule.zone)
        if known != rule.zone:
            raise ConfigError(
                f"rule {rule.id!r}: zone id {rule.zone.id!r} already names a "
                f"different zone (polygon or classes differ)")
    return list(by_id.values())


class RuleEngine:
    """Per-source rule state machine; evaluate() must see frames in order.

    ``prepared_zones`` holds the rules' distinct zones.  All rules of a
    frame read it from one :func:`place` record over them: ``evaluate``
    takes it as *placed* when the caller has already placed the frame's
    tracks over these zones (the pipeline shares it with
    :meth:`SceneStats.ingest`), and places *tracks* itself otherwise.

    Per-track state is one map, ``track_id -> (class label, anchor, zone
    ids)`` as :func:`place` gave it the last time the track was confirmed:
    Intrusion reads from it whether the track was in its zone, LineCross
    its last anchor.  All rules that apply to a track share the entry, so
    a track's class (which decides those rules) must stay fixed for its
    whole life, as :class:`~vigil.tracker.SortTracker` keeps it.  Loiter
    entry times and debounce times are kept per (rule, track).
    """

    def __init__(self, rules: list[Rule]):
        ids = [r.id for r in rules]
        if len(set(ids)) != len(ids):
            raise ConfigError("rule ids must be unique")
        self.rules = list(rules)
        self.prepared_zones = _distinct_zones(self.rules)
        self._last_frame: Optional[int] = None
        self._placed: dict = {}        # track_id -> place() record when last confirmed
        self._loiter_start: dict = {}  # (rule_id, track_id) -> entry ts
        self._last_emit: dict = {}     # (rule_id, track_id|None) -> ts
        self._occupancy_on: dict = {r.id: False for r in rules
                                    if r.kind == "Occupancy"}

    def evaluate(self, frame: FrameMeta, tracks: list[Track],
                 placed: Optional[dict] = None) -> list[AlertEvent]:
        if self._last_frame is not None and frame.frame_id <= self._last_frame:
            raise DataError(
                f"out-of-order frame_id {frame.frame_id} after {self._last_frame}")
        self._last_frame = frame.frame_id
        ts = frame.timestamp_ms
        if placed is None:
            placed = place(self.prepared_zones, tracks)
        before = self._placed
        events: list[AlertEvent] = []

        for rule in self.rules:
            relevant = [(tid, anchor, zone_ids)
                        for tid, (label, anchor, zone_ids) in placed.items()
                        if rule.applies_to(label)]
            if rule.kind == "Occupancy":
                self._occupancy(rule, frame, ts, relevant, events)
                continue
            for tid, anchor, zone_ids in relevant:
                prev = before.get(tid)
                if rule.kind == "LineCross":
                    direction = crossing(prev[1], anchor, rule.line) if prev else None
                    if direction and rule.line.direction in ("any", direction):
                        self._emit(events, rule, frame, ts, tid, {"direction": direction})
                elif rule.kind == "Intrusion":
                    zid = rule.zone.id
                    if zid in zone_ids and prev and zid not in prev[2]:
                        self._emit(events, rule, frame, ts, tid,
                                   {"anchor": [anchor[0], anchor[1]]})
                elif rule.zone.id in zone_ids:  # Loiter: continuous in-zone time
                    dwell = ts - self._loiter_start.setdefault((rule.id, tid), ts)
                    if dwell >= rule.threshold_ms:
                        self._emit(events, rule, frame, ts, tid, {"dwell_ms": dwell})
                else:
                    self._loiter_start.pop((rule.id, tid), None)

        before.update(placed)
        for ev in events:
            self._last_emit[(ev.rule_id, ev.track_id)] = ev.timestamp_ms
        return events

    def _emit(self, events, rule, frame, ts, track_id, payload):
        last = self._last_emit.get((rule.id, track_id))
        if last is None or ts - last >= rule.debounce_ms:
            events.append(AlertEvent(rule.id, track_id, frame.frame_id, ts,
                                     rule.kind, payload))

    def _occupancy(self, rule, frame, ts, relevant, events):
        count = sum(1 for _, _, zone_ids in relevant if rule.zone.id in zone_ids)
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
_ZONE = {"id": (label, None), "polygon": (list_of(pair), REQUIRED),
         "classes": (classes, None)}
_LINE = {**fields_of(TripLine), "id": (label, None)}
_RULE = fields_of(Rule, id=label, zone=_zone, line=_line, class_filter=classes)
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
    _distinct_zones(rules)  # fail on a reused zone id before any run starts
    return rules


def load_rules(path) -> list[Rule]:
    return rules_from_doc(read_config(path, "rules"))


# ---------------------------------------------------------------------------
# real-time delivery


class TcpAlertSink:
    """Line-delimited TCP mirror for alerts; lossy-by-buffering, never blocks.

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
