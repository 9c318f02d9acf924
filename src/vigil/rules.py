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

from .config import check_keys, read_config
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
        if self.kind not in ("Intrusion", "LineCross", "Loiter", "Occupancy"):
            raise ConfigError(f"rule {self.id!r}: unknown kind {self.kind!r}")
        if self.kind == "LineCross":
            if self.line is None:
                raise ConfigError(f"rule {self.id!r}: LineCross needs a line")
        elif self.zone is None:
            raise ConfigError(f"rule {self.id!r}: {self.kind} needs a zone")
        if self.debounce_ms < 0:
            raise ConfigError(f"rule {self.id!r}: debounce_ms must be >= 0")
        if self.kind == "Loiter" and (self.threshold_ms is None
                                      or self.threshold_ms <= 0):
            raise ConfigError(f"rule {self.id!r}: Loiter needs threshold_ms > 0")
        if self.kind == "Occupancy":
            if self.min_count is None or self.min_count <= 0:
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
    """track_id -> (anchor, ids of the *zones* containing it) for each
    confirmed track in *tracks*.

    Each track's anchor is read once and tested once against each zone;
    rules and statistics over the same frame and zones share the result.
    """
    placed = {}
    for track in tracks:
        if track.status is TrackStatus.CONFIRMED:
            anchor = track.bbox.anchor
            placed[track.track_id] = (
                anchor, frozenset(z.id for z in zones if z.contains(anchor)))
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
    frame share one :func:`place` result over them: ``evaluate`` takes it
    as *placed* when the caller has already placed the frame's tracks over
    these zones (the pipeline shares it with :meth:`SceneStats.ingest`),
    and calls :func:`place` itself when *placed* is omitted.
    """

    def __init__(self, rules: list[Rule]):
        ids = [r.id for r in rules]
        if len(set(ids)) != len(ids):
            raise ConfigError("rule ids must be unique")
        self.rules = list(rules)
        self.prepared_zones = _distinct_zones(self.rules)
        self._last_frame: Optional[int] = None
        self._inside: dict = {}        # (rule_id, track_id) -> bool
        self._prev_anchor: dict = {}   # (rule_id, track_id) -> last anchor
        self._loiter_start: dict = {}  # (rule_id, track_id) -> entry ts
        self._last_emit: dict = {}     # (rule_id, track_id|None) -> ts
        self._occupancy_on: dict = {r.id: False for r in rules
                                    if r.kind == "Occupancy"}

    def zones(self) -> list[tuple[str, list]]:
        """(zone_id, polygon) pairs for dwell attribution downstream."""
        return [(zone.id, list(zone.polygon)) for zone in self.prepared_zones]

    def _debounced(self, key, ts: int, debounce_ms: int) -> bool:
        last = self._last_emit.get(key)
        return last is not None and ts - last < debounce_ms

    def evaluate(self, frame: FrameMeta, tracks: list[Track],
                 placed: Optional[dict] = None) -> list[AlertEvent]:
        if self._last_frame is not None and frame.frame_id <= self._last_frame:
            raise DataError(
                f"out-of-order frame_id {frame.frame_id} after {self._last_frame}")
        self._last_frame = frame.frame_id
        ts = frame.timestamp_ms
        confirmed = [t for t in tracks if t.status is TrackStatus.CONFIRMED]
        if placed is None:
            placed = place(self.prepared_zones, confirmed)
        events: list[AlertEvent] = []

        for rule in self.rules:
            relevant = [t for t in confirmed if rule.applies_to(t.class_label)]
            if rule.kind == "Occupancy":
                self._occupancy(rule, frame, ts, relevant, placed, events)
                continue
            for track in relevant:
                anchor, zone_ids = placed[track.track_id]
                key = (rule.id, track.track_id)
                if rule.kind == "LineCross":
                    self._line_cross(rule, frame, ts, track, anchor, key, events)
                else:
                    self._zone_rule(rule, frame, ts, track, anchor,
                                    rule.zone.id in zone_ids, key, events)

        for ev in events:
            self._last_emit[(ev.rule_id, ev.track_id)] = ev.timestamp_ms
        return events

    def _emit(self, events, rule, frame, ts, track_id, payload):
        if self._debounced((rule.id, track_id), ts, rule.debounce_ms):
            return
        events.append(AlertEvent(rule.id, track_id, frame.frame_id, ts,
                                 rule.kind, payload))

    def _zone_rule(self, rule, frame, ts, track, anchor, inside, key, events):
        was_inside = self._inside.get(key)
        self._inside[key] = inside

        if rule.kind == "Intrusion":
            if inside and was_inside is False:
                self._emit(events, rule, frame, ts, track.track_id,
                           {"anchor": [anchor[0], anchor[1]]})
            return

        # Loiter: track continuous in-zone time
        if inside:
            start = self._loiter_start.setdefault(key, ts)
            dwell = ts - start
            if dwell >= rule.threshold_ms:
                self._emit(events, rule, frame, ts, track.track_id,
                           {"dwell_ms": dwell})
        else:
            self._loiter_start.pop(key, None)

    def _line_cross(self, rule, frame, ts, track, anchor, key, events):
        prev = self._prev_anchor.get(key)
        self._prev_anchor[key] = anchor
        if prev is None:
            return
        direction = crossing(prev, anchor, rule.line)
        if direction is None:
            return
        if rule.line.direction != "any" and direction != rule.line.direction:
            return
        self._emit(events, rule, frame, ts, track.track_id,
                   {"direction": direction})

    def _occupancy(self, rule, frame, ts, tracks, placed, events):
        count = sum(1 for t in tracks if rule.zone.id in placed[t.track_id][1])
        holds = _COMPARATORS[rule.comparator](count, rule.min_count)
        armed = not self._occupancy_on[rule.id]
        self._occupancy_on[rule.id] = holds
        if holds and armed:
            self._emit(events, rule, frame, ts, None, {"count": count})


# ---------------------------------------------------------------------------
# config loading


_RULE_KEYS = {"id", "kind", "zone", "line", "classes", "debounce_ms",
              "threshold_ms", "min_count", "comparator"}
_ZONE_KEYS = {"id", "polygon", "classes"}
_LINE_KEYS = {"id", "p", "q", "direction"}


def _point(value, where: str) -> tuple:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                       for c in value)):
        raise ConfigError(f"{where}: a point must be [x, y] with numeric x and y")
    return (value[0], value[1])


def _id(doc: dict, default: str, where: str) -> str:
    value = doc.get("id", default)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: id must be a non-empty string")
    return value


def _classes(value, where: str) -> Optional[frozenset]:
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(c, str) and c for c in value):
        raise ConfigError(f"{where}: classes must be a list of class labels")
    return frozenset(value) or None


def _parse_zone(doc, rule_id: str) -> Zone:
    where = f"rule {rule_id!r} zone"
    if isinstance(doc, dict):
        check_keys(doc, _ZONE_KEYS, where)
        zid = _id(doc, f"{rule_id}.zone", where)
        poly = doc.get("polygon")
        filt = _classes(doc.get("classes"), where)
    else:
        zid, poly, filt = f"{rule_id}.zone", doc, None
    if not isinstance(poly, list):
        raise ConfigError(f"{where}: polygon must be [[x,y],...]")
    return Zone(zid, tuple(_point(p, where) for p in poly), filt)


def _parse_line(doc, rule_id: str) -> TripLine:
    """Either [[x1,y1],[x2,y2]] or {"p": [x,y], "q": [x,y], "direction", "id"}."""
    where = f"rule {rule_id!r} line"
    if isinstance(doc, list) and len(doc) == 2:
        return TripLine(f"{rule_id}.line", _point(doc[0], where), _point(doc[1], where))
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be [[x1,y1],[x2,y2]] or an object with 'p' and 'q'")
    check_keys(doc, _LINE_KEYS, where)
    if "p" not in doc or "q" not in doc:
        raise ConfigError(f"{where}: needs 'p' and 'q' endpoints")
    return TripLine(_id(doc, f"{rule_id}.line", where), _point(doc["p"], where),
                    _point(doc["q"], where), doc.get("direction", "any"))


def rules_from_doc(doc) -> list[Rule]:
    if not isinstance(doc, list):
        raise ConfigError("rules config must be a JSON array")
    rules = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ConfigError(f"rule #{i}: must be a JSON object")
        rid = entry.get("id")
        if not isinstance(rid, str) or not rid:
            raise ConfigError(f"rule #{i}: id must be a non-empty string")
        check_keys(entry, _RULE_KEYS, f"rule {rid!r}")
        zone = _parse_zone(entry["zone"], rid) if "zone" in entry else None
        line = _parse_line(entry["line"], rid) if "line" in entry else None
        try:
            rules.append(Rule(
                id=rid,
                kind=entry.get("kind"),
                zone=zone,
                line=line,
                class_filter=_classes(entry.get("classes"), f"rule {rid!r}"),
                debounce_ms=entry.get("debounce_ms", DEFAULT_DEBOUNCE_MS),
                threshold_ms=entry.get("threshold_ms"),
                min_count=entry.get("min_count"),
                comparator=entry.get("comparator", ">="),
            ))
        except TypeError as exc:  # a non-numeric threshold or unhashable field
            raise ConfigError(f"rule {rid!r}: malformed: {exc}") from exc
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
    drop logs a warning, and `close()` logs the total.
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
        self._disconnect()
        if self.dropped:
            log.warning("alert sink %s:%d dropped %d alerts in total",
                        self.host, self.port, self.dropped)
