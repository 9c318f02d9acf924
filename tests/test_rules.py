"""Tests for the rule engine: intrusion, line crossing, loitering,
occupancy, debouncing, config parsing, and the TCP alert mirror."""

import json
import logging
import math
import random
import socket
import struct
import threading
import weakref
from types import SimpleNamespace

import pytest

from vigil.errors import ConfigError, DataError
from vigil.geometry import FrameMeta
from vigil.rules import (
    DEFAULT_DEBOUNCE_MS,
    AlertEvent,
    Rule,
    RuleEngine,
    TcpAlertSink,
    TripLine,
    Zone,
    alert_record,
    crossing,
    load_rules,
    place,
    rules_from_doc,
)
from vigil.tracker import TrackStatus

from budget import hang_budget
from oracles import ReferenceRuleEngine

SQUARE = ((0.0, 0.0), (50.0, 0.0), (50.0, 50.0), (0.0, 50.0))


def _frame(i, ts):
    return FrameMeta(i, ts)


def _at(tid, ax, ay, label="person", status=TrackStatus.CONFIRMED):
    return SimpleNamespace(track_id=tid, class_label=label,
                           corners=[ax - 5, ay - 10, ax + 5, ay],
                           status=status)


# engine -> each track's place() record from the last frame it was placed in
_BEFORE = weakref.WeakKeyDictionary()


def _evaluate(engine, frame, tracks):
    """engine.evaluate over *tracks*, with a *before* map kept per engine and
    updated with each frame's record, so tracks may skip frames."""
    placed = place(engine.prepared_zones, tracks)
    before = _BEFORE.setdefault(engine, {})
    events = engine.evaluate(frame, placed, before)
    before.update(placed)
    return events


def _zone_rule(kind="Intrusion", **kw):
    return Rule(id=f"r-{kind.lower()}", kind=kind, zone=Zone("z", SQUARE), **kw)


# -- intrusion ---------------------------------------------------------------


def test_intrusion_fires_once_at_entry_frame():
    engine = RuleEngine([_zone_rule()])
    xs = [80.0, 70.0, 60.0, 40.0, 30.0, 20.0]  # enters between frames 2 and 3
    events = []
    for f, x in enumerate(xs):
        events.append(_evaluate(engine, _frame(f, f * 100), [_at(1, x, 25.0)]))
    flat = [ev for batch in events for ev in batch]
    assert len(flat) == 1
    assert flat[0].frame_id == 3
    assert flat[0].kind == "Intrusion"
    assert flat[0].track_id == 1
    assert flat[0].payload == {"anchor": [40.0, 25.0]}


def test_intrusion_ignores_track_born_inside():
    engine = RuleEngine([_zone_rule()])
    for f, x in enumerate([25.0, 26.0, 27.0]):
        assert _evaluate(engine, _frame(f, f * 100), [_at(1, x, 25.0)]) == []
    # it must leave and come back before the rule can fire
    assert _evaluate(engine, _frame(3, 300), [_at(1, 60.0, 25.0)]) == []
    events = _evaluate(engine, _frame(4, 400), [_at(1, 30.0, 25.0)])
    assert [ev.frame_id for ev in events] == [4]


def test_intrusion_debounce_suppresses_then_rearms():
    engine = RuleEngine([_zone_rule(debounce_ms=2000)])
    path = [(0, 60.0), (1, 40.0),   # entry -> alert at ts 500
            (2, 60.0), (3, 40.0),   # re-entry at ts 1500, suppressed
            (4, 60.0), (5, 40.0)]   # re-entry at ts 2500, window elapsed
    stamps = []
    for f, x in path:
        for ev in _evaluate(engine, _frame(f, f * 500), [_at(1, x, 25.0)]):
            stamps.append(ev.timestamp_ms)
    assert stamps == [500, 2500]


def test_two_tracks_alert_independently():
    engine = RuleEngine([_zone_rule(debounce_ms=60_000)])
    _evaluate(engine, _frame(0, 0), [_at(1, 60.0, 25.0), _at(2, 70.0, 25.0)])
    events = _evaluate(engine, _frame(1, 100),
                       [_at(1, 40.0, 25.0), _at(2, 30.0, 25.0)])
    assert sorted(ev.track_id for ev in events) == [1, 2]


def test_tentative_tracks_are_invisible_to_rules():
    engine = RuleEngine([_zone_rule()])
    _evaluate(engine, _frame(0, 0), [_at(1, 60.0, 25.0, status=TrackStatus.TENTATIVE)])
    # the entry happens while tentative -> no outside-state recorded, no alert
    assert _evaluate(engine, _frame(1, 100),
                     [_at(1, 40.0, 25.0, status=TrackStatus.TENTATIVE)]) == []
    assert _evaluate(engine, _frame(2, 200), [_at(1, 41.0, 25.0)]) == []


# -- loitering ---------------------------------------------------------------


def test_loiter_fires_at_exact_threshold():
    engine = RuleEngine([_zone_rule("Loiter", threshold_ms=2000)])
    stamps = []
    for f in range(6):
        for ev in _evaluate(engine, _frame(f, 1000 + f * 1000),
                            [_at(1, 25.0, 25.0)]):
            stamps.append((ev.timestamp_ms, ev.payload["dwell_ms"]))
    # first seen inside at ts 1000; dwell reaches 2000 exactly at ts 3000
    assert stamps == [(3000, 2000)]


def test_loiter_resets_when_track_leaves():
    engine = RuleEngine([_zone_rule("Loiter", threshold_ms=1500,
                                    debounce_ms=0)])
    xs = [25.0, 25.0, 60.0, 25.0, 25.0, 25.0, 25.0]
    fired = []
    for f, x in enumerate(xs):
        for ev in _evaluate(engine, _frame(f, f * 1000), [_at(1, x, 25.0)]):
            fired.append(ev.timestamp_ms)
    # the first stay only reaches 1000 ms before the exit at ts 2000 wipes
    # it; the second stay starts at ts 3000 and crosses 1500 ms at ts 5000
    assert fired == [5000, 6000]


def test_loiter_refire_respects_debounce():
    engine = RuleEngine([_zone_rule("Loiter", threshold_ms=1000,
                                    debounce_ms=2500)])
    stamps = []
    for f in range(8):
        for ev in _evaluate(engine, _frame(f, f * 500), [_at(1, 25.0, 25.0)]):
            stamps.append(ev.timestamp_ms)
    # eligible from ts 1000 on; debounce lets it out at 1000 and 3500
    assert stamps == [1000, 3500]


# -- line crossing -----------------------------------------------------------

VLINE = TripLine("gate", (50.0, 0.0), (50.0, 100.0))


def test_crossing_directions():
    assert crossing((40.0, 50.0), (60.0, 50.0), VLINE) == "left-to-right"
    assert crossing((60.0, 50.0), (40.0, 50.0), VLINE) == "right-to-left"
    assert crossing((40.0, 50.0), (45.0, 50.0), VLINE) is None  # same side
    assert crossing((60.0, 10.0), (70.0, 90.0), VLINE) is None


def test_crossing_requires_strictly_opposite_sides():
    # an endpoint exactly on the line never counts as a crossing
    assert crossing((50.0, 50.0), (60.0, 50.0), VLINE) is None
    assert crossing((40.0, 50.0), (50.0, 50.0), VLINE) is None
    assert crossing((50.0, 20.0), (50.0, 80.0), VLINE) is None


def test_crossing_respects_segment_extent():
    # sides flip, but the intersection lies beyond the finite line
    assert crossing((40.0, 150.0), (60.0, 150.0), VLINE) is None
    assert crossing((40.0, -5.0), (60.0, -5.0), VLINE) is None
    # intersections exactly at the endpoints count (u = 0 and u = 1)
    assert crossing((40.0, 0.0), (60.0, 0.0), VLINE) == "left-to-right"
    assert crossing((40.0, 100.0), (60.0, 100.0), VLINE) == "left-to-right"


def test_a_line_whose_squared_length_overflows_is_rejected():
    # a line up to about 1.3e154 long still fires; a longer one would make
    # crossing() divide by an infinite squared length and never fire
    for far in (1e150, 5e153):
        line = TripLine("l", (-far, 100.0), (far, 100.0))
        assert crossing((50.0, 90.0), (50.0, 110.0), line) == "right-to-left", far
    for p, q in [((-1e160, 100.0), (1e160, 100.0)), ((-1e200, 100.0), (1e200, 100.0)),
                 ((0.0, -1e300), (0.0, 1e300)), ((-1e308, 0.0), (1e308, 0.0)),
                 ((0.0, 0.0), (2e154, 2e154))]:
        with pytest.raises(ConfigError, match="endpoints are too far apart"):
            TripLine("l", p, q)


def test_line_cross_rule_direction_filter():
    rule = Rule(id="gate", kind="LineCross",
                line=TripLine("gate", (50.0, 0.0), (50.0, 100.0),
                              direction="right-to-left"),
                debounce_ms=0)
    engine = RuleEngine([rule])
    _evaluate(engine, _frame(0, 0), [_at(1, 40.0, 50.0)])
    # left-to-right motion is filtered out
    assert _evaluate(engine, _frame(1, 100), [_at(1, 60.0, 50.0)]) == []
    events = _evaluate(engine, _frame(2, 200), [_at(1, 40.0, 50.0)])
    assert [ev.payload for ev in events] == [{"direction": "right-to-left"}]


def test_line_cross_needs_motion_history():
    rule = Rule(id="gate", kind="LineCross", line=VLINE, debounce_ms=0)
    engine = RuleEngine([rule])
    # first observation has no previous anchor -> nothing can fire
    assert _evaluate(engine, _frame(0, 0), [_at(1, 60.0, 50.0)]) == []
    assert _evaluate(engine, _frame(1, 100), [_at(1, 40.0, 50.0)]) != []


def test_stepping_onto_then_off_the_line_never_fires():
    rule = Rule(id="gate", kind="LineCross", line=VLINE, debounce_ms=0)
    engine = RuleEngine([rule])
    for f, x in enumerate([40.0, 50.0, 60.0]):
        assert _evaluate(engine, _frame(f, f * 100), [_at(1, x, 50.0)]) == []


# -- occupancy ---------------------------------------------------------------


def test_occupancy_edge_trigger_and_rearm():
    rule = _zone_rule("Occupancy", min_count=2, debounce_ms=0)
    engine = RuleEngine([rule])
    inside = lambda tid: _at(tid, 25.0, 25.0)
    outside = lambda tid: _at(tid, 80.0, 25.0)
    batches = [
        [inside(1)],                        # 1 in zone: below threshold
        [inside(1), inside(2)],             # reaches 2 -> fire
        [inside(1), inside(2), inside(3)],  # still holding -> silent
        [inside(1), outside(2), outside(3)],  # drops to 1 -> re-arm
        [inside(1), inside(2)],             # reaches 2 again -> fire
    ]
    fired = []
    for f, tracks in enumerate(batches):
        for ev in _evaluate(engine, _frame(f, f * 100), tracks):
            fired.append((ev.frame_id, ev.track_id, ev.payload))
    assert fired == [(1, None, {"count": 2}), (4, None, {"count": 2})]


def test_occupancy_comparators():
    eq = Rule(id="exact", kind="Occupancy", zone=Zone("z", SQUARE),
              min_count=1, comparator="==", debounce_ms=0)
    engine = RuleEngine([eq])
    a, b = _at(1, 25.0, 25.0), _at(2, 30.0, 25.0)
    assert len(_evaluate(engine, _frame(0, 0), [a])) == 1      # count == 1
    assert _evaluate(engine, _frame(1, 100), [a, b]) == []     # 2 != 1, re-arm
    assert len(_evaluate(engine, _frame(2, 200), [b])) == 1

    lo = Rule(id="few", kind="Occupancy", zone=Zone("z", SQUARE),
              min_count=1, comparator="<=", debounce_ms=0)
    engine = RuleEngine([lo])
    assert len(_evaluate(engine, _frame(0, 0), [])) == 1       # 0 <= 1 holds


# -- class filters -----------------------------------------------------------


def test_rule_class_filter():
    rule = _zone_rule(class_filter=frozenset({"car"}), debounce_ms=0)
    engine = RuleEngine([rule])
    _evaluate(engine, _frame(0, 0), [_at(1, 60.0, 25.0, label="car"),
                                     _at(2, 60.0, 25.0, label="person")])
    events = _evaluate(engine, _frame(1, 100),
                       [_at(1, 40.0, 25.0, label="car"),
                        _at(2, 40.0, 25.0, label="person")])
    assert [ev.track_id for ev in events] == [1]


def test_zone_class_filter_intersects_rule_filter():
    def classes(rule_filter, zone_filter):
        zone = Zone("z", SQUARE, class_filter=zone_filter)
        return Rule(id="r", kind="Intrusion", zone=zone, class_filter=rule_filter).classes

    car_person, person_bike = frozenset({"car", "person"}), frozenset({"person", "bike"})
    both = classes(person_bike, car_person)
    assert both == {"person"}
    assert "car" not in both    # rule filter rejects
    assert "bike" not in both   # zone filter rejects
    assert "truck" not in both
    assert classes(person_bike, None) == person_bike   # rule filter only
    assert classes(None, car_person) == car_person     # zone filter only
    assert classes(None, None) is None                 # every label
    line = Rule(id="l", kind="LineCross", line=VLINE, class_filter=person_bike)
    assert line.classes == person_bike
    assert Rule(id="l", kind="LineCross", line=VLINE).classes is None


# -- engine bookkeeping ------------------------------------------------------


def test_engine_rejects_out_of_order_frames():
    engine = RuleEngine([_zone_rule()])
    _evaluate(engine, _frame(3, 300), [])
    with pytest.raises(DataError):
        _evaluate(engine, _frame(3, 400), [])
    with pytest.raises(DataError):
        _evaluate(engine, _frame(2, 500), [])


def test_engine_requires_unique_rule_ids():
    with pytest.raises(ConfigError):
        RuleEngine([_zone_rule(), _zone_rule()])


def test_engine_zones_deduplicates():
    shared = Zone("hall", SQUARE)
    rules = [Rule(id="a", kind="Intrusion", zone=shared),
             Rule(id="b", kind="Loiter", zone=shared, threshold_ms=1000),
             Rule(id="c", kind="LineCross", line=VLINE),
             Rule(id="d", kind="Occupancy",
                  zone=Zone("yard", ((60.0, 0.0), (90.0, 0.0), (90.0, 30.0))),
                  min_count=1),
             Rule(id="e", kind="Intrusion", zone=Zone("hall", SQUARE))]
    engine = RuleEngine(rules)
    zones = engine.prepared_zones.zones
    assert [zone.id for zone in zones] == ["hall", "yard"]
    assert zones[0].polygon == SQUARE


def _random_rules(rnd):
    """Every rule kind, with rule and zone class filters and a random
    debounce (0 half the time) per rule."""
    def debounce():
        return rnd.choice([0, 0, 150, 600])
    hall = Zone("hall", ((20.0, 10.0), (110.0, 10.0), (110.0, 80.0), (20.0, 80.0)))
    yard = Zone("yard", ((80.0, 0.0), (190.0, 30.0), (150.0, 95.0), (70.0, 60.0)),
                class_filter=frozenset({"person", "car"}))
    return [
        Rule(id="in-hall", kind="Intrusion", zone=hall, debounce_ms=debounce()),
        Rule(id="in-yard", kind="Intrusion", zone=yard, debounce_ms=debounce(),
             class_filter=frozenset({"car", "bike"})),
        Rule(id="loiter", kind="Loiter", zone=hall, debounce_ms=debounce(),
             threshold_ms=rnd.choice([100, 400]), class_filter=frozenset({"person"})),
        Rule(id="loiter-yard", kind="Loiter", zone=yard, debounce_ms=debounce(),
             threshold_ms=250),
        Rule(id="gate", kind="LineCross", line=TripLine("gate", (100.0, 0.0), (100.0, 100.0)),
             debounce_ms=debounce()),
        Rule(id="gate-ltr", kind="LineCross", debounce_ms=debounce(),
             line=TripLine("low", (0.0, 50.0), (200.0, 40.0), "left-to-right"),
             class_filter=frozenset({"car"})),
        Rule(id="crowd", kind="Occupancy", zone=yard, debounce_ms=debounce(),
             min_count=rnd.choice([1, 2]), comparator=rnd.choice([">=", ">", "=="])),
    ]


def _random_stream(rnd, n_frames=150):
    """Frames of tracks that walk about a 200 x 100 frame, each with a fixed
    class; tracks are born and die, skip frames and come back, and are
    sometimes tentative."""
    alive = {}  # track_id -> [class_label, x, y]
    next_id = 1
    ts = 0
    for f in range(n_frames):
        if len(alive) < 7 and rnd.random() < 0.3:
            alive[next_id] = [rnd.choice(["person", "car", "bike"]),
                              rnd.uniform(0, 200), rnd.uniform(0, 100)]
            next_id += 1
        if alive and rnd.random() < 0.04:
            del alive[rnd.choice(sorted(alive))]
        ts += rnd.randint(20, 120)
        tracks = []
        for tid, state in alive.items():
            state[1] = min(max(state[1] + rnd.uniform(-18, 18), 0.0), 200.0)
            state[2] = min(max(state[2] + rnd.uniform(-12, 12), 0.0), 100.0)
            if rnd.random() < 0.15:
                continue  # not seen this frame
            status = TrackStatus.CONFIRMED if rnd.random() < 0.85 else TrackStatus.TENTATIVE
            tracks.append(_at(tid, state[1], state[2], state[0], status))
        yield _frame(f, ts), tracks


def test_engine_matches_per_rule_track_state_reference():
    # one (anchor, zone ids) entry per track gives the alerts that the
    # per-(rule, track) inside flags and anchors gave, since a track's
    # class, and so the rules that apply to it, never changes
    kinds = set()
    for seed in range(12):
        rnd = random.Random(seed)
        rules = _random_rules(rnd)
        engine, reference = RuleEngine(rules), ReferenceRuleEngine(rules)
        for frame, tracks in _random_stream(rnd):
            got = [alert_record(ev) for ev in _evaluate(engine, frame, tracks)]
            assert got == reference.evaluate(frame, tracks), (seed, frame.frame_id)
            kinds |= {row["rule_id"] for row in got}
    assert kinds == {"in-hall", "in-yard", "loiter", "loiter-yard", "gate",
                     "gate-ltr", "crowd"}


def _anchored(tid, x, y, label, status=TrackStatus.CONFIRMED):
    """A track whose anchor is (x, y) exactly: a box of zero width, whose
    0.5 * (x + x) is x for every x up to half the largest float."""
    return SimpleNamespace(track_id=tid, class_label=label, status=status,
                           corners=[x, y, x, y])


def test_line_cross_edge_cases_match_reference():
    # the sign test's edge cases: sides of exactly 0.0, sides of 1e-200
    # (a product of two underflows to 0), tracks back after frames away or
    # tentative (the previous anchor is from their last confirmed frame),
    # a class-filtered line and sides that overflow or are nan
    tiny = 1e-202  # x = +-tiny is on side -+1e-200 of the gate: a product underflows
    gate = TripLine("gate", (0.0, 0.0), (0.0, 100.0))
    slant = TripLine("slant", (-50.0, 10.0), (60.0, 90.0), "left-to-right")  # (5, 50) on it
    rules = [Rule(id="gate", kind="LineCross", line=gate, debounce_ms=0),
             Rule(id="gate-cars", kind="LineCross", line=gate, debounce_ms=0,
                  class_filter=frozenset({"car"})),
             Rule(id="slant", kind="LineCross", line=slant, debounce_ms=0)]
    tent = TrackStatus.TENTATIVE
    # (track id, class, x, status) per frame, all at y = 50
    frames = [
        [(1, "person", tiny), (2, "car", tiny), (3, "car", 5.0), (4, "person", 8.0)],
        [(1, "person", -tiny), (3, "car", 0.0), (4, "person", -8.0, tent)],
        [(1, "person", tiny), (3, "car", -5.0), (4, "person", -8.0)],
        [(2, "car", -tiny), (1, "person", -tiny), (3, "car", 0.0)],   # 2 is back
        [(2, "car", tiny), (3, "car", 5.0), (4, "person", 8.0)],
        [(4, "person", -0.0), (2, "car", -tiny)],                     # onto the gate
        [(4, "person", tiny), (1, "person", tiny)],                   # off it again
    ]
    # 8e307: near the largest anchor a box can have, 0.5 * (x1 + x2) overflowing past it
    frames += [[(5, "car", x)] for x in (3.0, 8e307, -8e307, math.inf, -math.inf,
                                          math.nan, -3.0, 3.0, math.nan, -3.0)]
    engine, reference = RuleEngine(rules), ReferenceRuleEngine(rules)
    fired = set()
    for f, rows in enumerate(frames):
        tracks = [_anchored(tid, x, 50.0, label, *status) for tid, label, x, *status in rows]
        got = [alert_record(ev) for ev in _evaluate(engine, _frame(f, 100 * f), tracks)]
        assert got == reference.evaluate(_frame(f, 100 * f), tracks), f
        fired |= {(row["rule_id"], row["track_id"], row["frame_id"]) for row in got}
    # 1e-200 sides cross every frame; 2 crosses against its frame-0 side when
    # it returns; 4 crosses against frame 0 past its tentative frame, and
    # stepping on and off the gate (side 0.0) fires nothing; people never
    # fire gate-cars
    assert {("gate", 1, 1), ("gate", 1, 2), ("gate", 1, 3), ("gate", 1, 6)} <= fired
    assert {("gate", 2, 3), ("gate-cars", 2, 3), ("gate-cars", 2, 4),
            ("gate-cars", 2, 5)} <= fired
    assert {("gate", 4, 2), ("gate", 4, 4), ("slant", 4, 4)} <= fired
    assert not {e for e in fired if e[1] == 3 or (e[1] == 4 and e[2] >= 5)}
    assert not {e for e in fired if e[0] == "gate-cars" and e[1] in (1, 4)}
    # 5 crosses the slant on its way out to x = 8e307 (a side of -inf) and the
    # gate from -3 to 3; sides of -inf to inf and nan sides fire nothing
    assert {e for e in fired if e[1] == 5} == {("slant", 5, 8), ("gate", 5, 14),
                                                ("gate-cars", 5, 14)}


def test_zone_id_names_one_zone():
    moved = tuple((x + 1.0, y) for x, y in SQUARE)
    for other in (Zone("hall", moved),
                  Zone("hall", SQUARE, class_filter=frozenset({"car"}))):
        rules = [Rule(id="a", kind="Intrusion", zone=Zone("hall", SQUARE)),
                 Rule(id="b", kind="Occupancy", zone=other, min_count=1)]
        with pytest.raises(ConfigError, match="hall"):
            RuleEngine(rules)
    doc = [{"id": "a", "kind": "Intrusion",
            "zone": {"id": "hall", "polygon": [[0, 0], [50, 0], [50, 50]]}},
           {"id": "b", "kind": "Intrusion",
            "zone": {"id": "hall", "polygon": [[0, 0], [60, 0], [60, 60]]}}]
    with pytest.raises(ConfigError, match="hall"):
        rules_from_doc(doc)


def test_alert_record_key_order():
    ev = AlertEvent("r1", 5, 17, 1700, "Intrusion", {"anchor": [1.0, 2.0]})
    rec = alert_record(ev)
    assert list(rec) == ["rule_id", "track_id", "frame_id", "timestamp_ms",
                         "kind", "payload"]
    assert rec["track_id"] == 5 and rec["payload"] == {"anchor": [1.0, 2.0]}


# -- validation and parsing --------------------------------------------------


def test_rule_validation():
    with pytest.raises(ConfigError):
        Rule(id="x", kind="Teleport", zone=Zone("z", SQUARE))
    with pytest.raises(ConfigError):
        Rule(id="x", kind="Intrusion")  # no zone
    with pytest.raises(ConfigError):
        Rule(id="x", kind="LineCross")  # no line
    with pytest.raises(ConfigError):
        Rule(id="x", kind="Loiter", zone=Zone("z", SQUARE))
    with pytest.raises(ConfigError):
        Rule(id="x", kind="Loiter", zone=Zone("z", SQUARE), threshold_ms=0)
    with pytest.raises(ConfigError):
        Rule(id="x", kind="Occupancy", zone=Zone("z", SQUARE))
    with pytest.raises(ConfigError):
        Rule(id="x", kind="Occupancy", zone=Zone("z", SQUARE),
             min_count=2, comparator="!=")
    with pytest.raises(ConfigError):
        _zone_rule(debounce_ms=-1)
    # a field that the rule's kind ignores is an error, not dropped silently
    line = TripLine("l", (0.0, 0.0), (1.0, 0.0))
    ignored = [
        dict(kind="LineCross", line=line, zone=Zone("z", SQUARE)),
        dict(kind="LineCross", line=line, threshold_ms=1000),
        dict(kind="LineCross", line=line, min_count=1),
        dict(kind="Intrusion", zone=Zone("z", SQUARE), line=line),
        dict(kind="Intrusion", zone=Zone("z", SQUARE), threshold_ms=1000),
        dict(kind="Intrusion", zone=Zone("z", SQUARE), min_count=1),
        dict(kind="Loiter", zone=Zone("z", SQUARE), threshold_ms=1000, line=line),
        dict(kind="Loiter", zone=Zone("z", SQUARE), threshold_ms=1000, min_count=1),
        dict(kind="Occupancy", zone=Zone("z", SQUARE), min_count=1, line=line),
        dict(kind="Occupancy", zone=Zone("z", SQUARE), min_count=1,
             threshold_ms=1000),
        # only Occupancy reads a comparator; the others once kept it silently
        dict(kind="Intrusion", zone=Zone("z", SQUARE), comparator="<"),
        dict(kind="Loiter", zone=Zone("z", SQUARE), threshold_ms=1000, comparator=">="),
        dict(kind="LineCross", line=line, comparator="=="),
    ]
    for fields in ignored:
        with pytest.raises(ConfigError, match="takes no"):
            Rule(id="x", **fields)


def test_zone_and_line_validation():
    with pytest.raises(ConfigError):
        Zone("z", ((0.0, 0.0), (1.0, 1.0)))
    bowtie = ((0.0, 0.0), (10.0, 10.0), (10.0, 0.0), (0.0, 10.0))
    with pytest.raises(ConfigError):
        Zone("z", bowtie)
    with pytest.raises(ConfigError, match="finite"):
        Zone("z", ((0.0, 0.0), (1.0, float("nan")), (1.0, 1.0)))
    # an edge's squared length once overflowed (OverflowError, exit 4)
    with pytest.raises(ConfigError, match="zone 'z': polygon is too large"):
        Zone("z", ((-1e300, -1e300), (1e300, -1e300), (1e300, 1e300)))
    with pytest.raises(ConfigError):
        TripLine("l", (1.0, 2.0), (1.0, 2.0))
    # distinct endpoints whose squared distance underflows to 0 once made
    # crossing() divide by zero (exit 4)
    with pytest.raises(ConfigError, match="line 'l': endpoints coincide or are too close"):
        TripLine("l", (100.0, 0.0), (100.0, 1e-200))
    TripLine("l", (100.0, 0.0), (100.0, 1e-150))  # squares to a normal float
    with pytest.raises(ConfigError):
        TripLine("l", (0.0, 0.0), (1.0, 0.0), direction="upward")


def test_rules_from_doc():
    doc = [
        {"id": "door", "kind": "Intrusion",
         "zone": {"id": "lobby", "polygon": [[0, 0], [50, 0], [50, 50], [0, 50]],
                  "classes": ["person"]},
         "debounce_ms": 5000},
        {"id": "gate", "kind": "LineCross",
         "line": {"p": [50, 0], "q": [50, 100], "direction": "left-to-right"}},
        {"id": "linger", "kind": "Loiter",
         "zone": [[0, 0], [50, 0], [50, 50], [0, 50]],
         "threshold_ms": 2000, "classes": ["person", "car"]},
        {"id": "crowd", "kind": "Occupancy",
         "zone": [[0, 0], [50, 0], [50, 50], [0, 50]],
         "min_count": 3, "comparator": "<="},
        {"id": "exit", "kind": "LineCross", "line": [[10, 0], [10, 100]]},
    ]
    rules = rules_from_doc(doc)
    assert [r.kind for r in rules] == ["Intrusion", "LineCross", "Loiter",
                                      "Occupancy", "LineCross"]
    assert rules[4].line == TripLine("exit.line", (10.0, 0.0), (10.0, 100.0))
    assert rules[0].zone.id == "lobby"
    assert rules[0].zone.class_filter == frozenset({"person"})
    assert rules[0].debounce_ms == 5000
    assert rules[1].line.id == "gate.line"
    assert rules[1].line.direction == "left-to-right"
    assert rules[1].debounce_ms == DEFAULT_DEBOUNCE_MS
    assert rules[2].zone.id == "linger.zone"
    assert rules[2].class_filter == frozenset({"person", "car"})
    assert rules[3].comparator == "<="
    # an Occupancy without a comparator means >=
    occupancy = dict(doc[3], id="crowd-default")
    del occupancy["comparator"]
    assert rules_from_doc([occupancy])[0].comparator == ">="


def test_rules_from_doc_errors():
    with pytest.raises(ConfigError):
        rules_from_doc({"id": "x"})
    with pytest.raises(ConfigError):
        rules_from_doc(["not a dict"])
    with pytest.raises(ConfigError):
        rules_from_doc([{"kind": "Intrusion", "zone": [[0, 0], [1, 0], [1, 1]]}])
    with pytest.raises(ConfigError):
        rules_from_doc([{"id": "x", "kind": "Intrusion", "zone": 42}])
    with pytest.raises(ConfigError):
        rules_from_doc([{"id": "x", "kind": "LineCross",
                         "line": {"p": [0, 0]}}])
    tri = [[0, 0], [1, 0], [1, 1]]
    malformed = [
        {"id": "x", "kind": "LineCross", "line": [[0, 0], [1, 1], [2, 2]]},
        {"id": "x", "kind": "LineCross", "line": "a-b"},
        {"id": "x", "kind": "LineCross", "line": [["a", 0], [1, 1]]},
        {"id": "x", "kind": "LineCross", "line": {"p": "ab", "q": [1, 1]}},
        {"id": "x", "kind": "Intrusion", "zone": [[0, 0], ["1", 0], [1, 1]]},
        {"id": "x", "kind": "Intrusion", "zone": [[0, 0, 0], [1, 0], [1, 1]]},
        {"id": "x", "kind": "Intrusion", "zone": {"id": ["z"], "polygon": tri}},
        {"id": "x", "kind": "Intrusion", "zone": tri, "classes": "person"},
        {"id": 7, "kind": "Intrusion", "zone": tri},
        {"id": "x", "kind": "Loiter", "zone": tri, "threshold_ms": "1s"},
        {"id": "x", "kind": "Occupancy", "zone": tri, "min_count": 1,
         "comparator": [">="]},
        {"id": "x", "kind": "LineCross", "line": [[0, 0], [1, 1]], "zone": tri},
    ]
    for entry in malformed:
        with pytest.raises(ConfigError):
            rules_from_doc([entry])


def test_rules_from_doc_rejects_unknown_keys():
    tri = [[0, 0], [1, 0], [1, 1]]
    # the per-rule filter is "classes"; "class_filter" used to be ignored
    with pytest.raises(ConfigError, match="class_filter"):
        rules_from_doc([{"id": "x", "kind": "Intrusion", "zone": tri,
                         "class_filter": ["person"]}])
    with pytest.raises(ConfigError, match="colour"):
        rules_from_doc([{"id": "x", "kind": "Intrusion",
                         "zone": {"polygon": tri, "colour": "red"}}])
    with pytest.raises(ConfigError, match="dir"):
        rules_from_doc([{"id": "x", "kind": "LineCross",
                         "line": {"p": [0, 0], "q": [1, 1], "dir": "any"}}])


def test_load_rules(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([
        {"id": "door", "kind": "Intrusion",
         "zone": [[0, 0], [50, 0], [50, 50], [0, 50]]},
    ]), encoding="utf-8")
    rules = load_rules(path)
    assert len(rules) == 1 and rules[0].id == "door"
    with pytest.raises(ConfigError):
        load_rules(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[{", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_rules(bad)


# -- TCP sink ----------------------------------------------------------------


SINK_BUDGET_S = 10.0  # each sink test takes well under a second


def _event(i=0):
    return AlertEvent("r1", 5, i, i * 100, "Intrusion", {"n": i})


@hang_budget(SINK_BUDGET_S, "test_tcp_sink_buffers_when_unreachable")
def test_tcp_sink_buffers_when_unreachable(caplog):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    sink = TcpAlertSink("127.0.0.1", port, timeout=0.2)

    def unreachable():
        return [r for r in caplog.records if "unreachable" in r.getMessage()]

    with caplog.at_level(logging.WARNING, logger="vigil.rules"):
        sink.send(_event(0))  # must not raise
        sink.send(_event(1))
        assert len(sink._buffer) == 2
        for i in range(2, 5):
            sink.send(_event(i))
        assert len(unreachable()) == 1  # one warning per outage, not per alert

        server = socket.socket()
        server.bind(("127.0.0.1", port))
        server.listen(1)
        try:
            sink.send(_event(5))  # connects: the backlog takes all six lines
            assert len(sink._buffer) == 0
            sink.close()
        finally:
            server.close()
        sink.send(_event(6))  # a new outage after a success warns again
        assert len(unreachable()) == 2
    sink.close()


@hang_budget(SINK_BUDGET_S, "test_tcp_sink_counts_dropped_alerts")
def test_tcp_sink_counts_dropped_alerts(caplog):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    sink = TcpAlertSink("127.0.0.1", port, buffer_limit=2, timeout=0.2)
    with caplog.at_level(logging.WARNING, logger="vigil.rules"):
        for i in range(5):
            sink.send(_event(i))  # must not raise
        assert sink.dropped == 3
        assert [json.loads(line) for line in sink._buffer] == \
            [alert_record(_event(3)), alert_record(_event(4))]
        sink.close()  # the two lines still buffered cannot be sent either
    assert sink.dropped == 5 and not sink._buffer
    drops = [r.getMessage() for r in caplog.records if "drop" in r.getMessage()]
    assert len(drops) == 2  # the first drop, then the total on close
    assert drops[1].endswith("dropped 5 alerts in total")


@hang_budget(SINK_BUDGET_S, "test_tcp_sink_close_flushes_buffered_alerts")
def test_tcp_sink_close_flushes_buffered_alerts():
    server = socket.socket()
    server.bind(("127.0.0.1", 0))  # bound but not listening: connects are refused
    port = server.getsockname()[1]
    sink = TcpAlertSink("127.0.0.1", port, timeout=1.0)
    try:
        for i in range(3):
            sink.send(_event(i))
        assert len(sink._buffer) == 3
        server.listen(1)
        server.settimeout(2.0)
        sink.close()  # the receiver is back: close sends the backlog
        conn, _ = server.accept()
        with conn:
            conn.settimeout(2.0)
            data = b""
            while chunk := conn.recv(4096):  # until close() hung up
                data += chunk
    finally:
        server.close()
    assert [json.loads(line) for line in data.decode("utf-8").splitlines()] == \
        [alert_record(_event(i)) for i in range(3)]
    assert sink.dropped == 0


def _read_lines(conn, most):
    """The alert records *conn* receives, until *most* lines arrived or the
    peer hung up."""
    conn.settimeout(2.0)
    data = b""
    while data.count(b"\n") < most and (chunk := conn.recv(4096)):
        data += chunk
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


@hang_budget(SINK_BUDGET_S, "test_tcp_sink_keeps_a_line_whose_send_failed")
def test_tcp_sink_keeps_a_line_whose_send_failed(caplog):
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    server.settimeout(2.0)  # a failed test leaves nothing blocked in accept
    sink = TcpAlertSink("127.0.0.1", server.getsockname()[1], timeout=1.0)
    try:
        sink.send(_event(0))
        conn, _ = server.accept()
        assert _read_lines(conn, 1) == [alert_record(_event(0))]
        # the receiver resets the connection: closing with a zero linger sends RST
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.close()
        with caplog.at_level(logging.WARNING, logger="vigil.rules"):
            sink.send(_event(1))  # must not raise
        failed = [r for r in caplog.records if "send failed" in r.getMessage()]
        assert len(failed) == 1
        assert [json.loads(line) for line in sink._buffer] == [alert_record(_event(1))]
        assert sink.dropped == 0 and sink._sock is None
        sink.send(_event(2))  # connects again: the server still listens
        conn, _ = server.accept()
        with conn:
            sink.close()
            received = _read_lines(conn, 3)  # until close() hung up
    finally:
        server.close()
    assert received == [alert_record(_event(1)), alert_record(_event(2))]
    assert sink.dropped == 0


@hang_budget(SINK_BUDGET_S, "test_tcp_sink_delivers_jsonl")
def test_tcp_sink_delivers_jsonl():
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    server.settimeout(5.0)  # a failed test leaves no thread blocked in accept
    port = server.getsockname()[1]
    received = []

    def serve():
        conn, _ = server.accept()
        conn.settimeout(2.0)
        data = b""
        while data.count(b"\n") < 2:
            chunk = conn.recv(4096)
            if not chunk:
                break
            data += chunk
        received.append(data)
        conn.close()

    thread = threading.Thread(target=serve)
    thread.start()
    sink = TcpAlertSink("127.0.0.1", port, timeout=1.0)
    sink.send(_event(0))
    sink.send(_event(1))
    thread.join(timeout=3.0)
    sink.close()
    server.close()
    lines = received[0].decode("utf-8").splitlines()
    assert [json.loads(l) for l in lines] == \
        [alert_record(_event(0)), alert_record(_event(1))]
    assert len(sink._buffer) == 0
