"""Fire zone and trip-line alerts from a scripted walk.

One pedestrian walks left to right across the frame, entering a
restricted zone, lingering inside it, and crossing a vertical trip line
on the way out.  Shows each alert as the JSON record the pipeline would
write, then re-runs the same walk to demonstrate the alert stream is
deterministic.
"""

import json
from types import SimpleNamespace

from vigil.geometry import FrameMeta
from vigil.rules import Rule, RuleEngine, TripLine, Zone, alert_record, place
from vigil.tracker import TrackStatus

ZONE = Zone("restricted", ((120.0, 40.0), (260.0, 40.0),
                           (260.0, 160.0), (120.0, 160.0)))
LINE = TripLine("exit-gate", (325.0, 0.0), (325.0, 200.0))

RULES = [
    Rule(id="keep-out", kind="Intrusion", zone=ZONE, debounce_ms=2000),
    Rule(id="linger", kind="Loiter", zone=ZONE, threshold_ms=1500),
    Rule(id="leaving", kind="LineCross", line=LINE),
]


def walker(frame: int):
    # 10 px/frame eastward at 4 fps; anchor enters the zone at x=120
    x = 20.0 + 10.0 * frame
    return SimpleNamespace(track_id=1, class_label="person",
                           corners=[x - 8, 80.0, x + 8, 120.0],
                           status=TrackStatus.CONFIRMED)


def run_walk() -> list:
    engine = RuleEngine(RULES)
    events = []
    before = {}  # where the walker was last frame, as vigil's FrameLoop keeps it
    for frame in range(40):
        meta = FrameMeta(frame, frame * 250)
        placed = place(engine.prepared_zones, [walker(frame)])
        events += engine.evaluate(meta, placed, before)
        before = placed
    return events


def main() -> None:
    events = run_walk()
    for ev in events:
        print(json.dumps(alert_record(ev), sort_keys=True))
    rerun = [alert_record(ev) for ev in run_walk()]
    print(f"\n{len(events)} alerts; identical on rerun: "
          f"{rerun == [alert_record(ev) for ev in events]}")


if __name__ == "__main__":
    main()
