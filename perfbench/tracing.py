"""Span tracing around vigil's public seams, installed from outside.

The tracer rebinds module attributes and class methods where vigil's own
callers look them up (for example ``vigil.tracker.hungarian_assign``, the
name the tracker calls), so the program's source stays untouched.  Each
wrapped call becomes a span (id, name, start, end, parent); a span's self
time is its duration minus the time its child spans cover.  Bookkeeping done
after a call (counters computed from arguments or results) is charged to
neither the span nor its parent.
"""

from __future__ import annotations

import json
import os
import stat
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _strict_minima(cost) -> bool:
    """True when hungarian_assign's strict-row-minima fast path applies.

    Mirrors the documented condition: every row minimum (column minimum
    when rows outnumber columns) is attained once, at distinct columns.
    """
    a = np.asarray(cost, dtype=float)
    if a.ndim != 2 or 0 in a.shape:
        return True
    if a.shape[0] > a.shape[1]:
        a = a.T
    cols = np.argmin(a, axis=1)
    mins = a[np.arange(a.shape[0]), cols]
    if np.any(np.count_nonzero(a == mins[:, None], axis=1) != 1):
        return False
    return np.unique(cols).size == a.shape[0]


class Tracer:
    """Records spans and counters; ``install`` wraps vigil, ``uninstall`` undoes it."""

    def __init__(self):
        self.total = defaultdict(float)    # name -> summed span duration
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.spans = []                    # (id, name, start, end, parent id)
        self.keep_spans = False
        self._stack = []                   # [id, name, start, child time]
        self._next_id = 0
        self._undo = []
        self._spawned = set()              # (id(SortTracker), track id), this pass
        self._confirmed = set()

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def _exit(self):
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if self.keep_spans:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None))

    def _untimed(self, fn, *args):
        """Run counter bookkeeping without charging it to the enclosing span."""
        t0 = perf_counter()
        fn(*args)
        if self._stack:
            self._stack[-1][3] += perf_counter() - t0

    def _wrap(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                tracer._untimed(after, result, args)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _wrap_dump_reader(self, owner, attr):
        orig = getattr(owner, attr)
        tracer = self

        def read_dump(path, *args, **kwargs):
            try:
                if not stat.S_ISFIFO(os.stat(path).st_mode):
                    tracer.counters["sources.bytes_in"] += os.path.getsize(path)
            except OSError:
                pass
            inner = orig(path, *args, **kwargs)

            def frames():
                while True:
                    tracer._enter("sources.read_dump")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.counters["sources.lines"] += len(item[1])
                    yield item

            return frames()

        setattr(owner, attr, read_dump)
        self._undo.append((owner, attr, orig))

    # -- counters computed at the seams -------------------------------------

    def _after_hungarian(self, result, args):
        cost = np.asarray(args[0])
        self.counters["assignment.cells"] += int(cost.size)
        self.counters["assignment.strict_minima"] += int(_strict_minima(cost))

    def _after_step(self, result, args):
        tracker = args[0]
        self.counters["tracker.live_tracks"] += len(tracker.tracks)
        # a spawned track is in tracker.tracks right after the step that made it
        self._spawned.update((id(tracker), t.track_id) for t in tracker.tracks)
        self._confirmed.update((id(tracker), t.track_id) for t in result)

    def end_pass(self):
        """Fold per-pass track sets into counters (tracker ids may be reused)."""
        self.counters["tracker.spawned"] += len(self._spawned)
        self.counters["tracker.confirmed"] += len(self._confirmed)
        self._spawned.clear()
        self._confirmed.clear()

    def _after_evaluate(self, result, args):
        self.counters["rules.alerts"] += len(result)

    def _after_send(self, result, args):
        from vigil.rules import alert_record
        self.counters["rules.sink_bytes"] += len(json.dumps(alert_record(args[1]))) + 1

    def _after_greedy(self, result, args):
        self.counters["summarize.gain_evals"] += args[0].gain_evals
        self.counters["summarize.picks"] += len(result)

    def _after_materialize(self, result, args):
        self.counters["augment.images_written"] += int(result)

    def _after_train(self, result, args):
        self.counters["softmax.epochs"] += len(result.losses) - 1

    def _after_eval(self, result, args):
        self.counters["evaluation.predictions"] += len(args[0])

    def install(self):
        import vigil.cli as cli
        import vigil.pipeline as pipeline
        import vigil.rules as rules
        import vigil.stats as stats
        import vigil.tracker as tracker
        from vigil.kalman import KalmanBoxFilter

        self._wrap(cli, "main", "cli.main")
        self._wrap(cli, "run_pipeline", "pipeline.run")
        self._wrap_dump_reader(pipeline, "read_dump")
        self._wrap_dump_reader(cli, "read_dump")
        self._wrap(tracker.SortTracker, "step", "tracker.step", self._after_step)
        self._wrap(tracker, "hungarian_assign", "assignment.hungarian", self._after_hungarian)
        self._wrap(tracker, "iou_matrix", "geometry.iou_matrix")
        self._wrap(KalmanBoxFilter, "predict", "kalman.predict")
        self._wrap(KalmanBoxFilter, "update", "kalman.update")
        self._wrap(stats, "point_in_polygon", "geometry.point_in_polygon")
        self._wrap(rules, "point_in_polygon", "geometry.point_in_polygon")
        self._wrap(stats.SceneStats, "ingest", "stats.ingest")
        for attr in ("write_heatmap_csv", "write_heatmap_pgm", "write_flowmap_csv",
                     "write_dwell_json", "write_counts_json"):
            self._wrap(stats.SceneStats, attr, "stats.export")
        self._wrap(rules.RuleEngine, "evaluate", "rules.evaluate", self._after_evaluate)
        self._wrap(rules.TcpAlertSink, "send", "rules.sink_send", self._after_send)
        self._wrap(cli, "ground_set_from_csv", "summarize.ground_set")
        self._wrap(cli, "build_model", "summarize.model_build")
        self._wrap(cli, "lazy_greedy_trace", "summarize.greedy", self._after_greedy)
        self._wrap(cli, "balance", "augment.balance")
        self._wrap(cli, "materialize", "augment.materialize", self._after_materialize)
        self._wrap(cli, "train", "softmax.train", self._after_train)
        self._wrap(cli, "predict_batch", "softmax.predict")
        self._wrap(cli, "evaluate_detections", "evaluation.evaluate", self._after_eval)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass (times in s, counts as counts)."""
        n = max(passes, 1)
        t, s, c, k = self.total, self.self_time, self.calls, self.counters
        spawned = k["tracker.spawned"]
        steps = c["tracker.step"]
        hung = c["assignment.hungarian"]
        picks = k["summarize.picks"]
        out = {
            "sources.read_dump_s": t["sources.read_dump"] / n,
            "sources.lines": k["sources.lines"] / n,
            "sources.bytes_in": k["sources.bytes_in"] / n,
            "tracker.step_s": t["tracker.step"] / n,
            "tracker.self_s": s["tracker.step"] / n,
            "tracker.step_calls": steps / n,
            "tracker.live_tracks_mean": k["tracker.live_tracks"] / steps if steps else 0.0,
            "tracker.spawned": spawned / n,
            "tracker.confirmed_ratio": k["tracker.confirmed"] / spawned if spawned else 0.0,
            "kalman.predict_s": t["kalman.predict"] / n,
            "kalman.predict_calls": c["kalman.predict"] / n,
            "kalman.update_s": t["kalman.update"] / n,
            "kalman.update_calls": c["kalman.update"] / n,
            "assignment.hungarian_s": t["assignment.hungarian"] / n,
            "assignment.hungarian_calls": hung / n,
            "assignment.cells_mean": k["assignment.cells"] / hung if hung else 0.0,
            "assignment.strict_minima_ratio":
                k["assignment.strict_minima"] / hung if hung else 0.0,
            "geometry.iou_matrix_s": t["geometry.iou_matrix"] / n,
            "geometry.iou_matrix_calls": c["geometry.iou_matrix"] / n,
            "geometry.point_in_polygon_s": t["geometry.point_in_polygon"] / n,
            "geometry.point_in_polygon_calls": c["geometry.point_in_polygon"] / n,
            "stats.ingest_s": t["stats.ingest"] / n,
            "stats.export_s": t["stats.export"] / n,
            "rules.evaluate_s": t["rules.evaluate"] / n,
            "rules.self_s": s["rules.evaluate"] / n,
            "rules.alerts": k["rules.alerts"] / n,
            "rules.sink_send_s": t["rules.sink_send"] / n,
            "rules.sink_bytes": k["rules.sink_bytes"] / n,
            "pipeline.run_s": t["pipeline.run"] / n,
            "pipeline.self_s": s["pipeline.run"] / n,
            "cli.self_s": s["cli.main"] / n,
            "summarize.ground_set_s": t["summarize.ground_set"] / n,
            "summarize.model_build_s": t["summarize.model_build"] / n,
            "summarize.greedy_s": t["summarize.greedy"] / n,
            "summarize.gain_evals": k["summarize.gain_evals"] / n,
            "summarize.gain_evals_per_pick":
                k["summarize.gain_evals"] / picks if picks else 0.0,
            "augment.balance_s": t["augment.balance"] / n,
            "augment.materialize_s": t["augment.materialize"] / n,
            "augment.images_written": k["augment.images_written"] / n,
            "softmax.train_s": t["softmax.train"] / n,
            "softmax.epochs": k["softmax.epochs"] / n,
            "softmax.predict_s": t["softmax.predict"] / n,
            "evaluation.evaluate_s": t["evaluation.evaluate"] / n,
            "evaluation.predictions": k["evaluation.predictions"] / n,
        }
        out["trace.spans"] = sum(c.values()) / n
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
