"""Span tracer for the benchmark's traced mode.

Spans are recorded from the benchmark's own files: each traced layer
function is replaced, where its callers look it up, by a wrapper that opens
a span around the original.  Self time (a span's duration minus the time
its child spans cover) is accumulated online per span name, so the per-layer
figures are exact however many spans there are.  Span records (id, name,
start, end, parent id, op id) are kept in memory up to a cap and written out
when the run ends; spans past the cap are still counted and timed.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Dict, List, Tuple

# (owner path under the lockstepsim package, attribute, span name).  An owner
# path is a dotted chain of attributes starting at the package object; each
# entry is a place where program code looks the function up at call time.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("", "load_scenario", "scenario.load"),
    ("scenario", "validate_scenario", "scenario.validate"),
    ("engine", "validate_scenario", "scenario.validate"),
    ("scenario", "scenario_digest", "scenario.digest"),
    ("engine", "scenario_digest", "scenario.digest"),
    ("", "run", "engine.run"),
    ("sweep", "run", "engine.run"),
    ("engine.World", "__init__", "engine.world_init"),
    ("engine.World", "run", "engine.world_run"),
    ("engine.World", "step", "engine.step"),
    ("block.ProcessingBlock", "tick", "block.tick"),
    ("faults.FaultEngine", "on_cycle_start", "faults.cycle_start"),
    ("faults.FaultEngine", "filter_tx", "faults.filter_tx"),
    ("faults.FaultEngine", "stochastic_flips", "faults.stochastic"),
    ("monitor.LockstepMonitor", "vote", "monitor.vote"),
    ("monitor.LockstepMonitor", "request_sp", "monitor.rendezvous"),
    ("monitor.LockstepMonitor", "on_sync_read", "monitor.rendezvous"),
    ("monitor.LockstepMonitor", "on_exit_read", "monitor.rendezvous"),
    ("monitor.LockstepMonitor", "finalize_rendezvous", "monitor.rendezvous"),
    ("monitor.LockstepMonitor", "finalize_release", "monitor.rendezvous"),
    ("monitor.LockstepMonitor", "observe", "monitor.observe"),
    ("bus.MemoryMap", "issue", "bus.issue"),
    ("", "emit_trace", "trace.emit"),
    ("sweep", "fault_sweep", "sweep.sweep"),
    ("sweep", "arrival_sweep", "sweep.sweep"),
    ("sweep", "check_masking_point", "sweep.check"),
    ("sweep", "check_arrival_point", "sweep.check"),
)


def _resolve(api, owner: str):
    obj = api
    for part in filter(None, owner.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Per-name call counts and self times, plus a capped span record."""

    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, self seconds]
        self.spans: List[tuple] = []
        self.op = -1  # op id stamped on every span; -1 is set-up
        self._next_id = 0
        self._stack: List[list] = []  # open spans: [id, child seconds]
        self._installed: List[tuple] = []

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that every call is one span ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if sid < self.span_cap:
                    spans.append((sid, name, start, end, parent, self.op))

        return traced

    def install(self, api) -> None:
        """Wrap every target binding that exists in this program version.
        A binding the program no longer has is skipped and its layer then
        reads zero calls."""
        for owner_path, attr, name in TARGETS:
            owner = _resolve(api, owner_path)
            if owner is None:
                continue
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0))[0])

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def mean_self(self, name: str) -> float:
        """Mean self time per call in seconds, 0.0 for a layer never called."""
        calls = self.calls(name)
        return self.self_seconds(name) / calls if calls else 0.0

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines, times relative to the
        earliest span's start."""
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as fh:
            for sid, name, start, end, parent, op in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "op": op,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }) + "\n")
            dropped = self._next_id - len(self.spans)
            fh.write(json.dumps({"dropped_spans": dropped}) + "\n")
