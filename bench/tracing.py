"""Spans and counts recorded from outside tokencover.

``Tracer.install`` replaces public functions where their callers look them
up (``tokencover.cli.calibrate_exact``, ``tokencover.sim.build_set``, the
scorer classes' ``score_question`` and so on) with wrappers that record a
span: name, start, end, parent span and run id. ``uninstall`` puts the
originals back, so traced and untraced passes alternate in one process.
Spans stay in memory; ``pass_metrics`` turns them into per-layer metrics
and ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

# (module, attribute, span name). A name missing in a version is skipped,
# with a warning on stderr, and listed under trace_skipped in the run's record.
FUNCTIONS = [
    ("cli", "load_dataset", "core.load"),
    ("sim", "split_dataset", "core.split"),
    ("cli", "calibrate_exact", "calibrate.exact"),
    # sim calibrates exactly in two steps, one call of each per trial. The
    # second one's span adds to calibrate.exact_s but is not a call of its own.
    ("sim", "critical_thresholds", "calibrate.exact"),
    ("sim", "_risks_at", "calibrate.exact_risks"),
    ("cli", "calibrate_grid", "calibrate.grid"),
    ("sim", "calibrate_grid", "calibrate.grid"),
    ("cli", "risk_curve", "calibrate.risk_curve"),
    ("cli", "empirical_risk", "calibrate.empirical_risk"),
    ("cli", "build_set", "sets.build_set"),
    ("sets", "build_set", "sets.build_set"),
    ("sim", "build_set", "sets.build_set"),
    ("cli", "predict_batch", "sets.predict_batch"),
    ("cli", "evaluate", "sets.evaluate"),
    ("cli", "load_lexicon", "robust.lexicon_load"),
    ("cli", "build_robust_set", "robust.build_robust_set"),
    ("robust", "robust_scores", "robust.robust_scores"),
    ("sim", "robust_scores", "robust.robust_scores"),
    ("sim", "inject_noise", "robust.inject_noise"),
    ("sim", "generate_synthetic_dataset", "sim.generate"),
    ("sim", "synthetic_lexicon", "sim.lexicon"),
]
METHODS = [("scorer", "ScoreCache", "get", "scorer.disk_get"),
           ("scorer", "ScoreCache", "put", "scorer.disk_put")]
SCORE_METHODS = ("score_question", "score_token")
# One span of these, when no calibrate.* span encloses it, is one calibrate call.
CALIBRATE_SPANS = ("calibrate.exact", "calibrate.grid", "calibrate.risk_curve",
                   "calibrate.empirical_risk")

PER_LAYER = [
    "core.load_s", "core.records", "core.split_s",
    "calibrate.exact_s", "calibrate.grid_s", "calibrate.risk_curve_s",
    "calibrate.empirical_risk_s", "calibrate.calls", "calibrate.thresholds",
    "calibrate.peak_alloc_mb", "calibrate.exact_scaling_exp",
    "scorer.calls", "scorer.score_s", "scorer.cache_hits", "scorer.cache_hit_ratio",
    "scorer.remote_attempts", "scorer.retries", "scorer.remote_wait_s",
    "scorer.disk_get_s", "scorer.disk_put_s",
    "sets.build_set_calls", "sets.build_set_s", "sets.predict_batch_s", "sets.evaluate_s",
    "robust.ball_members", "robust.members_scored", "robust.robust_scores_s",
    "robust.build_robust_set_s", "robust.items_kept_ratio", "robust.inject_noise_s",
    "robust.lexicon_load_s", "robust.s_per_member",
    "sim.generate_s", "sim.lexicon_s", "sim.trials",
    "cli.self_s", "cli.bytes_out",
    "trace.overhead",
]


class Tracer:
    def __init__(self, tc: Any):
        self.tc = tc
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.scorers: dict[int, Any] = {}
        self.robust_calls: list[tuple[int, float, str]] = []  # (ball size, seconds, mode)
        self.run_id = 0
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        self.skipped: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        # A pool thread's first span hangs under the main thread's open span.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack().pop()
        return span[2] - span[1]

    def parent_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.close(idx)
            if hook is not None:
                hook(result, args, seconds)
            return result

        return wrapper

    def _wrap_calibrate(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        """Span plus the tracemalloc peak of the call."""
        inner = self._wrap(fn, name, hook)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():  # nested inside another calibrate span
                return inner(*args, **kwargs)
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                counts["calibrate.peak_alloc"] = max(counts["calibrate.peak_alloc"], peak)

        return wrapper

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, alloc: bool = False) -> None:
        """Wrap everything; with ``alloc`` the calibrate spans also measure
        their tracemalloc peak, which slows them, so their times are not used."""
        tc = self.tc
        hooks: dict[tuple[str, str], Callable] = {
            ("cli", "load_dataset"): self._after_load,
            ("sim", "critical_thresholds"): self._after_thresholds,
            ("cli", "build_robust_set"): self._after_build_robust_set,
            ("robust", "robust_scores"): self._after_robust_scores,
            ("sim", "robust_scores"): self._after_robust_scores,
        }
        for mod_name, attr, name in FUNCTIONS:
            if self._found(mod_name, attr):
                mod = getattr(tc, mod_name)
                wrap = self._wrap_calibrate if alloc and name.startswith("calibrate.") else self._wrap
                self._patch(mod, attr, wrap(vars(mod)[attr], name, hooks.get((mod_name, attr))))
        # calibrate_exact looks this up in its own module; count what it returns.
        if self._found("calibrate", "critical_thresholds"):
            self._patch(tc.calibrate, "critical_thresholds",
                        self._count(tc.calibrate.critical_thresholds))
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(getattr(tc, mod_name), cls_name)
            self._patch(cls, meth, self._wrap(vars(cls)[meth], name, None))
        for cls in list(vars(tc.scorer).values()):
            if isinstance(cls, type):
                for meth in SCORE_METHODS:
                    if meth in vars(cls):
                        self._patch(cls, meth, self._wrap_score(vars(cls)[meth]))
        import requests

        self._patch(requests, "post", self._wrap(requests.post, "scorer.remote_wait", None))

    def _found(self, mod_name: str, attr: str) -> bool:
        """Whether tokencover.<mod_name> has <attr>; a missing one is reported once."""
        if attr in vars(getattr(self.tc, mod_name)):
            return True
        if f"{mod_name}.{attr}" not in self.skipped:
            self.skipped.append(f"{mod_name}.{attr}")
            print(f"bench: tokencover.{mod_name}.{attr} not found; it is not traced",
                  file=sys.stderr)
        return False

    def _count(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["calibrate.thresholds"] += len(result)
            return result

        return wrapper

    def _wrap_score(self, fn: Callable) -> Callable:
        inner = self._wrap(fn, "scorer.score", None)
        scorers = self.scorers

        @functools.wraps(fn)
        def wrapper(scorer, *args, **kwargs):
            scorers[id(scorer)] = scorer
            return inner(scorer, *args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- hooks: counts at the same boundaries as the spans -------------------

    def _after_load(self, dataset: Any, args: tuple, seconds: float) -> None:
        self.counts["core.records"] += len(dataset)

    def _after_thresholds(self, thresholds: Any, args: tuple, seconds: float) -> None:
        self.counts["calibrate.thresholds"] += len(thresholds)

    def _after_build_robust_set(self, rset: Any, args: tuple, seconds: float) -> None:
        self.counts["robust.items_kept"] += len(rset.items)

    def _after_robust_scores(self, table: dict, args: tuple, seconds: float) -> None:
        question, lexicon, spec, scorer = args[:4]
        size = self.tc.robust.ball_size(question, lexicon, spec)
        self.counts["robust.ball_members"] += size
        self.robust_calls.append((size, seconds, spec.mode))
        if self.parent_name() == "robust.build_robust_set":
            self.counts["robust.pairs_in_sets"] += len(table)

    # -- results -------------------------------------------------------------

    def begin_pass(self) -> tuple[int, Counter, int]:
        self.scorers.clear()
        return len(self.spans), self.counts.copy(), len(self.robust_calls)

    def pass_metrics(self, mark: tuple[int, Counter, int], cli_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``mark``."""
        first, before, first_robust = mark
        spans = self.spans[first:]
        counts = self.counts - before
        total: dict[str, float] = defaultdict(float)
        n: Counter = Counter()
        for name, start, end, _, _ in spans:
            total[name] += end - start
            n[name] += 1
        self_time = self.self_times(first)
        calls = sum(s.calls for s in self.scorers.values())
        hits = sum(s.cache_hits for s in self.scorers.values())
        exact = [(size, sec) for size, sec, mode in self.robust_calls[first_robust:] if mode == "exact"]
        kept, pairs = counts["robust.items_kept"], counts["robust.pairs_in_sets"]
        return {
            "core.load_s": total["core.load"],
            "core.records": counts["core.records"],
            "core.split_s": total["core.split"],
            "calibrate.exact_s": total["calibrate.exact"] + total["calibrate.exact_risks"],
            "calibrate.grid_s": total["calibrate.grid"],
            "calibrate.risk_curve_s": total["calibrate.risk_curve"],
            "calibrate.empirical_risk_s": total["calibrate.empirical_risk"],
            "calibrate.calls": self._calibrate_calls(first),
            "calibrate.thresholds": counts["calibrate.thresholds"],
            "calibrate.peak_alloc_mb": self.counts["calibrate.peak_alloc"] / 2**20,
            "scorer.calls": calls,
            "scorer.score_s": total["scorer.score"],
            "scorer.cache_hits": hits,
            "scorer.cache_hit_ratio": hits / (hits + calls) if hits + calls else 0.0,
            "scorer.remote_wait_s": total["scorer.remote_wait"],
            "scorer.disk_get_s": total["scorer.disk_get"],
            "scorer.disk_put_s": total["scorer.disk_put"],
            "sets.build_set_calls": n["sets.build_set"],
            "sets.build_set_s": total["sets.build_set"],
            "sets.predict_batch_s": total["sets.predict_batch"],
            "sets.evaluate_s": total["sets.evaluate"],
            "robust.ball_members": counts["robust.ball_members"],
            "robust.members_scored": self._members_scored(first),
            "robust.robust_scores_s": total["robust.robust_scores"],
            "robust.build_robust_set_s": total["robust.build_robust_set"],
            "robust.items_kept_ratio": kept / pairs if pairs else 0.0,
            "robust.inject_noise_s": total["robust.inject_noise"],
            "robust.lexicon_load_s": total["robust.lexicon_load"],
            "robust.s_per_member": seconds_per_member(exact),
            "sim.generate_s": total["sim.generate"],
            "sim.lexicon_s": total["sim.lexicon"],
            "cli.self_s": sum(t for name, t in self_time.items() if name.startswith("cli.")),
            "cli.bytes_out": cli_bytes,
        }

    def _calibrate_calls(self, first: int) -> int:
        """Calibrate spans since ``first`` that no other calibrate span encloses."""
        spans = self.spans
        return sum(1 for i in range(first, len(spans)) if spans[i][0] in CALIBRATE_SPANS and (
            spans[i][3] < 0 or not spans[spans[i][3]][0].startswith("calibrate.")))

    def _members_scored(self, first: int) -> int:
        """Scoring calls made inside robust_scores spans."""
        spans = self.spans
        in_robust: dict[int, bool] = {}

        def under_robust(i: int) -> bool:
            if i < 0:
                return False
            if i not in in_robust:
                in_robust[i] = spans[i][0] == "robust.robust_scores" or under_robust(spans[i][3])
            return in_robust[i]

        return sum(1 for i in range(first, len(spans))
                   if spans[i][0] == "scorer.score" and under_robust(spans[i][3]))

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Span time minus the part of it that child spans cover, per span name."""
        spans = self.spans
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for i in range(first, len(spans)):
            parent = spans[i][3]
            if parent >= first:
                children[parent].append((spans[i][1], spans[i][2]))
        out: dict[str, float] = defaultdict(float)
        for i in range(first, len(spans)):
            name, start, end = spans[i][:3]
            covered, reach = 0.0, start
            for s, e in sorted(children.get(i, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out[name] += end - start - covered
        return dict(out)

    def dump(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[code[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4]] for s in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "run_id"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def seconds_per_member(calls: list[tuple[int, float]]) -> float:
    """Least-squares slope of robust-scoring time over ball size, fitted to
    the mean time of each ball size, so per-question overhead stays out."""
    groups: dict[int, list[float]] = defaultdict(list)
    for size, seconds in calls:
        groups[size].append(seconds)
    if len(groups) < 2:
        return 0.0
    sizes = np.array(sorted(groups), dtype=np.float64)
    means = np.array([np.mean(groups[s]) for s in sorted(groups)])
    return float(np.polyfit(sizes, means, 1)[0])
