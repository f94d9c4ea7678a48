"""Outside-in tracing: spans recorded from the benchmark's own files.

Nothing in ``src/`` is edited or imported privately.  A
:class:`Tracer` times public calls by replacing them, per instance,
with a timing wrapper (``daemon.ingest``, ``session.run_round``,
``store.observe``, ``backend.whatif_cost_batch`` …), by substituting
timing proxies into ``advisor.pipeline.stages``, and by subclassing
the benchmark's control-socket server to time ``dispatch``.

A span has a name, start, end, the span that caused it, the request
(ingest batch) it belongs to and the tuning round it ran in.  Spans
live in memory and are written when the run ends.  Calls made once
per statement would be millions of records, so those wrappers only
add to their name's totals (``keep=False``); both kinds take part in
self-time accounting: a span's self time is its duration minus the
time its direct children cover, so over any subtree self times sum to
the root's duration.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

from perfbench.daemon_main import BenchServer

__all__ = ["Tracer", "TracedServer", "instrument"]


class Tracer:
    def __init__(self) -> None:
        #: name → [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: kept spans: (id, parent id, name, start, end, request, round)
        self.spans: List[tuple] = []
        #: open frames: [child seconds, span id]
        self._stack: List[list] = []
        self._next_id = 1
        self.request = 0
        self.round = 0
        self._in_round = False

    # -- recording -----------------------------------------------------------

    def timed(
        self,
        fn: Callable,
        name: str,
        keep: bool = True,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped so every call is a span called ``name``."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        is_round = name == "round"
        is_request = name == "serve.dispatch"

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            if is_request:
                self.request += 1
            elif is_round:
                self.round += 1
                self._in_round = True
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans.append((
                        span_id, parent, name, start, end, self.request,
                        self.round if self._in_round else 0,
                    ))
                if is_round:
                    self._in_round = False
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (this instance only) by a timed one."""
        setattr(owner, attr, self.timed(getattr(owner, attr), name, **options))

    # -- reading -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def ms(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2] * 1e3

    def durations_ms(self, name: str) -> List[float]:
        return [(s[4] - s[3]) * 1e3 for s in self.spans if s[2] == name]

    def mark(self) -> Dict[str, List[float]]:
        """A copy of the totals, to subtract a warm-up from."""
        return {name: list(values) for name, values in self.totals.items()}

    def since(self, mark: Dict[str, List[float]], first_span: int) -> "Tracer":
        """The part of this trace recorded after ``mark``."""
        rest = Tracer()
        for name, values in self.totals.items():
            base = mark.get(name, (0, 0.0, 0.0))
            rest.totals[name] = [v - b for v, b in zip(values, base)]
        rest.spans = self.spans[first_span:]
        return rest

    def wrapper_seconds(self) -> float:
        """Time the wrappers themselves took: calls recorded × the
        measured cost of one wrapped call of a function that does
        nothing.  Unlike a traced-vs-untraced wall difference this
        does not depend on what else the machine was doing."""
        def nothing():
            return None

        timed = Tracer().timed(nothing, "nothing", keep=False)
        clock = time.perf_counter
        rounds = 20000
        started = clock()
        for _ in range(rounds):
            timed()
        wrapped = clock() - started
        started = clock()
        for _ in range(rounds):
            nothing()
        bare = clock() - started
        calls = sum(values[0] for values in self.totals.values())
        return calls * max(wrapped - bare, 0.0) / rounds

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "request", "round")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


class TracedServer(BenchServer):
    """The control-socket server with ``dispatch`` timed."""

    def __init__(self, daemon, socket_path: str, tracer: Tracer):
        super().__init__(daemon, socket_path)
        self.dispatch = tracer.timed(self.dispatch, "serve.dispatch")
        # The socket handler reaches the daemon through this hook.
        self._server.dispatch = self.dispatch


class _TimedStage:
    """Stands in for a pipeline stage; ``run`` is a span."""

    def __init__(self, stage, tracer: Tracer):
        self.name = stage.name
        self.run = tracer.timed(stage.run, f"stage.{stage.name}")


def instrument(daemon, tracer: Tracer, counts: Dict[str, float]) -> None:
    """Wrap the public layer boundaries of a built daemon.

    ``counts`` collects what only a return value tells: templates
    dropped by drift handling and the wall time rounds waited between
    being offered and admitted.
    """
    wrap = tracer.wrap
    wrap(daemon, "ingest", "serve.ingest")

    offered: Dict[str, float] = {}
    clock = time.perf_counter
    scheduler = daemon.scheduler
    offer, admit = scheduler.offer, scheduler.admit

    def timed_offer(tenant_id):
        queued = offer(tenant_id)
        if queued:
            offered[tenant_id] = clock()
        return queued

    def timed_admit():
        job = admit()
        if job is not None:
            counts["admit_wait_s"] += clock() - offered.pop(job.tenant_id)
        return job

    scheduler.offer = tracer.timed(timed_offer, "scheduler.offer", keep=False)
    scheduler.admit = tracer.timed(timed_admit, "scheduler.admit", keep=False)

    def drift_removed(removed):
        counts["drift_removed"] += removed

    for runtime in daemon.registry.runtimes():
        advisor = runtime.advisor
        backend = runtime.backend
        ddl = f"ddl.{backend.name}"
        wrap(runtime.session, "ingest", "session.ingest", keep=False)
        wrap(runtime.session, "run_round", "round")
        wrap(runtime, "save", "checkpoint.save")
        store = advisor.store
        wrap(store, "observe", "templates.observe", keep=False)
        wrap(store, "handle_drift", "templates.drift", on_result=drift_removed)
        wrap(store, "parse_fn", "sql.parse", keep=False)
        wrap(advisor.generator, "generate", "candidates.generate")
        wrap(advisor.diagnosis, "diagnose", "diagnosis.diagnose")
        wrap(advisor.diagnosis, "check_applied", "diagnosis.check_applied")
        estimator = advisor.estimator
        wrap(estimator, "workload_cost_delta", "estimator.cost_delta", keep=False)
        wrap(estimator, "workload_costs", "estimator.costs", keep=False)
        wrap(estimator, "shadow_workload_cost", "estimator.shadow")
        wrap(estimator.model, "predict", "model.predict", keep=False)
        wrap(backend, "whatif_cost", "whatif", keep=False)
        wrap(backend, "whatif_cost_batch", "whatif", keep=False)
        wrap(backend, "create_index", f"{ddl}.create")
        wrap(backend, "drop_index", f"{ddl}.drop")
        advisor.pipeline.stages = [
            _TimedStage(stage, tracer) for stage in advisor.pipeline.stages
        ]
