"""Per-layer measurement from outside the program.

Nothing under ``src/`` knows about this module.  A traced fit gets its
layer numbers from three places:

* the spans ``repro.obs.Tracer`` already records (``pipeline:*``,
  ``phase:*``, ``job:*`` and its ``map``/``shuffle``/``reduce`` stages);
* :class:`RecordingRunner`, handed to ``MrMCMinH(runner=...)``, which
  keeps each job's counters and samples memory when a job returns;
* :class:`Hooks`, which wraps public symbols where their callers look
  them up and restores them on exit.  Coarse calls become ``hook`` spans;
  hot calls (per record or per group) only add to time accumulators, kept
  per enclosing span so the self-time ledger can subtract them.

A hook whose target symbol no longer exists is skipped and listed in
``Hooks.missing``; the metrics it feeds are then reported as absent.

The hot wrappers' own cost falls outside their timed intervals, in the
self time of the span that made the call.  :func:`wrapper_costs`
calibrates it per pass, and the ledger moves it to :data:`HOOK_OVERHEAD`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

JOBS = ("sketch", "similarity", "lsh-candidates", "verify-candidates")

#: Span kinds the MapReduce runner opens around its own code.
RUNNER_SPAN_KINDS = ("job", "stage", "task", "attempt", "chain")
#: Ledger entry for the estimated cost of the hot wrappers themselves.
HOOK_OVERHEAD = "hook_overhead"
#: Ledger entry for self time of spans no layer is known to own.
UNATTRIBUTED = "unattributed"

#: Unit of every per-layer metric this module can produce.
UNITS: dict[str, str] = {
    "pipeline.fit_s": "s",
    "pipeline.driver_self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.hook_overhead_s": "s",
    "trace.accounted_share": "ratio",
    "sketch.batch_s": "s",
    "sketch.reads": "count",
    "sketch.reads_per_s": "1/s",
    **{
        f"job.{job}.{field}": unit
        for job in JOBS
        for field, unit in (
            ("wall_s", "s"),
            ("map_s", "s"),
            ("shuffle_s", "s"),
            ("reduce_s", "s"),
            ("map_out_records", "count"),
            ("shuffle_records", "count"),
            ("shuffle_bytes", "B"),
            ("retries", "count"),
        )
    },
    "shuffle.partition_hash_s": "s",
    "shuffle.partition_hash_calls": "count",
    "shuffle.group_sort_s": "s",
    "spill.write_s": "s",
    "spill.merge_s": "s",
    "spill.segments": "count",
    "spill.bytes": "B",
    "lsh.band_map_s": "s",
    "lsh.pair_reduce_s": "s",
    "lsh.pair_records": "count",
    "lsh.candidate_pairs": "count",
    "verify.combine_s": "s",
    "verify.reduce_s": "s",
    "verify.edges": "count",
    "verify.side_data_bytes": "B",
    "verify.edge_yield": "ratio",
    "matrix.similarity_s": "s",
    "matrix.bytes": "B",
    "hier.agglomerate_s": "s",
    "greedy.sweep_s": "s",
    "edges.stream_add_s": "s",
    "edges.stream_finish_s": "s",
    "mem.hwm_setup_mib": "MiB",
    "mem.hwm_sketch_mib": "MiB",
    "mem.hwm_similarity_mib": "MiB",
    "mem.hwm_cluster_mib": "MiB",
}


def max_rss_mib() -> float:
    """This process's ``ru_maxrss`` high-water mark (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class Hook:
    """One wrapped symbol.

    ``sites`` are ``(module, attribute path)`` pairs: every binding a
    caller resolves at call time.  ``style`` is ``"span"`` (coarse call,
    recorded as a span), ``"hot"`` (plain call, accumulated), ``"gen"``
    (generator; time spent producing its items is accumulated) or
    ``"stream"`` (a factory whose product's ``add``/``finish`` are timed).
    """

    name: str
    layer: str
    style: str
    sites: tuple[tuple[str, str], ...]


HOOKS: tuple[Hook, ...] = (
    Hook("sketch.batch", "repro.minhash.sketch", "span",
         (("repro.cluster.pipeline", "sketch_values_batch"),)),
    Hook("matrix.similarity", "repro.cluster.matrix", "span",
         (("repro.cluster.pipeline", "compute_similarity_matrix"),)),
    # The band mapper's kernel: without it the ledger would bill the dense
    # similarity computation to the runner's map stage.
    Hook("similarity.kernel", "repro.minhash.similarity", "span",
         (("repro.cluster.matrix", "pairwise_similarity_matrix"),)),
    Hook("hier.agglomerate", "repro.cluster.hierarchical", "span",
         (("repro.cluster.pipeline", "agglomerative_cluster"),)),
    Hook("greedy.sweep", "repro.cluster.greedy", "span",
         (("repro.cluster.pipeline", "greedy_cluster"),)),
    # default_partitioner looks stable_hash up in the shuffle module.
    Hook("shuffle.partition_hash", "repro.mapreduce.shuffle", "hot",
         (("repro.mapreduce.shuffle", "stable_hash"),)),
    # The runner imported shuffle by name, so its binding is wrapped too.
    Hook("shuffle.group", "repro.mapreduce.shuffle", "span",
         (("repro.mapreduce.shuffle", "shuffle"),
          ("repro.mapreduce.runner", "shuffle"))),
    Hook("spill.add", "repro.mapreduce.shuffle", "span",
         (("repro.mapreduce.shuffle", "SpillingShuffle.add_task_output"),)),
    Hook("spill.finish", "repro.mapreduce.shuffle", "span",
         (("repro.mapreduce.shuffle", "SpillingShuffle.finish"),)),
    Hook("spill.merge", "repro.mapreduce.shuffle", "gen",
         (("repro.mapreduce.shuffle", "SpilledPartition.__iter__"),)),
    Hook("lsh.band_map", "repro.cluster.sparse_jobs", "gen",
         (("repro.cluster.sparse_jobs", "LshBandMapper.__call__"),)),
    Hook("lsh.pair_reduce", "repro.cluster.sparse_jobs", "gen",
         (("repro.cluster.sparse_jobs", "CandidatePairReducer.__call__"),)),
    Hook("verify.combine", "repro.cluster.sparse_jobs", "gen",
         (("repro.cluster.sparse_jobs", "sum_combiner"),)),
    Hook("verify.reduce", "repro.cluster.sparse_jobs", "gen",
         (("repro.cluster.sparse_jobs", "VerifyReducer.__call__"),)),
    Hook("edges.stream", "repro.cluster.sparse", "stream",
         (("repro.cluster.sparse_jobs", "make_edge_stream"),)),
)


class LayerProbe:
    """Accumulates what the hooks and the recording runner observe."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        # span id -> {hook name: hot seconds spent while that span was current}
        self.hot_by_span: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        # span id -> {(hook style, "call" or "item"): wrapper passes made there}
        self.passes_by_span: dict[int, dict[tuple[str, str], int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.layer_of: dict[str, str] = {}
        self.values: dict[str, float] = defaultdict(float)
        self.hwm: dict[str, float] = {}
        self.jobs: dict[str, dict[str, int]] = {}

    def mark(self, phase: str, *, only_if_unset: bool = False) -> None:
        if only_if_unset and phase in self.hwm:
            return
        self.hwm[phase] = max_rss_mib()

    def add_hot(self, hook: Hook, seconds: float, items: int = 1) -> None:
        self.seconds[hook.name] += seconds
        self.calls[hook.name] += 1
        self.items[hook.name] += items
        self.layer_of[hook.name] = hook.layer
        span = self.tracer.current_span()
        span_id = span.span_id if span else 0
        self.hot_by_span[span_id][hook.name] += seconds
        passes = self.passes_by_span[span_id]
        passes[hook.style, "call"] += 1
        passes[hook.style, "item"] += items


class RecordingRunner:
    """Delegates to a real runner and records each job's outcome."""

    def __init__(self, inner, probe: LayerProbe):
        self.inner = inner
        self.probe = probe

    def run(self, job, inputs, conf=None, **kwargs):
        result = self.inner.run(job, inputs, conf, **kwargs)
        counters = result.counters
        self.probe.jobs[job.name] = {
            "map_out_records": counters.get("job", "map_output_records"),
            "shuffle_records": counters.get("job", "shuffle_records"),
            "shuffle_bytes": result.trace.shuffle_bytes if result.trace else 0,
            "retries": counters.get("fault", "task_retries"),
        }
        if job.name == "sketch":
            self.probe.mark("sketch")
        elif job.name in ("similarity", "verify-candidates"):
            self.probe.mark("similarity")
        return result


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, current value)`` or ``None`` if missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Hooks:
    """Context manager installing :data:`HOOKS` around one traced fit."""

    def __init__(self, probe: LayerProbe, hooks=HOOKS):
        self.probe = probe
        self.hooks = hooks
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        for hook in self.hooks:
            resolved = [_resolve(module, path) for module, path in hook.sites]
            if not resolved or any(r is None for r in resolved):
                self.missing.append(hook.name)
                continue
            for owner, attr, original in resolved:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(hook, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, hook: Hook, original):
        wrapper = getattr(self, f"_wrap_{hook.style}")(hook, original)
        return functools.wraps(original)(wrapper)

    def _wrap_span(self, hook: Hook, original):
        probe = self.probe

        def wrapper(*args, **kwargs):
            _before(hook.name, probe, args)
            t0 = time.perf_counter()
            with probe.tracer.span(f"hook:{hook.name}", kind="hook", layer=hook.layer):
                result = original(*args, **kwargs)
            probe.seconds[hook.name] += time.perf_counter() - t0
            probe.calls[hook.name] += 1
            _after(hook.name, probe, args, result)
            return result

        return wrapper

    def _wrap_hot(self, hook: Hook, original):
        probe = self.probe
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            probe.add_hot(hook, clock() - t0)
            return result

        return wrapper

    def _wrap_gen(self, hook: Hook, original):
        probe = self.probe

        def wrapper(*args, **kwargs):
            _before(hook.name, probe, args)
            return _timed_items(probe, hook, original(*args, **kwargs))

        return wrapper

    def _wrap_stream(self, hook: Hook, original):
        probe = self.probe
        add_hook = Hook(f"{hook.name}_add", hook.layer, "hot", ())
        finish_name = f"{hook.name}_finish"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stream = original(*args, **kwargs)
            add, finish = stream.add, stream.finish

            def timed_add(i, j):
                t0 = clock()
                add(i, j)
                probe.add_hot(add_hook, clock() - t0)

            def timed_finish():
                t0 = clock()
                with probe.tracer.span(f"hook:{finish_name}", kind="hook", layer=hook.layer):
                    result = finish()
                probe.seconds[finish_name] += clock() - t0
                probe.calls[finish_name] += 1
                _after(finish_name, probe, (), result)
                return result

            stream.add, stream.finish = timed_add, timed_finish
            return stream

        return wrapper


def _timed_items(probe: LayerProbe, hook: Hook, iterator):
    """Re-yield ``iterator``'s items, timing only the producer's work."""
    clock = time.perf_counter
    spent = 0.0
    count = 0
    try:
        while True:
            t0 = clock()
            try:
                item = next(iterator)
            except StopIteration:
                spent += clock() - t0
                return
            spent += clock() - t0
            count += 1
            yield item
    finally:
        probe.add_hot(hook, spent, count)


def wrapper_costs(passes: int = 20_000, repeats: int = 5) -> dict[tuple[str, str], float]:
    """Seconds one pass through a hot or generator wrapper adds.

    Keys match :attr:`LayerProbe.passes_by_span`: a hot call, a generator
    call (wrapping, ``_before`` and the final ``add_hot``) and a generator
    item.  Each cost is the time wrapped no-ops take beyond bare ones,
    median over ``repeats`` alternating measurements.  One clock read of
    it lies inside the timed interval and so is billed to the hooked layer
    too (tens of nanoseconds a pass).
    """
    from repro.obs.trace import Tracer

    hooks = Hooks(LayerProbe(Tracer()), hooks=())

    def noop(arg):
        return arg

    def no_items(arg):
        return
        yield

    def many_items(arg):
        yield from itertools.repeat(arg, passes)

    def call_loop(fn):
        for i in range(passes):
            fn(i)

    def drain_calls(fn):
        for i in range(passes):
            for _ in fn(i):
                pass

    def drain(iterator):
        for _ in iterator:
            pass

    hot = hooks._wrap_hot(Hook("calibrate.hot", "", "hot", ()), noop)
    gen = functools.partial(hooks._wrap_gen, Hook("calibrate.gen", "", "gen", ()))
    wrapped_calls, wrapped_items = gen(no_items), gen(many_items)
    runs = {
        ("hot", "call"): (lambda: call_loop(noop), lambda: call_loop(hot)),
        ("gen", "call"): (lambda: drain_calls(no_items), lambda: drain_calls(wrapped_calls)),
        ("gen", "item"): (lambda: drain(many_items(0)), lambda: drain(wrapped_items(0))),
    }

    def seconds(run) -> float:
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    costs = {("hot", "item"): 0.0}
    for key, (bare, wrapped) in runs.items():
        extra = statistics.median(seconds(wrapped) - seconds(bare) for _ in range(repeats))
        costs[key] = max(0.0, extra / passes)
    return costs


def _before(name: str, probe: LayerProbe, args) -> None:
    """What a hook records from a call's arguments, before it runs."""
    if name in ("hier.agglomerate", "greedy.sweep"):
        # A path without a similarity phase marks it as clustering starts.
        probe.mark("similarity", only_if_unset=True)
    elif name == "verify.reduce":
        probe.values["verify.side_data_bytes"] = args[0].side.nbytes


def _after(name: str, probe: LayerProbe, args, result) -> None:
    """What a hook records from a call's result."""
    if name == "sketch.batch":
        probe.values["sketch.reads"] += len(result[1])
    elif name == "matrix.similarity":
        probe.values["matrix.bytes"] += result[0].nbytes
        probe.mark("similarity")
    elif name in ("hier.agglomerate", "greedy.sweep", "edges.stream_finish"):
        probe.mark("cluster")
    elif name == "spill.finish":
        spill = args[0]
        probe.values["spill.segments"] += spill.spill_segments
        probe.values["spill.bytes"] += spill.spill_bytes


# ------------------------------------------------------------------ metrics


def _hot_inside(probe: LayerProbe, spans, hot_name: str, span_name: str) -> float:
    """Hot seconds of ``hot_name`` recorded while a ``span_name`` span was current."""
    return sum(
        probe.hot_by_span.get(s.span_id, {}).get(hot_name, 0.0)
        for s in spans
        if s.name == span_name
    )


def layer_metrics(tracer, probe: LayerProbe) -> tuple[dict, dict]:
    """Per-layer metrics of one traced fit, and its self-time ledger.

    Returns ``(metrics, ledger)``.  ``metrics`` holds only the layers this
    fit's path ran and whose hooks were installed (a missing hook never
    fires); ``ledger`` maps each module to the self time of its spans and
    accumulators within the fit, plus :data:`HOOK_OVERHEAD` and
    :data:`UNATTRIBUTED`.
    """
    spans = tracer.spans
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    root = next(s for s in spans if s.name == "pipeline:mrmcminh")
    fit = root.duration_s
    phases = [c for c in children[root.span_id] if c.kind == "phase"]

    m: dict[str, float] = {
        "pipeline.fit_s": fit,
        "pipeline.driver_self_s": fit - sum(p.duration_s for p in phases),
    }
    for name in ("setup", "sketch", "similarity", "cluster"):
        if name in probe.hwm:
            m[f"mem.hwm_{name}_mib"] = probe.hwm[name]

    for job in JOBS:
        job_spans = [s for s in spans if s.kind == "job" and s.name == f"job:{job}"]
        if not job_spans or job not in probe.jobs:
            continue
        m[f"job.{job}.wall_s"] = sum(s.duration_s for s in job_spans)
        for stage in ("map", "shuffle", "reduce"):
            m[f"job.{job}.{stage}_s"] = sum(
                c.duration_s
                for s in job_spans
                for c in children[s.span_id]
                if c.kind == "stage" and c.name == stage
            )
        for field, value in probe.jobs[job].items():
            m[f"job.{job}.{field}"] = value

    ran = lambda name: probe.calls.get(name, 0) > 0  # noqa: E731
    sec = probe.seconds
    if ran("sketch.batch"):
        m["sketch.batch_s"] = sec["sketch.batch"]
        m["sketch.reads"] = probe.values["sketch.reads"]
        m["sketch.reads_per_s"] = probe.values["sketch.reads"] / sec["sketch.batch"]
    if ran("shuffle.partition_hash"):
        m["shuffle.partition_hash_s"] = sec["shuffle.partition_hash"]
        m["shuffle.partition_hash_calls"] = probe.items["shuffle.partition_hash"]
    hashed_in = lambda span: _hot_inside(probe, spans, "shuffle.partition_hash", span)  # noqa: E731
    if ran("shuffle.group"):
        m["shuffle.group_sort_s"] = sec["shuffle.group"] - hashed_in("hook:shuffle.group")
    if ran("spill.add") and ran("spill.finish"):
        m["spill.write_s"] = sec["spill.add"] - hashed_in("hook:spill.add")
        m["spill.merge_s"] = sec["spill.finish"] + sec["spill.merge"]
        m["spill.segments"] = probe.values["spill.segments"]
        m["spill.bytes"] = probe.values["spill.bytes"]
    if ran("lsh.band_map"):
        m["lsh.band_map_s"] = sec["lsh.band_map"]
    if ran("lsh.pair_reduce"):
        m["lsh.pair_reduce_s"] = sec["lsh.pair_reduce"]
        m["lsh.pair_records"] = probe.items["lsh.pair_reduce"]
    if ran("verify.combine"):
        m["verify.combine_s"] = sec["verify.combine"]
    if ran("verify.reduce"):
        m["verify.reduce_s"] = sec["verify.reduce"]
        m["lsh.candidate_pairs"] = probe.items["verify.reduce"]
        m["verify.side_data_bytes"] = probe.values["verify.side_data_bytes"]
    if ran("edges.stream_finish"):
        m["edges.stream_add_s"] = sec["edges.stream_add"]
        m["edges.stream_finish_s"] = sec["edges.stream_finish"]
        m["verify.edges"] = probe.items["edges.stream_add"]
        if m.get("lsh.candidate_pairs"):
            m["verify.edge_yield"] = m["verify.edges"] / m["lsh.candidate_pairs"]
    if ran("matrix.similarity"):
        m["matrix.similarity_s"] = sec["matrix.similarity"]
        m["matrix.bytes"] = probe.values["matrix.bytes"]
    if ran("hier.agglomerate"):
        m["hier.agglomerate_s"] = sec["hier.agglomerate"]
    if ran("greedy.sweep"):
        m["greedy.sweep_s"] = sec["greedy.sweep"]

    ledger = _ledger(root, children, probe, wrapper_costs())
    overhead = ledger[HOOK_OVERHEAD]
    named = fit - overhead - ledger[UNATTRIBUTED]
    m["trace.hook_overhead_s"] = overhead
    # Share of the traced fit, net of the hooks' own cost, that the named
    # layers' self times explain.
    m["trace.accounted_share"] = named / (fit - overhead)
    return m, ledger


def _span_layer(span) -> str:
    if span.kind == "hook":
        return span.attrs["layer"]
    if span.kind == "spill":
        return "repro.mapreduce.shuffle"
    if span.kind in ("phase", "pipeline"):
        if span.name in ("phase:lsh-candidates", "phase:verify"):
            return "repro.cluster.sparse_jobs"
        return "repro.cluster.pipeline"
    if span.kind in RUNNER_SPAN_KINDS:
        return "repro.mapreduce.runner"
    return UNATTRIBUTED


def _ledger(
    root, children, probe: LayerProbe, costs: dict[tuple[str, str], float]
) -> dict[str, float]:
    """Self seconds per module over the fit's span tree.

    A span's self time is its duration minus its child spans, minus the
    hot accumulators recorded while it was current (billed to their own
    layers) and minus the wrapper passes made there times their ``costs``
    (billed to :data:`HOOK_OVERHEAD`).  The entries sum to the fit's span.
    """
    ledger: dict[str, float] = defaultdict(float, {HOOK_OVERHEAD: 0.0, UNATTRIBUTED: 0.0})
    stack = [root]
    while stack:
        span = stack.pop()
        kids = children[span.span_id]
        stack.extend(kids)
        hot = probe.hot_by_span.get(span.span_id, {})
        passes = probe.passes_by_span.get(span.span_id, {})
        overhead = sum(n * costs[key] for key, n in passes.items())
        own = (
            span.duration_s
            - sum(k.duration_s for k in kids)
            - sum(hot.values())
            - overhead
        )
        ledger[_span_layer(span)] += own
        ledger[HOOK_OVERHEAD] += overhead
        for name, seconds in hot.items():
            ledger[probe.layer_of[name]] += seconds
    return dict(sorted(ledger.items(), key=lambda kv: -kv[1]))
