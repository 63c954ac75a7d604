"""One measured process: a single ``MrMCMinH.fit``, or the references.

``run.py`` starts this file in a fresh interpreter per fit, so every fit
pays its own imports and read generation (``setup_s``) and owns its own
``ru_maxrss`` (``peak_rss_mib``).  The request is one JSON argument; the
last stdout line is the JSON result::

    python fit_child.py '{"mode": "fit", "workload": "16s-engine-mem",
                          "size": 500, "seed": 0, "traced": false}'

``mode`` is ``"fit"`` or ``"reference"`` (digests of the reference
clustering for every size in ``sizes``).  A traced fit installs the
layer hooks, activates a ``repro.obs.Tracer`` and reports the per-layer
metrics; ``chrome_trace`` names a file for the span tree.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback


def fit(request: dict, hooks=None) -> dict:
    """Generate the reads, run one fit and describe it.

    ``request["spawned_at"]`` is the parent's ``time.monotonic()`` just
    before it started this process; without it (an in-process call) set-up
    is timed from this call.  ``hooks`` replaces ``layers.HOOKS``.
    """
    start = request.get("spawned_at", time.monotonic())
    from repro.cluster.pipeline import MrMCMinH

    import layers
    from workloads import WORKLOADS, digest, make_reads

    workload = WORKLOADS[request["workload"]]
    reads = make_reads(workload, request["size"], request["seed"])
    traced = request.get("traced", False)
    if traced:
        from repro.mapreduce.runner import SerialRunner
        from repro.obs.trace import Tracer

        tracer = Tracer()
        probe = layers.LayerProbe(tracer)
        model = MrMCMinH(
            **workload.model, runner=layers.RecordingRunner(SerialRunner(), probe)
        )
    else:
        model = MrMCMinH(**workload.model)
    out = {"setup_s": time.monotonic() - start}

    with contextlib.ExitStack() as stack:
        if traced:
            probe.mark("setup")
            installed = stack.enter_context(layers.Hooks(probe, hooks or layers.HOOKS))
            stack.enter_context(tracer.activate())
        t0 = time.perf_counter()
        run = model.fit(reads)
        out["fit_s"] = time.perf_counter() - t0
    if traced:
        metrics, ledger = layers.layer_metrics(tracer, probe)
        out.update(layer_metrics=metrics, ledger=ledger, missing_hooks=installed.missing)
        if request.get("chrome_trace"):
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(tracer.spans, request["chrome_trace"])
    out.update(sha256=digest(run.assignment), peak_rss_mib=layers.max_rss_mib())
    return out


def references(request: dict) -> dict:
    """Reference digest and cluster count for each requested size."""
    from workloads import WORKLOADS, digest, make_reads, reference_assignment

    workload = WORKLOADS[request["workload"]]
    out = {}
    for size in request["sizes"]:
        reads = make_reads(workload, size, request["seed"])
        assignment = reference_assignment(workload, reads)
        out[str(size)] = {"sha256": digest(assignment), "clusters": assignment.num_clusters}
        if workload.engine:
            out[str(size)]["candidate_pair_arrays_s"] = time_candidate_pair_arrays(
                workload, reads
            )
    return out


def time_candidate_pair_arrays(workload, reads) -> float:
    """Seconds the in-process collision join takes on the engine's input,
    the yardstick for the engine chain's candidate generation."""
    from repro.cluster.sparse import candidate_pair_arrays
    from repro.minhash.sketch import SketchingConfig, compute_sketches_batch

    config = SketchingConfig(
        kmer_size=workload.model["kmer_size"], num_hashes=workload.model["num_hashes"]
    )
    sketches = compute_sketches_batch(reads, config)
    t0 = time.perf_counter()
    candidate_pair_arrays(sketches)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    try:
        result = fit(request) if request["mode"] == "fit" else references(request)
        result = {"ok": True, **result}
    except Exception as exc:  # reported to the parent, which counts it as failed
        traceback.print_exc()
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
