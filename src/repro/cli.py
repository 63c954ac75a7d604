"""Command-line interface.

Subcommands::

    repro cluster   FASTA            cluster a sample, write read->label TSV
    repro diversity FASTA            cluster + richness/diversity report
    repro beta      FASTA FASTA...   joint clustering + beta-diversity matrix
    repro stats     FASTA            sequence-set summary statistics
    repro pig       FASTA            run the Algorithm 3 Pig script end-to-end
    repro simulate                   modeled runtime for a cluster/input sweep
    repro bench     {table3,table4,table5,figure2}   regenerate a paper table
    repro obs report RUN.jsonl       summarize a telemetry run log
    repro obs chrome RUN.jsonl       convert a run log to a Chrome/Perfetto trace
    repro service demo               job-service workload vs fluid-model latency
    repro service stress             overload burst: shedding, breaker, drain

Every command prints to stdout; ``cluster`` also writes ``--output``.
``cluster`` and ``diversity`` accept ``--obs RUN.jsonl`` and
``--chrome-trace TRACE.json`` to record the run's telemetry (span tree +
metrics) for ``repro obs`` to consume.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import ExperimentScale
from repro.cluster.pipeline import METHODS, SPARSE_AUTO_CUTOFF, MrMCMinH
from repro.cluster.hierarchical import LINKAGES
from repro.errors import ClusterConfigError
from repro.eval.diversity import (
    chao1,
    goods_coverage,
    rarefaction_curve,
    shannon_index,
    simpson_index,
)
from repro.seq.fasta import read_fasta


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("fasta", help="input FASTA file")
    parser.add_argument("--kmer", type=int, default=5, help="k-mer size ($KMER)")
    parser.add_argument(
        "--hashes", type=int, default=100, help="number of hash functions ($NUMHASH)"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.9, help="similarity threshold ($CUTOFF)"
    )
    parser.add_argument("--method", choices=METHODS, default="hierarchical")
    parser.add_argument("--linkage", choices=LINKAGES, default="average")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--engine-sparse", action="store_true",
        help="force the LSH candidate-generation MapReduce job chain; "
        "needs --linkage single or --method greedy "
        "(default: auto — only hierarchical --linkage single runs with "
        f"--threshold > 0 switch to the chain, from {SPARSE_AUTO_CUTOFF} "
        "sequences on; every other run stays dense)",
    )
    parser.add_argument(
        "--spill-threshold", type=int, default=None, metavar="BYTES",
        help="engage the external spill-to-disk shuffle: per-partition "
        "map-output buffers over this size spill to CRC-guarded segment "
        "files (0 = spill everything; default: in-memory shuffle)",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs", metavar="RUN.jsonl", default=None,
        help="record run telemetry (spans + metrics) to this JSONL log",
    )
    parser.add_argument(
        "--chrome-trace", metavar="TRACE.json", default=None,
        help="also write a Chrome/Perfetto trace of the run",
    )


def _fit(args) -> tuple:
    records = read_fasta(args.fasta)
    model = MrMCMinH(
        kmer_size=args.kmer,
        num_hashes=args.hashes,
        threshold=args.threshold,
        method=args.method,
        linkage=args.linkage,
        seed=args.seed,
        sparse="engine" if getattr(args, "engine_sparse", False) else "auto",
        spill_threshold_bytes=getattr(args, "spill_threshold", None),
    )
    obs_log = getattr(args, "obs", None)
    chrome_path = getattr(args, "chrome_trace", None)
    if not obs_log and not chrome_path:
        return records, model.fit(records)

    from repro.obs import Tracer, write_chrome_trace

    tracer = Tracer()
    with tracer.activate():
        run = model.fit(records)
    if obs_log:
        tracer.write_jsonl(obs_log)
        print(f"# telemetry: run log -> {obs_log}", file=sys.stderr)
    if chrome_path:
        write_chrome_trace(tracer.spans, chrome_path)
        print(f"# telemetry: chrome trace -> {chrome_path}", file=sys.stderr)
    return records, run


def cmd_cluster(args) -> int:
    records, run = _fit(args)
    assignment = run.assignment
    if args.rescue is not None:
        from repro.cluster.denoise import rescue_small_clusters

        assignment = rescue_small_clusters(
            assignment, run.sketches, rescue_threshold=args.rescue
        )
    lines = [f"{rid}\t{label}" for rid, label in sorted(assignment.items())]
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    print(
        f"# {assignment.num_sequences} sequences -> "
        f"{assignment.num_clusters} clusters "
        f"({run.wall_seconds:.2f}s, {run.mode} similarity path)",
        file=sys.stderr,
    )
    if run.sparse_stats:
        stats = run.sparse_stats
        # Shuffle bytes are measured only by a runner that traces its jobs.
        shuffled = (
            ""
            if stats["shuffle_bytes"] is None
            else f", {stats['shuffle_bytes']} shuffle bytes"
        )
        print(
            f"# sparse: {stats['candidate_pairs']} candidate pairs, "
            f"{stats['rounds']} round(s){shuffled}",
            file=sys.stderr,
        )
        print(
            f"# streamed: {stats['edges']} edges fed incrementally, "
            f"{stats['spill_segments']} spill segment(s), "
            f"{stats['spill_bytes']} spill bytes",
            file=sys.stderr,
        )
    return 0


def cmd_stats(args) -> int:
    from repro.seq.stats import length_histogram, sequence_set_stats

    records = read_fasta(args.fasta)
    stats = sequence_set_stats(records)
    print(stats.describe())
    print("length histogram:")
    for start, stop, count in length_histogram(records):
        bar = "#" * max(1, int(50 * count / max(1, stats.count)))
        print(f"  {start:6d}-{stop:6d}  {count:6d}  {bar}")
    return 0


def cmd_beta(args) -> int:
    from repro.eval.beta import beta_diversity_matrix, otu_table
    from repro.eval.report import Table
    from repro.seq.records import SequenceRecord

    reads = []
    sample_of = {}
    for path in args.fastas:
        sample_records = read_fasta(path)
        for r in sample_records:
            record = SequenceRecord(f"{path}:{r.read_id}", r.sequence, r.header)
            reads.append(record)
            sample_of[record.read_id] = path
    model = MrMCMinH(
        kmer_size=args.kmer,
        num_hashes=args.hashes,
        threshold=args.threshold,
        method=args.method,
        seed=args.seed,
    )
    run = model.fit(reads)
    tables = otu_table(run.assignment, sample_of)
    ids, matrix = beta_diversity_matrix(tables, metric=args.metric)
    table = Table(title=f"Beta diversity ({args.metric})", columns=["Sample"] + ids)
    for i, sid in enumerate(ids):
        table.add_row(sid, *[round(v, 3) for v in matrix[i]])
    print(table.render())
    return 0


def cmd_diversity(args) -> int:
    _records, run = _fit(args)
    a = run.assignment
    print(f"sequences:        {a.num_sequences}")
    print(f"OTUs observed:    {a.num_clusters}")
    print(f"Chao1 richness:   {chao1(a):.1f}")
    print(f"Shannon index:    {shannon_index(a):.3f}")
    print(f"Simpson index:    {simpson_index(a):.3f}")
    print(f"Good's coverage:  {goods_coverage(a):.3f}")
    print("rarefaction:")
    for depth, expected in rarefaction_curve(a):
        print(f"  {depth:8d} reads -> {expected:8.1f} OTUs")
    return 0


def cmd_pig(args) -> int:
    from repro.mapreduce.hdfs import SimulatedHDFS
    from repro.pig import MRMC_MINH_SCRIPT, PigEngine, default_params

    with open(args.fasta, "r", encoding="ascii") as fh:
        text = fh.read()
    hdfs = SimulatedHDFS(num_datanodes=args.nodes)
    hdfs.put("/input.fa", text)
    params = default_params(
        input_path="/input.fa",
        kmer=args.kmer,
        num_hashes=args.hashes,
        cutoff=args.threshold,
        link=args.linkage,
    )
    result = PigEngine(hdfs).run(MRMC_MINH_SCRIPT, params)
    print("jobs:", ", ".join(t.job_name for t in result.traces))
    for path in ("/out/hier", "/out/greedy"):
        lines = hdfs.get_text(path).strip().splitlines()
        labels = {line.split("\t")[1] for line in lines}
        print(f"{path}: {len(lines)} sequences, {len(labels)} clusters")
        if args.show:
            print("\n".join(lines))
    return 0


def cmd_simulate(args) -> int:
    from repro.bench.figures import run_figure2

    table, _result = run_figure2(
        node_counts=tuple(args.nodes_list),
        read_counts=tuple(args.reads_list),
        scale=ExperimentScale(num_reads=args.calibration_reads, genome_length=5000),
    )
    print(table.render())
    return 0


def cmd_obs_report(args) -> int:
    from repro.obs import report_from_jsonl

    print(report_from_jsonl(args.run_log).render())
    return 0


def cmd_obs_chrome(args) -> int:
    from repro.obs import read_jsonl, write_chrome_trace

    spans, _metrics, _meta = read_jsonl(args.run_log)
    write_chrome_trace(spans, args.output)
    print(f"wrote {args.output} ({len(spans)} spans)")
    return 0


def cmd_bench(args) -> int:
    scale = ExperimentScale(
        num_reads=args.reads,
        genome_length=5000,
        min_cluster_size=2,
        max_pairs_per_cluster=20,
    )
    if args.target == "table3":
        from repro.bench.tables import run_table3

        table, _results = run_table3(scale, samples=tuple(args.samples or ("S1", "S8", "R1")))
    elif args.target == "table4":
        from repro.bench.tables import run_table4

        table, _results = run_table4(scale)
    elif args.target == "table5":
        from repro.bench.tables import run_table5

        table, _results = run_table5(scale, samples=tuple(args.samples or ("53R", "FS312")))
    else:
        from repro.bench.figures import run_figure2

        table, _results = run_figure2(scale=scale)
    print(table.render())
    return 0


def cmd_service_demo(args) -> int:
    from repro.errors import ServiceOverloadedError
    from repro.mapreduce.service import JobService, fluid_prediction, sleep_spec

    tenants = [f"tenant{i}" for i in range(args.tenants)]
    svc = JobService(
        num_slots=args.slots,
        queue_depth=args.queue_depth,
        policy=args.policy,
    )
    tickets = []
    shed = 0
    # Submit the whole burst before starting the slots: admission (and
    # any shedding) then depends only on queue depth, not thread timing.
    for j in range(args.jobs):
        for tenant in tenants:
            try:
                tickets.append(
                    svc.submit(
                        tenant, sleep_spec(args.job_seconds, name=f"{tenant}-j{j}")
                    )
                )
            except ServiceOverloadedError:
                shed += 1
    svc.start()
    for t in tickets:
        t.result(timeout=60)
    svc.shutdown()

    predicted = fluid_prediction(tickets, args.slots, args.policy)
    print(
        f"policy={args.policy} slots={args.slots} "
        f"jobs={len(tickets)} shed={shed}"
    )
    print(f"{'job':<16}{'tenant':<10}{'measured_s':>12}{'fluid_s':>10}")
    for t in tickets:
        print(
            f"{t.id:<16}{t.tenant:<10}{t.latency:>12.3f}"
            f"{predicted.get(t.id, float('nan')):>10.3f}"
        )
    health = svc.health()
    print(f"totals: {health['totals']}")
    return 0


def cmd_service_stress(args) -> int:
    import json
    import time as _time

    from repro.errors import CircuitOpenError, ServiceOverloadedError
    from repro.mapreduce.faults import RetryPolicy
    from repro.mapreduce.service import JobService, failing_spec, sleep_spec

    svc = JobService(
        num_slots=args.slots,
        queue_depth=args.queue_depth,
        policy=args.policy,
        retry=RetryPolicy(max_attempts=2, backoff=0.01, jitter=1.0, seed=args.seed),
        breaker_threshold=2,
        breaker_cooldown=0.2,
    )
    tenants = [f"tenant{i}" for i in range(args.tenants)]
    accepted, shed, rejected = [], 0, 0
    # Overload burst: every tenant submits more than its queue holds.
    for j in range(args.queue_depth * 3):
        for tenant in tenants:
            try:
                accepted.append(
                    svc.submit(
                        tenant,
                        sleep_spec(args.job_seconds, name=f"{tenant}-j{j}"),
                        degradable=True,
                    )
                )
            except ServiceOverloadedError:
                shed += 1
    svc.start()
    for t in accepted:
        t.result(timeout=60)
    # One tenant misbehaves until its breaker trips.
    bad = tenants[0]
    for _ in range(3):
        try:
            svc.submit(bad, failing_spec()).event.wait(30)
        except CircuitOpenError:
            rejected += 1
    _time.sleep(0.25)  # cooldown, then the probe job closes the breaker
    svc.submit(bad, sleep_spec(args.job_seconds)).result(timeout=60)
    drained = svc.drain(timeout=30)
    health = svc.health()
    svc.shutdown()
    print(
        f"accepted={len(accepted)} shed={shed} breaker_rejections={rejected} "
        f"drained={drained}"
    )
    print(f"breaker[{bad}]={health['tenants'][bad]['breaker']}")
    print(f"totals: {health['totals']}")
    if args.health_json:
        with open(args.health_json, "w") as fh:
            json.dump(health, fh, indent=2, sort_keys=True)
        print(f"wrote {args.health_json}")
    ok = (
        drained
        and health["tenants"][bad]["breaker"] == "closed"
        and health["totals"]["queued"] == 0
        and health["totals"]["running"] == 0
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MrMC-MinH: Map-Reduce clustering of metagenomes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a FASTA sample")
    _add_pipeline_args(p)
    p.add_argument("--output", help="write read\\tlabel TSV here (default stdout)")
    p.add_argument(
        "--rescue", type=float, default=None, metavar="THETA2",
        help="re-attach singletons to large clusters at this lower threshold",
    )
    _add_obs_args(p)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("stats", help="sequence-set summary statistics")
    p.add_argument("fasta", help="input FASTA file")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("beta", help="beta diversity across samples")
    p.add_argument("fastas", nargs="+", help="one FASTA per sample (>= 2)")
    p.add_argument("--kmer", type=int, default=15)
    p.add_argument("--hashes", type=int, default=50)
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--method", choices=METHODS, default="hierarchical")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--metric", choices=["bray-curtis", "jaccard", "morisita-horn"],
        default="bray-curtis",
    )
    p.set_defaults(fn=cmd_beta)

    p = sub.add_parser("diversity", help="cluster + diversity report")
    _add_pipeline_args(p)
    _add_obs_args(p)
    p.set_defaults(fn=cmd_diversity)

    p = sub.add_parser("pig", help="run the Algorithm 3 Pig script")
    _add_pipeline_args(p)
    p.add_argument("--nodes", type=int, default=4, help="simulated HDFS datanodes")
    p.add_argument("--show", action="store_true", help="print all output rows")
    p.set_defaults(fn=cmd_pig)

    p = sub.add_parser("simulate", help="modeled runtime sweep (Figure 2)")
    p.add_argument(
        "--nodes-list", type=int, nargs="+", default=[2, 4, 6, 8, 10, 12]
    )
    p.add_argument(
        "--reads-list", type=int, nargs="+",
        default=[1_000, 10_000, 100_000, 1_000_000, 10_000_000],
    )
    p.add_argument("--calibration-reads", type=int, default=150)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("bench", help="regenerate one paper table/figure")
    p.add_argument("target", choices=["table3", "table4", "table5", "figure2"])
    p.add_argument("--reads", type=int, default=120, help="reads per sample")
    p.add_argument("--samples", nargs="*", help="sample SIDs (table3/table5)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("obs", help="telemetry tooling (run logs, reports, traces)")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    pr = obs_sub.add_parser("report", help="summarize a JSONL run log")
    pr.add_argument("run_log", help="run log from --obs or Tracer.write_jsonl")
    pr.set_defaults(fn=cmd_obs_report)
    pc = obs_sub.add_parser(
        "chrome", help="convert a JSONL run log to a Chrome/Perfetto trace"
    )
    pc.add_argument("run_log", help="run log from --obs or Tracer.write_jsonl")
    pc.add_argument(
        "-o", "--output", default="trace.json", help="trace file to write"
    )
    pc.set_defaults(fn=cmd_obs_chrome)

    p = sub.add_parser(
        "service", help="multi-tenant job service (demo and stress harness)"
    )
    svc_sub = p.add_subparsers(dest="service_command", required=True)

    def _add_service_args(sp) -> None:
        sp.add_argument("--slots", type=int, default=2, help="driver slots")
        sp.add_argument("--queue-depth", type=int, default=2)
        sp.add_argument("--policy", choices=["fifo", "fair"], default="fair")
        sp.add_argument("--tenants", type=int, default=3)
        sp.add_argument(
            "--job-seconds", type=float, default=0.02, help="per-job service time"
        )

    sd = svc_sub.add_parser(
        "demo", help="run a small workload; compare measured vs fluid-model latency"
    )
    _add_service_args(sd)
    sd.add_argument("--jobs", type=int, default=2, help="jobs per tenant")
    sd.set_defaults(fn=cmd_service_demo)

    ss = svc_sub.add_parser(
        "stress", help="overload burst: shedding, breaker trip/recovery, drain"
    )
    _add_service_args(ss)
    ss.add_argument("--seed", type=int, default=0, help="backoff jitter seed")
    ss.add_argument(
        "--health-json", default=None, metavar="PATH",
        help="write the final health snapshot as JSON (CI artifact)",
    )
    ss.set_defaults(fn=cmd_service_stress)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ClusterConfigError as exc:
        # A rejected configuration is a usage error, reported like
        # argparse's own: one line on stderr and exit code 2.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `repro obs report ... | head`) closed
        # the pipe; exit quietly like standard unix tools.
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
