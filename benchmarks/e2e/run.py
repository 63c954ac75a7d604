"""End-to-end MrMC-MinH benchmark.

Run from the repository root.  Four commands share one measurement:

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
    One workload, the form ``BENCHMARK.json``'s ``command`` is called in.
    The last stdout line is ``{"correct", "attempted", "failed",
    "metrics"}`` with the ``end_to_end`` metrics (``--trace 0``) or the
    ``per_layer`` metrics (``--trace 1``).
``python3 benchmarks/e2e/run.py run [--seeds 0,0,0] [--smoke] [--output F]``
    Every workload untraced for ``BENCHMARK.json``'s ``run_seconds``, once
    per listed seed; ``--output`` keeps the runs for ``compare``.
``python3 benchmarks/e2e/run.py trace [--chrome-trace-dir D] [--output F]``
    Every workload traced at seed 0: per-layer metrics and a self-time
    ledger.
``python3 benchmarks/e2e/run.py compare PARENT.json CHANGE.json``
    One verdict per workload and metric; exits 1 if any is ``worse``.

Load model: a closed loop with one client.  Every fit runs alone in a
fresh interpreter (``fit_child.py``) on the default ``SerialRunner``.  An
untraced measurement repeats rounds of the size ladder (N/4, N, N/2, N/4, N)
until ``--seconds`` is used up, three rounds at least; a traced one
alternates untraced and traced fits at N.  Reference clusterings are
computed first, outside the timed region, and every fit's assignment
digest must match them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PINNED = HERE / "reference.json"
CHILD_TIMEOUT_S = 150
MIN_PAIRS_FOR_GAIN = 10

sys.path.insert(0, str(HERE))

from layers import UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# ------------------------------------------------------------ child process


def child(request: dict) -> dict:
    """Run ``fit_child.py`` on one request and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["TMPDIR"] = str(WORK)  # spill segments stay inside the checkout
    request = {**request, "spawned_at": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "fit_child.py"), json.dumps(request)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S}s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}"}


def host_calibration() -> float:
    """Median seconds of a fixed numpy + pure-Python loop (informational)."""
    import numpy as np

    def once() -> float:
        a = np.random.default_rng(0).random((384, 384))
        t0 = time.perf_counter()
        for _ in range(8):
            a = np.sort(a @ a.T, axis=1) / 384.0
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(3))


# ------------------------------------------------------------ statistics


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values: list[float], unit: str) -> dict:
    q1, q3 = quartiles(values)
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def loglog_slope(sizes: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


# ------------------------------------------------------------ measurement


def measure(
    name: str,
    *,
    seed: int,
    seconds: float,
    traced: bool = False,
    smoke: bool = False,
    chrome_trace: str | None = None,
) -> dict:
    """Measure one workload; see the module docstring for the schedule."""
    workload = WORKLOADS[name]
    sizes = workload.ladder(smoke)
    top = sizes[-1]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "traced": traced,
        "sizes": sizes,
        "host_calib_s": host_calibration(),
    }
    problems: list[str] = []
    ref = child({"mode": "reference", "workload": name, "seed": seed, "sizes": sizes})
    if not ref.pop("ok"):
        problems.append(f"reference failed: {ref['error']}")
        ref = {}
    # Every digest a fit at that size must equal.  The reference runs the
    # same library code as the fit, so a change to that code moves both;
    # at seed 0 the pin catches it: a fit cannot match a reference that
    # differs from its pin, so every fit at that size counts as failed.
    expected = {size: {r["sha256"]} for size, r in ref.items()}
    if seed == 0 and ref:
        pinned = json.loads(PINNED.read_text())["workloads"].get(name, {})
        for size, pin in pinned.items():
            computed = ref.get(size)
            if computed and (computed["sha256"], computed["clusters"]) != (
                pin["sha256"],
                pin["clusters"],
            ):
                problems.append(f"seed-0 reference at {size} reads differs from {PINNED.name}")
                expected[size].add(pin["sha256"])
    result["reference"] = ref

    if traced:
        schedule = [(top, False), (top, True)]
        min_rounds = 1 if smoke else 2
    else:
        # scaling_exp rests on the two ends of the ladder, so they get two
        # fits per round; N/4 fits are cheap.
        schedule = [
            (sizes[0], False),
            (top, False),
            (sizes[1], False),
            (sizes[0], False),
            (top, False),
        ]
        min_rounds = 1 if smoke else 3
    # Cycle through the schedule; after the minimum rounds, stop at the
    # first fit that would end past the budget (judged by its last run).
    minimum = len(schedule) * min_rounds
    took: dict[tuple[int, bool], float] = {}
    fits: list[dict] = []
    started = time.monotonic()
    for step in itertools.count():
        size, is_traced = schedule[step % len(schedule)]
        if step >= minimum and (
            smoke or time.monotonic() - started + took[size, is_traced] > seconds
        ):
            break
        request = {
            "mode": "fit",
            "workload": name,
            "size": size,
            "seed": seed,
            "traced": is_traced,
        }
        if is_traced and chrome_trace and not any(f["traced"] for f in fits):
            request["chrome_trace"] = chrome_trace
        t0 = time.monotonic()
        fit = child(request)
        took[size, is_traced] = time.monotonic() - t0
        fit.update(size=size, traced=is_traced)
        fit["correct"] = fit["ok"] and {fit["sha256"]} == expected.get(str(size))
        fits.append(fit)
    result["rounds"] = len(fits) / len(schedule)

    failed = [f for f in fits if not f["correct"]]
    for f in failed:
        problems.append(
            f"{f['size']} reads{' traced' if f['traced'] else ''}: "
            + (f.get("error") or "assignment differs from the reference or its seed-0 pin")
        )
    result.update(
        attempted=len(fits),
        failed=len(failed),
        correct=not failed and not problems,
        problems=problems,
    )
    good = [f for f in fits if f["correct"]]
    plain_top = [f for f in good if not f["traced"] and f["size"] == top]
    metrics: dict[str, dict] = {}
    if traced:
        traced_fits = [f for f in good if f["traced"]]
        names = sorted({k for f in traced_fits for k in f["layer_metrics"]})
        for metric in names:
            values = [
                f["layer_metrics"][metric]
                for f in traced_fits
                if metric in f["layer_metrics"]
            ]
            metrics[metric] = summary(values, UNITS[metric])
        if traced_fits and plain_top:
            metrics["trace.overhead_ratio"] = summary(
                [
                    statistics.median(f["fit_s"] for f in traced_fits)
                    / statistics.median(f["fit_s"] for f in plain_top)
                ],
                "ratio",
            )
        result["absent"] = sorted(set(UNITS) - set(metrics))
        result["missing_hooks"] = sorted({h for f in traced_fits for h in f["missing_hooks"]})
        if traced_fits:
            modules = sorted({k for f in traced_fits for k in f["ledger"]})
            result["ledger_s"] = {
                module: statistics.median(f["ledger"].get(module, 0.0) for f in traced_fits)
                for module in modules
            }
    else:
        if plain_top:
            metrics["fit_s"] = summary([f["fit_s"] for f in plain_top], "s")
            metrics["setup_s"] = summary([f["setup_s"] for f in plain_top], "s")
            metrics["peak_rss_mib"] = summary([f["peak_rss_mib"] for f in plain_top], "MiB")
        by_size = {
            size: [f["fit_s"] for f in good if f["size"] == size] for size in sizes
        }
        if all(by_size.values()):
            medians = [statistics.median(by_size[s]) for s in sizes]
            metrics["scaling_exp"] = summary([loglog_slope(sizes, medians)], "1")
    metrics["error_rate"] = summary([len(failed) / len(fits)], "ratio")
    result["metrics"] = metrics
    keep = ("size", "traced", "correct", "fit_s", "setup_s", "peak_rss_mib", "sha256")
    result["fits"] = [{k: f.get(k) for k in keep} for f in fits]
    return result


# ------------------------------------------------------------ compare


def verdict(parent: list[float], change: list[float], *, better: str, bound: float | None) -> str:
    """better / worse / unchanged / unresolved for one metric.

    ``bound`` is the share of the parent's median the change may lose;
    ``None`` makes the metric exact (any increase of its mean is worse).
    A gain needs at least ten index-paired runs, the change winning nine
    tenths of them, and the medians differing by more than the parent's
    quartile spread.
    Without a gain or a loss beyond the bound, a run-to-run spread wider
    than the bound leaves the metric unresolved, unless every change run
    beats every parent run.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) > 0: b is worse
    if bound is None:
        delta = sign * (statistics.fmean(change) - statistics.fmean(parent))
        return "worse" if delta > 0 else "better" if delta < 0 else "unchanged"
    mp, mc = statistics.median(parent), statistics.median(change)
    if sign * (mc - mp) > bound * abs(mp):
        return "worse"
    q1p, q3p = quartiles(parent)
    q1c, q3c = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gain = sign * (mp - mc) > q3p - q1p
    if len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs) and gain:
        return "better"
    spread = max((q3p - q1p) / abs(mp), (q3c - q1c) / abs(mc))
    every_run_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def compare(parent_doc: dict, change_doc: dict, bench: dict) -> list[dict]:
    """One row per workload and gated metric of two ``run`` outputs."""
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs["error_rate"] = {"name": "error_rate", "better": "lower", "bound": None}
    rows = []
    for workload in WORKLOADS:
        sides = [
            [r["workloads"][workload] for r in doc["runs"] if workload in r["workloads"]]
            for doc in (parent_doc, change_doc)
        ]
        if not all(sides):
            continue
        for metric, spec in specs.items():
            values = [
                [r["metrics"][metric]["value"] for r in side if metric in r["metrics"]]
                for side in sides
            ]
            row = {"workload": workload, "metric": metric}
            if not all(values):
                row["verdict"] = "worse" if values[0] else "unresolved"
            else:
                row["verdict"] = verdict(*values, better=spec["better"], bound=spec["bound"])
                for label, vals in zip(("parent", "change"), values):
                    q1, q3 = quartiles(vals)
                    row[label] = {
                        "median": statistics.median(vals),
                        "q1": q1,
                        "q3": q3,
                        "n": len(vals),
                    }
            rows.append(row)
    return rows


# ------------------------------------------------------------ commands


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(result: dict, bench: dict, traced: bool) -> dict:
    """The ``--workload`` form's last stdout line: every declared metric.

    A declared per-layer metric the workload's path does not produce is a
    count that stayed 0 (see README); it is also listed as absent above.
    """
    metrics = {}
    for spec in bench["per_layer" if traced else "end_to_end"]:
        measured = result["metrics"].get(spec["name"])
        metrics[spec["name"]] = {
            "value": measured["value"] if measured else 0,
            "unit": spec["unit"],
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _note(result: dict) -> dict:
    keep = ("workload", "seed", "rounds", "host_calib_s", "problems", "absent", "missing_hooks")
    return {k: result[k] for k in keep if k in result}


def cmd_workload(args, bench: dict) -> int:
    result = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
    )
    print(json.dumps(_note(result)))
    print(json.dumps(result_line(result, bench, bool(args.trace))))
    return 0


def _print_metrics(result: dict) -> None:
    print(f"== {result['workload']}  rounds={result['rounds']:.2f}  "
          f"attempted={result['attempted']} failed={result['failed']}  "
          f"host_calib_s={result['host_calib_s']:.4f}")
    for name, m in result["metrics"].items():
        print(f"   {name:38s} {m['value']:>14.6g} {m['unit']:6s} "
              f"[{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']}")
    for problem in result["problems"]:
        print(f"   ! {problem}")


def cmd_run(args, bench: dict) -> int:
    seconds = bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    doc = {"seeds": seeds, "seconds": seconds, "smoke": args.smoke, "runs": []}
    ok = True
    for seed in seeds:
        run = {"seed": seed, "workloads": {}}
        for name in WORKLOADS:
            result = measure(name, seed=seed, seconds=seconds, smoke=args.smoke)
            _print_metrics(result)
            run["workloads"][name] = result
            ok &= result["correct"]
        doc["runs"].append(run)
    if args.output:
        Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


def cmd_trace(args, bench: dict) -> int:
    seconds = bench["run_seconds"]
    doc = {"seed": 0, "seconds": seconds, "smoke": args.smoke, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        chrome = None
        if args.chrome_trace_dir:
            Path(args.chrome_trace_dir).mkdir(parents=True, exist_ok=True)
            chrome = str((Path(args.chrome_trace_dir) / f"{name}.chrome.json").resolve())
        result = measure(
            name,
            seed=0,
            seconds=seconds,
            traced=True,
            smoke=args.smoke,
            chrome_trace=chrome,
        )
        _print_metrics(result)
        fit = result["metrics"].get("pipeline.fit_s", {}).get("value")
        for layer, seconds in result.get("ledger_s", {}).items():
            share = f"{seconds / fit:7.1%}" if fit else ""
            print(f"   ledger {layer:31s} {seconds:>14.6f} s      {share}")
        if result.get("absent"):
            print(f"   absent: {', '.join(result['absent'])}")
        doc["workloads"][name] = result
        ok &= result["correct"]
    if args.output:
        Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


def cmd_compare(args, bench: dict) -> int:
    rows = compare(
        json.loads(Path(args.parent).read_text()),
        json.loads(Path(args.change).read_text()),
        bench,
    )
    print(f"{'workload':18s} {'metric':13s} {'parent median [q1, q3] n':>36s} "
          f"{'change median [q1, q3] n':>36s}  verdict")
    for row in rows:
        cells = []
        for side in ("parent", "change"):
            s = row.get(side)
            cells.append(
                f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['n']}" if s else "-"
            )
        print(f"{row['workload']:18s} {row['metric']:13s} {cells[0]:>36s} "
              f"{cells[1]:>36s}  {row['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def parse(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in ("run", "trace", "compare"):
        parser = argparse.ArgumentParser(prog="run.py")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("run", "trace"):
            p = sub.add_parser(name)
            p.add_argument("--smoke", action="store_true", help="tiny N, one round")
            p.add_argument("--output", help="write the results as JSON")
        sub.choices["run"].add_argument(
            "--seeds", default="0", help="comma-separated; one run per entry"
        )
        sub.choices["trace"].add_argument("--chrome-trace-dir")
        p = sub.add_parser("compare")
        p.add_argument("parent")
        p.add_argument("change")
        return parser.parse_args(argv)
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny N, one round")
    args = parser.parse_args(argv)
    args.command = "workload"
    return args


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    bench = load_benchmark()
    args = parse(argv)
    if args.command == "compare":
        return cmd_compare(args, bench)
    WORK.mkdir(exist_ok=True)
    try:
        command = {"workload": cmd_workload, "run": cmd_run, "trace": cmd_trace}
        return command[args.command](args, bench)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
