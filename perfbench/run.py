"""rvlbm benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the benchmark imports rvlbm from
`src/` and runs its CLI as `python3 -m rvlbm.cli` with the same `src/`.
With `--trace 0` it measures the end-to-end metrics, with `--trace 1` the
per-layer ones (see README.md).  Human-readable lines come first; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Everything the run writes goes to `.perfbench_out/`
in the checkout, including a full result file with the environment record and,
for traced runs, every span.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def describe(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    import numpy as np

    n = len(samples)
    out = {"median": float(np.median(samples)), "n": n, "percentile": None, "percentile_value": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            out["percentile"], out["percentile_value"] = p, float(np.percentile(samples, p))
            break
    return out


def setup_probe(args) -> int:
    """Child mode: set the workload up in this fresh process, report, exit."""
    from workloads import make_workload

    wl = make_workload(args.workload, ROOT, args.seed, args.tiny, OUT / "probe")
    wl.setup()
    print(json.dumps(wl.phases), flush=True)
    return 0


def setup_probe_once(workload: str, seed: int, tiny: bool) -> tuple[float, dict]:
    """Seconds from spawn until set-up is done in a fresh process, and its phases."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
            "--seed", str(seed)] + (["--tiny"] if tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {proc.returncode}")
    return elapsed, json.loads(line)


def window(wl, seconds: float, traced: bool, interlude=None, interludes: int = 0):
    """Run operations until `seconds` have passed.

    With tracing, untraced and traced operations alternate so both see the
    same conditions.  `interlude` (a set-up probe) runs `interludes` times,
    spread evenly over the window between operations, so the probes sample
    the machine's slow and fast periods as the operations do.
    """
    from tracing import NullTracer, Tracer

    null, tracer = NullTracer(), Tracer()
    plain, spanned = [], []
    start = time.perf_counter()
    due = [start + (i + 0.5) * seconds / interludes for i in range(interludes)]
    while True:
        plain.append(wl.op(null))
        if traced:
            root = len(tracer.spans)
            with tracer.span("bench.op"):
                spanned.append((root, wl.op(tracer)))
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            interlude()
        if time.perf_counter() - start >= seconds and not due:
            return plain, spanned, tracer


def trace_accounting(plain, spanned, tracer) -> dict:
    """Tracing overhead and how much of the op time the layer self times cover."""
    import numpy as np

    selfs = tracer.self_times()
    totals, by_layer = [], {}
    for root, _ in spanned:
        total = 0.0
        for i in tracer.subtree(root)[1:]:
            layer = tracer.spans[i].layer
            by_layer.setdefault(layer, []).append(selfs[i])
            total += selfs[i]
        totals.append(total)
    untraced = [r.seconds for r in plain]
    traced = [r.seconds for _, r in spanned]
    u_med, t_med, cover = float(np.median(untraced)), float(np.median(traced)), float(np.median(totals))
    q1, q3 = np.percentile(untraced, [25, 75])
    return {
        "untraced_op_s": u_med,
        "traced_op_s": t_med,
        "overhead_frac": t_med / u_med - 1.0,
        "layer_self_s": cover,
        "unaccounted_frac": (u_med - cover) / u_med,
        "accounted": bool(abs(cover - u_med) <= max(abs(t_med - u_med), float(q3 - q1))),
        "self_s_per_op_by_layer": {k: float(np.sum(v)) / len(spanned) for k, v in sorted(by_layer.items())},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rvlbm" / "__init__.py").is_file():
        print(f"error: no rvlbm sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    import rvlbm
    from machine import cache_sizes, copy_bandwidth, environment
    from workloads import WORKLOADS, make_workload, part_times

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    if pathlib.Path(rvlbm.__file__).resolve().parent != ROOT / "src" / "rvlbm":
        print(f"error: imported rvlbm from {rvlbm.__file__}, not from this checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    wl = make_workload(args.workload, ROOT, args.seed, args.tiny, OUT / args.workload)
    wl.setup()
    env = environment(ROOT, args.seed)
    result: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "tiny": args.tiny, "environment": env}
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"  env: {env['cpu_model']}, nproc {env['nproc']}, caches {env['cache_bytes']}, "
        f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']} "
        f"with {env['blas_threads']} threads, revision {env['git_revision']}",
    ]

    if not args.trace:
        probes = []
        plain, _, _ = window(
            wl, args.seconds, traced=False, interludes=1 if args.tiny else SETUP_REPEATS,
            interlude=lambda: probes.append(setup_probe_once(args.workload, args.seed, args.tiny)))
        setup_times, phases = [t for t, _ in probes], [p for _, p in probes]
        ops = plain
        unit_times = [r.seconds / r.units for r in plain]
        metrics = {
            "setup_s": (describe(setup_times)["median"], "s"),
            "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
            "time_per_unit_s": (wl.time_per_unit(plain), "s"),
        }
        summary = wl.summary(plain)
        result["end_to_end"] = {
            "setup_s": describe(setup_times),
            "setup_samples_s": setup_times,
            "unit": wl.unit,
            "op_unit_time_s": describe(unit_times),
            "parts_s": {k: {**describe(v), "fastest": min(v), "samples": v}
                        for k, v in part_times(plain).items()},
            "setup_phases": phases,
            **summary,
        }
        for key in ("cli_round_s", "symbols_per_s", "mpops"):
            if key in summary:
                unit = {"cli_round_s": "s", "symbols_per_s": "1/s", "mpops": "Mpop/s"}[key]
                lines.append(f"  {key:<16} {summary[key]:.6g} {unit}")
    else:
        from drills import Drills

        field_ms = {}
        for which in ("sim_small", "sim_large"):
            field_ms.update(setup_probe_once(which, args.seed, args.tiny)[1]["field_setup_ms"])
        plain, spanned, tracer = window(wl, args.seconds, traced=True)
        l3 = cache_sizes().get("L3", 32 << 20)
        probe = copy_bandwidth((1 << 23) if args.tiny else 4 * l3)
        probe["l3_bytes"] = l3
        probe["state_bytes_d2q5_1024"] = 5 * 1024 * 1024 * 8
        env["bandwidth_probe"] = probe
        drills = Drills(ROOT, args.seed, args.tiny, OUT / args.workload, tracer)
        drills.run_all(probe["copy_gbps"], field_ms)
        acct = trace_accounting(plain, spanned, tracer)
        metrics = dict(drills.metrics)
        metrics["machine.copy_gbps"] = (probe["copy_gbps"], "GB/s")
        metrics["trace.overhead_frac"] = (acct["overhead_frac"], "ratio")
        metrics["trace.unaccounted_frac"] = (acct["unaccounted_frac"], "ratio")
        result["trace_accounting"] = acct
        result["spans"] = tracer.to_json()
        ops = plain + [r for _, r in spanned] + [drills.checks]
        lines.append(
            f"  tracing overhead {acct['overhead_frac']:+.2%}; layer self times cover "
            f"{acct['layer_self_s']:.6g} s of {acct['untraced_op_s']:.6g} s per op "
            f"({'within' if acct['accounted'] else 'NOT within'} the overhead)"
        )
        lines.append(f"  copy rate {probe['copy_gbps']:.3g} GB/s over {probe['array_bytes'] / 2**20:.0f} MiB "
                     f"arrays (L3 {l3 / 2**20:.0f} MiB; d2q5 1024^2 state "
                     f"{probe['state_bytes_d2q5_1024'] / 2**20:.0f} MiB) -- a measured copy rate, "
                     f"not a hardware roofline")

    attempted = sum(r.attempted for r in ops)
    failed = sum(r.failed for r in ops)
    notes = [n for r in ops for n in r.notes]
    failed_frac = failed / attempted if attempted else 1.0
    payload = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result.update(attempted=attempted, failed=failed, failed_frac=failed_frac, failure_notes=notes[:50],
                  metrics=payload)
    lines.insert(2, f"  {'failed_frac':<16} {failed_frac:.6g} ({failed}/{attempted} operations)")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<16} {value:.6g} {unit}")
    for note in notes[:10]:
        lines.append(f"  FAILED: {note}")

    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=float) + "\n")
    lines.append(f"  wrote {path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": payload,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
