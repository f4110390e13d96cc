"""deltapath benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from the seed before
any timing starts; the workload is then replayed in a closed loop on one
thread, in rounds that each set the engine up afresh and then replay
trials for a share of the S seconds, every result checked outside the
timed regions.
The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The `#` lines before
it give every metric of the workload with its sample count.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The untraced run is cut into this many rounds, each starting from a fresh
# set-up and then replaying trials for an equal share of the seconds, so the
# set-up samples are spread over the whole run rather than taken together.
SETUP_ROUNDS = 4

# The `--trace 0` JSON: the end-to-end metrics that every workload exercises
# and that repeat within their bounds from run to run (see NOTES.md).
END_TO_END = ("setup_s", "peak_rss_mib")

LAYERS = ("graph_model", "routing_core", "path_retrieval", "policy_engine")


def _p50(samples):
    return statistics.median(samples) if samples else None


def _p90(samples):
    """Nearest-rank p90, only when at least ten samples lie beyond it."""
    rank = math.ceil(0.9 * len(samples))
    if len(samples) - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def _scaled(value, factor):
    return None if value is None else value * factor


def end_to_end(run):
    """Every end-to-end metric: name -> (value or None where the workload
    does not exercise it, unit, sample count)."""
    s = run.samples
    setup = run.setup_times
    out = {"setup_s": (statistics.median(setup), "s", len(setup))}
    for name, kind, stat, factor, unit in (
        ("link_fail_p50_ms", "link_fail", _p50, 1e3, "ms"),
        ("link_fail_p90_ms", "link_fail", _p90, 1e3, "ms"),
        ("switch_fail_p50_ms", "switch_fail", _p50, 1e3, "ms"),
        ("restore_p50_ms", "restore", _p50, 1e3, "ms"),
        ("batch64_p50_ms", "batch64", _p50, 1e3, "ms"),
        ("waypoint_eval_p50_us", "waypoint", _p50, 1e6, "us"),
        ("not_eval_p50_ms", "not", _p50, 1e3, "ms"),
        ("backup_eval_p50_ms", "backup", _p50, 1e3, "ms"),
    ):
        samples = s.get(kind, [])
        value = stat(samples) if samples else None
        out[name] = (_scaled(value, factor), unit, len(samples))
    out["updates_per_s"] = (
        run.updates / run.batch_s if run.batch_s else None, "1/s", run.updates
    )
    out["retrievals_per_s"] = (
        run.requests / run.retrieve_s if run.retrieve_s else None, "1/s", run.requests
    )
    out["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1
    )
    out["failed_ops_frac"] = (run.failed / run.attempted, "ratio", run.attempted)
    return out


def per_layer(run, tracer, untraced_s, verify_s, gen_s):
    """Every per-layer metric of the traced pass: name -> value."""
    import spans

    m = spans.layer_metrics(tracer)
    hops = m.pop("path_retrieval.hops")
    store = run.store
    rules = store.rule_count()
    count = getattr(store, "candidate_count", None)
    candidates = count() if count is not None else 0
    forks = getattr(run.policies, "fork_count", None)
    changed = m["routing_core.rules_changed"]
    requests = m["path_retrieval.requests"]
    m.update({
        "routing_core.us_per_changed_rule": (
            m["routing_core.step_self_s"] * 1e6 / changed if changed else 0.0
        ),
        "routing_core.rules": rules,
        "routing_core.candidates": candidates,
        "routing_core.candidates_per_rule": candidates / rules,
        "routing_core.state_bytes_per_pair": run.state_bytes_per_pair,
        "path_retrieval.hops_per_request": hops / requests if requests else 0.0,
        "path_retrieval.ns_per_hop": m["path_retrieval.retrieve_s"] * 1e9 / hops if hops else 0.0,
        "policy_engine.forks_live": forks() if forks is not None else 0,
        "oracle.verify_s": verify_s,
        "workloads.gen_s": gen_s,
        "trace.overhead_frac": run.timed_s / untraced_s - 1.0 if untraced_s else 0.0,
    })
    return m


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_changed_rule"):
        return "us"
    if name.endswith("ns_per_hop"):
        return "ns"
    if name.endswith("bytes_per_pair"):
        return "B"
    if name.endswith(("_frac", "_per_rule", "_per_request")):
        return "ratio"
    return "count"


def _say(line):
    print(line, flush=True)


def _report_run(label, run):
    _say(f"# {label}: trials={run.trials_done} attempted={run.attempted} "
         f"failed={run.failed} verify_s={run.verify_s:.2f}")
    _say(f"# {label}: set-up times " + " ".join(f"{t:.3f}" for t in run.setup_times) + " s")
    for err in run.errors[:20]:
        _say(f"# ERROR {err}")


def _reference_ms():
    """Median time of a fixed loop of dict stores, taken next to each
    set-up: it shows how fast the machine was at that moment."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        table = {}
        for i in range(20000):
            table[i * 7919 % 40009] = i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _untraced(work, seconds):
    from runner import Run

    run = Run(work)
    reference = []
    for r in range(1, SETUP_ROUNDS + 1):
        reference.append(_reference_ms())
        run.setup()
        run.run(deadline=time.perf_counter() + seconds / SETUP_ROUNDS,
                oracle=r == SETUP_ROUNDS)
    _report_run("run", run)
    _say("# reference loop before each set-up: "
         + " ".join(f"{t:.2f}" for t in reference) + " ms")
    metrics = end_to_end(run)
    for name, (value, unit, n) in metrics.items():
        if value is None:
            _say(f"# {name}: not exercised by this workload")
        else:
            _say(f"# {name} = {value:.6g} {unit} (n={n})")
    out = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in END_TO_END}
    return run, [run], out


def _traced(work, seconds, gen_s, seed):
    """Pass A untraced for half the time, pass B traced over the same
    trials from the same initial state."""
    import spans
    from runner import Run

    base = Run(work)
    base.setup(measure_state=True)
    base.run(deadline=time.perf_counter() + seconds / 2)
    _report_run("untraced pass", base)
    base.store = base.graph = base.policies = base.mirror = None
    gc.unfreeze()
    gc.collect()

    tracer = spans.Tracer()
    tracer.install()
    try:
        run = Run(work, tracer)
        run.setup()
        run.run(trials=base.trials_done)
    finally:
        tracer.uninstall()
    run.state_bytes_per_pair = base.state_bytes_per_pair
    _report_run("traced pass", run)

    metrics = per_layer(run, tracer, base.timed_s, base.verify_s + run.verify_s, gen_s)
    selfs = {k: v for k, v in metrics.items() if k.endswith("_s") and k.split(".")[0] in LAYERS}
    _say(f"# layer self times + bench.untraced_s = "
         f"{sum(selfs.values()) + metrics['bench.untraced_s']:.6f} s; "
         f"bench.timed_s = {metrics['bench.timed_s']:.6f} s")
    by_layer = {layer: sum(v for k, v in selfs.items() if k.startswith(layer + "."))
                for layer in LAYERS}
    _say("# self time by layer: " + ", ".join(
        f"{layer} {t:.3f} s" for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])
    ))
    for name, value in metrics.items():
        _say(f"# {name} = {value:.6g} {layer_unit(name)}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{work.name}-seed{seed}.json")
    out = {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}
    return run, [base, run], out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "deltapath" / "__init__.py").is_file():
        print(f"error: no deltapath sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(scenarios.WORKLOADS)}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    work = scenarios.WORKLOADS[args.workload](args.seed)
    gen_s = time.perf_counter() - t0
    _say(f"# workload {work.name} seed={args.seed} seconds={args.seconds:g} "
         f"trace={args.trace} gen_s={gen_s:.2f}")

    if args.trace:
        run, passes, metrics = _traced(work, args.seconds, gen_s, args.seed)
    else:
        run, passes, metrics = _untraced(work, args.seconds)
    if work.defect_probe is not None:
        excluded = sorted(work.defect_probe[3])
        _say(f"# known defect probe, NOT policy excluding adjacent nodes {excluded}: "
             f"{run.probe_defect()}")
    print(json.dumps({
        "correct": not any(p.errors for p in passes),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
