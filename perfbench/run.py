"""End-to-end benchmark: batch scoring, online resolution and mixed HTTP serving.

Run from the repository root::

    python3 perfbench/run.py --workload batch_score --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``batch_score``    — block + score a generated corpus (``wl_batch``);
* ``online_resolve`` — one record at a time through ``OnlineResolver`` (``wl_online``);
* ``http_mixed``     — open-loop ``/score`` reads and ``/resolve`` writes
  against the in-process HTTP tier (``wl_http``).

``--trace 0`` measures the end-to-end metrics: set-up is repeated and its
median reported, an untimed warm-up follows, then the workload runs for
``--seconds``.  ``--trace 1``
runs a fixed amount of the workload twice, untraced and then with every
layer's public entry points wrapped in spans (``tracer``), and reports the
per-layer metrics plus the tracing overhead (how much worse the traced run
read) of every end-to-end metric.

Human-readable lines (the environment stamp, each metric with its unit and
sample count, correctness failures) come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every correctness gate held.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch_score", "online_resolve", "http_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setups(workload, args, directory: Path):
    """A set-up function that builds each repeat in its own directory."""
    numbers = iter(range(1_000))

    def one_setup():
        target = directory / f"setup-{next(numbers)}"
        target.mkdir()
        return workload.setup(target, args.seed)

    return one_setup


def _finish(result, setup_s: float) -> dict[str, float]:
    """Run the pass's gates and return its end-to-end metrics.

    The peak RSS is read before the gates run, so their extra scoring does
    not count.
    """
    import harness

    peak_rss_mb = harness.peak_rss_mb()
    result.verify()
    return {**result.metrics, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}


def measure(workload, args, directory: Path):
    """``--trace 0``: median set-up, an untimed warm-up, then the timed run."""
    import harness

    state, setup_s = harness.median_setup(_setups(workload, args, directory))
    workload.warm_up(state)
    result = workload.run(state, harness.Budget(args.seconds))
    return _finish(result, setup_s), result


def measure_traced(workload, args, directory: Path, end_to_end: list[dict]):
    """``--trace 1``: a fixed amount of work untraced, then traced."""
    import harness
    from repro.obs import MetricsRegistry, use_recorder
    from tracer import Tracer, install_layer_probes, layer_metrics

    budget = harness.Budget(args.seconds, workload.TRACE_UNITS)
    one_setup = _setups(workload, args, directory)
    state, setup_s = harness.median_setup(one_setup, repeats=1)
    workload.warm_up(state)
    plain = workload.run(state, budget)
    plain_metrics = _finish(plain, setup_s)

    registry = MetricsRegistry()
    with Tracer() as tracer, use_recorder(registry):
        install_layer_probes(tracer)
        state, setup_s = harness.median_setup(one_setup, repeats=1)
        fit = tracer.summary()
        tracer.reset()
        registry.reset()
        traced = workload.run(state, budget)
        layers = layer_metrics(fit, tracer, registry.span_totals(), traced.service_stats)
        spans = {name: vars(entry) for name, entry in tracer.summary().items()}
    traced_metrics = _finish(traced, setup_s)

    layers.update({k: v for k, v in traced.layer.items() if k != "online.add_record_clock_s"})
    # Overhead is how much worse tracing made a metric, so lower is better for
    # every overhead figure whichever way the metric itself points.
    for metric in end_to_end:
        name = metric["name"]
        worse = traced_metrics[name] - plain_metrics[name]
        layers[f"overhead.{name}"] = worse if metric["better"] == "lower" else -worse
    layers["overhead.add_record_s"] = (traced.layer.get("online.add_record_clock_s", 0.0)
                                       - plain.layer.get("online.add_record_clock_s", 0.0))
    return layers, plain, traced, spans


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: needs the program sources in {SRC} and {SPEC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Import the program up front so no measured phase pays for module loading.
    import repro.compose  # noqa: F401
    import repro.online  # noqa: F401
    import repro.serve.http  # noqa: F401

    import harness
    import wl_batch
    import wl_http
    import wl_online
    from tracer import ADD_RECORD_PARTS

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = spec["end_to_end"]
    workload = {module.NAME: module for module in (wl_batch, wl_online, wl_http)}[args.workload]

    stamp = harness.environment_stamp(args.workload, args.seed, {
        **workload.PARAMS, "seconds": args.seconds, "trace": args.trace,
        "trace_units": workload.TRACE_UNITS, "setup_repeats": harness.SETUP_REPEATS,
        "fit_seed": harness.FIT_SEED,
    })
    print(f"perfbench stamp {json.dumps(stamp, sort_keys=True)}")

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.trace:
            layers, plain, traced, spans = measure_traced(workload, args, Path(tmp), end_to_end)
            runs = [plain, traced]
            reported = {name: layers.get(name, 0.0) for name in
                        (m["name"] for m in spec["per_layer"])}
            samples = traced.samples
        else:
            metrics, result = measure(workload, args, Path(tmp))
            runs, spans = [result], {}
            reported = {m["name"]: metrics[m["name"]] for m in end_to_end}
            samples = result.samples

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    problems = [problem for run in runs for problem in run.problems]
    correct = failed == 0 and not problems
    for name, value in reported.items():
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{count}")
    print(f"  {'failed_ratio':34s} {failed / max(attempted, 1):14.6g} ratio "
          f"({failed} of {attempted})")
    if args.trace and args.workload == "online_resolve":
        parts = sum(reported[name] for name in ADD_RECORD_PARTS)
        print(f"  add_record accounting: parts {parts:.4f} s = traced span "
              f"{reported['online.add_record_s']:.4f} s; tracing added "
              f"{reported['overhead.add_record_s']:.4f} s of add_record CPU time")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"stamp": stamp, "metrics": reported, "samples": samples, "spans": spans,
         "attempted": attempted, "failed": failed, "problems": problems},
        indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
