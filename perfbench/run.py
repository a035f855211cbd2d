"""End-to-end validation benchmark: four workloads from the paper.

Usage (from the repository root)::

    python3 perfbench/run.py --workload url_extract --seed 1 --seconds 15 --trace 0

Workloads: ``url_extract``, ``bias_audit``, ``knowledge_tf``,
``service_mix`` (see ``perfbench/README.md``); ``all`` runs each in turn.  ``--trace 0`` measures
the end-to-end metrics untraced; ``--trace 1`` splits the time between an
untraced and a traced pass and reports per-layer metrics plus the
tracing overhead.  In-process timings and every ``setup_s`` are
host-adjusted (see ``probe.py``).  Report lines start with ``#``; the
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  The exit code is 1 when an
output check or an operation fails and 2 when the program under test
cannot be found.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process (the server subprocess inherits it),
# set before NumPy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Layer that each workload's time should be dominated by.
PREDICTED = {
    "url_extract": "executor",
    "bias_audit": "compiler",
    "knowledge_tf": "lm",
    "service_mix": "service",
}


def report(line: str) -> None:
    print(f"# {line}", flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe(name: str, samples: list[float], unit: str, p50: str | None = None) -> None:
    """Report a timing's median (or the given *p50* line) and each tail
    percentile that has enough samples beyond it."""
    from summary import MIN_BEYOND, median, percentile

    if not samples:
        report(f"{name}_p50 = n/a (n=0)")
        return
    report(p50 or f"{name}_p50 = {median(samples):.4f} {unit} (n={len(samples)})")
    for q, label in ((0.9, "p90"), (0.99, "p99")):
        value = percentile(samples, q)
        if value is None:
            report(
                f"{name}_{label} = n/a (n={len(samples)}; needs {MIN_BEYOND} samples beyond it)"
            )
        else:
            report(f"{name}_{label} = {value:.4f} {unit} (n={len(samples)})")


def timed_setups(setup) -> tuple[list[float], list[float], list]:
    """Run *setup* :data:`SETUPS` times on a :class:`HostClock`; returns
    the raw seconds, the host slowdowns and what the last one returned."""
    from probe import HostClock

    raw, slowdowns, result = [], [], None
    for _ in range(SETUPS):
        result = None  # drop the previous set-up before building the next
        clock = HostClock()
        result = setup()
        raw.append(clock.stop())
        slowdowns.append(clock.slowdown)
    return raw, slowdowns, result


def run_in_process(wl, seed: int, seconds: float, trace: bool) -> dict:
    from summary import median
    from tracing import Tracer

    parts = []

    def setup():
        world, timing = wl.setup(seed)
        parts.append(timing)
        return world

    setups, setup_slowdowns, world = timed_setups(setup)
    gc.collect()  # timing starts without the discarded set-ups' garbage
    if trace:
        phases = [(False, seconds / 2, 1), (True, seconds / 2, 1)]
    else:
        phases = [(False, seconds, 1)]
    reps = {False: [], True: []}
    rss = None
    for traced, budget, min_reps in phases:
        started = time.perf_counter()
        while len(reps[traced]) < min_reps or time.perf_counter() - started < budget:
            tracer = Tracer() if traced else None
            rep = wl.rep(world, tracer, seed)
            if reps[False] or reps[True]:
                rep.results = []  # only the first repetition's matches are checked
            else:
                # Peak memory of set-up and one repetition: later ones repeat
                # the work, and how many fit the run depends on the host.
                rss = peak_rss_mb()
            reps[traced].append(rep)
    plain, traced_reps = reps[False], reps[True]
    every = plain + traced_reps
    if len(every) < 2:
        # A cold bias audit outlasts the run: repeat it untimed on its now
        # warm compiler, so the count-repeat check still has two runs.
        every.append(wl.rep(world, None, seed, compiler=every[0].compiler))
    problems = wl.check(world, every[0], seed)
    bad = 1 if problems else 0
    counts = [r.repeat_counts for r in every]
    for i, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            problems.append(f"nondeterminism: repetition {i} counts {c} != {counts[0]}")
            bad += 1
    attempted = sum(len(r.query_ms) for r in every)
    failed = min(attempted, sum(r.failed_queries for r in every) + bad)
    matches = sum(r.matches for r in plain)
    out = {
        "setup_s": median([t / k for t, k in zip(setups, setup_slowdowns)]),
        "setup_parts": {k: median([p[k] for p in parts]) for k in parts[0]},
        "matches_per_s": median([r.matches / r.seconds * r.slowdown for r in plain]),
        "matches": matches,
        "reps": len(plain),
        "lm_calls_per_match": sum(r.lm_contexts for r in plain) / max(matches, 1),
        "first_match_ms": [x / r.slowdown for r in plain for x in r.first_match_ms],
        "query_ms": [x / r.slowdown for r in plain for x in r.query_ms],
        # One value per repetition, as for matches_per_s: a repetition's
        # queries come in clusters (short and long probes), and a median
        # pooled over repetitions falls in the gap between them.
        "query_ms_p50": median([median(r.query_ms) / r.slowdown for r in plain]),
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "counts": counts[0],
        "raw": {
            "setup_s": median(setups),
            "matches_per_s": median([r.matches / r.seconds for r in plain]),
            "query_ms_p50": median([median(r.query_ms) for r in plain]),
        },
        "slowdown": median([r.slowdown for r in plain]),
    }
    if trace:
        layer_keys = traced_reps[0].layers
        out["layers"] = {k: median([r.layers[k] for r in traced_reps]) for k in layer_keys}
        traced_rate = median([r.matches / r.seconds * r.slowdown for r in traced_reps])
        out["layers"]["trace.overhead_share"] = 1.0 - traced_rate / out["matches_per_s"]
        out["layers"]["setup.tokenizer_s"] = out["setup_parts"]["tokenizer_s"]
        out["layers"]["setup.model_fit_s"] = out["setup_parts"]["model_fit_s"]
    return out


def run_service(seed: int, seconds: float, trace: bool) -> dict:
    import service_mix
    from probe import HostClock
    from summary import median

    setups, slowdowns, ready = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    # The server starts on the CPUs after the first (see Deployment): the
    # host probes run there, while it is not running.
    server_cpus = set(cpus[1:] or cpus)

    def on_server_cpus(fn):
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, server_cpus)
        try:
            return fn()
        finally:
            os.sched_setaffinity(0, own)

    deployment = None
    try:
        for i in range(SETUPS):
            clock = on_server_cpus(HostClock)
            deployment = service_mix.Deployment(ROOT, cpus)
            on_server_cpus(clock.stop)
            setups.append(deployment.setup_s)
            slowdowns.append(clock.slowdown)
            ready.append(deployment.server.ready_s)
            if i < SETUPS - 1:
                deployment.shutdown()
                deployment = None
        raw = deployment.run(seed, seconds, trace)
        rss = deployment.server.peak_rss_mb()
    finally:
        if deployment is not None:
            deployment.shutdown()
    summary = service_mix.summarize(raw, seconds)
    world = service_mix.reference_world()
    problems, bad = service_mix.check(raw, seed, world)
    late = summary["late_ms_p90"]
    if late is not None and late > service_mix.MAX_LATENESS_MS:
        problems.append(
            f"invalid run: generator p90 lateness {late:.1f} ms exceeds "
            f"{service_mix.MAX_LATENESS_MS} ms"
        )
    for status, count in sorted(summary["statuses"].items()):
        report(f"requests ending {status}: {count}")
    cold = summary["cold_query_ms"]
    report(f"requests for a query the warm-up did not compile: {summary['cold_requests']} "
           f"of {summary['attempted']}; their query_ms_p50 = "
           f"{f'{median(cold):.4f} ms' if cold else 'n/a'} (n={len(cold)})")
    failed = summary["failed"] + len(bad)
    out = {
        "setup_s": median([t / k for t, k in zip(setups, slowdowns)]),
        "setup_parts": {"server_ready_s": median(ready)},
        "matches_per_s": summary["matches_per_s"],
        "matches": summary["matches"],
        "reps": 1,
        "lm_calls_per_match": summary["lm_calls_per_match"],
        "first_match_ms": summary["first_match_ms"],
        "query_ms": summary["query_ms"],
        # With no request completed, every one waited the whole run.
        "query_ms_p50": median(summary["query_ms"]) if summary["query_ms"] else 1e3 * seconds,
        "queries_per_s": summary["queries_per_s"],
        "late_ms_p90": late,
        "late_ms_max": summary["late_ms_max"],
        "peak_rss_mb": rss,
        "attempted": summary["attempted"],
        "failed": min(summary["attempted"], failed),
        "problems": problems,
        "counts": {},
        "raw": {"setup_s": median(setups)},
    }
    if trace:
        engine_ms = service_mix.warm_engine_ms(raw, world)
        out["layers"] = service_mix.layers(raw, summary, engine_ms)
        out["layers"]["setup.server_ready_s"] = median(ready)
        report("compiler.busy_ms: not exercised here: the server's stats frame leaves out "
               "the time of its admission compile")
        report("service.engine_ms: in-process time of a warm-head request (warm compile and "
               "logits caches), median over those requests; service.overhead_share compares "
               "it with their client-observed query_ms_p50")
    return out


def dominant_layer(name: str, layers: dict[str, float]) -> tuple[str, dict[str, float]]:
    """The layer holding the most time, from the traced pass.  On the
    service it is judged on warm-head requests, which compile nothing."""
    if name == "service_mix":
        share = layers.get("service.overhead_share")
        if share is None:
            return "n/a (no warm-head request completed)", {}
        return ("service" if share > 0.5 else "engine"), {"service": share, "engine": 1 - share}
    times = {
        "compiler": layers.get("compiler.busy_ms", 0.0),
        "lm": layers.get("lm.busy_ms", 0.0),
        "executor": layers.get("executor.self_ms", 0.0),
    }
    total = sum(times.values()) or 1.0
    shares = {k: v / total for k, v in times.items()}
    return max(shares, key=shares.get), shares


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREDICTED) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # Each workload in a process of its own, so none inherits another's
        # heap, patches or CPU pinning; exits non-zero if any did.
        codes = [
            subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            for name in sorted(PREDICTED)
        ]
        return max(codes)
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"error: BENCHMARK.json or src/repro missing under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(spec.read_text())
    sys.path.insert(1, str(ROOT / "src"))
    import numpy

    import workloads
    from summary import median

    trace = bool(args.trace)
    report(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__}"
    )
    report("core.parallel: not exercised (workers=0: one engine process on this machine)")
    if args.workload == "service_mix":
        out = run_service(args.seed, args.seconds, trace)
    else:
        wl = {
            "url_extract": workloads.UrlExtract,
            "bias_audit": workloads.BiasAudit,
            "knowledge_tf": workloads.KnowledgeTf,
        }[args.workload]()
        out = run_in_process(wl, args.seed, args.seconds, trace)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    raw = out["raw"]
    if "slowdown" in out:
        report(f"host slowdown against the probe reference: {out['slowdown']:.4f} "
               f"(median over timed repetitions)")
    report("host-adjusted figures read, before adjustment: "
           + ", ".join(f"{k} = {v:.4f}" for k, v in raw.items()))
    report(f"setup_s = {out['setup_s']:.4f} s host-adjusted (n={SETUPS} set-ups)")
    for part, value in out["setup_parts"].items():
        report(f"setup.{part} = {value:.4f} s (n={SETUPS})")
    adjusted = " host-adjusted" if "matches_per_s" in raw else ""
    report(f"matches_per_s = {out['matches_per_s']:.4f} 1/s{adjusted} (n={out['reps']} "
           f"repetitions, {out['matches']} matches)")
    report(
        f"lm_calls_per_match = {out['lm_calls_per_match']:.6f} count "
        f"(n={out['matches']} matches)"
    )
    describe("first_match_ms", out["first_match_ms"], "ms" + adjusted)
    p50 = None
    if adjusted:
        p50 = (f"query_ms_p50 = {out['query_ms_p50']:.4f} ms{adjusted} (median over "
               f"n={out['reps']} repetitions of each one's median query)")
    describe("query_ms", out["query_ms"], "ms" + adjusted, p50)
    if "queries_per_s" in out:
        from service_mix import LIMIT_MS

        report(f"queries_per_s = {out['queries_per_s']:.4f} 1/s (completed within "
               f"{LIMIT_MS:g} ms, n={out['attempted']} requests)")
        late = out["late_ms_p90"]
        report(f"generator lateness p90 = {'n/a' if late is None else f'{late:.3f}'} ms, "
               f"max = {out['late_ms_max']:.3f} ms")
    report(f"peak_rss_mb = {out['peak_rss_mb']:.1f} MiB")
    report(f"failed_frac = {out['failed'] / out['attempted']:.6f} ratio "
           f"({out['failed']}/{out['attempted']} operations)")
    if out["counts"]:
        repeat = not any(p.startswith("nondeterminism") for p in out["problems"])
        verdict = "repeat exactly" if repeat else "nondeterminism"
        report(f"counts {out['counts']}: {verdict}")
    for problem in out["problems"][:20]:
        report(f"CHECK FAILED: {problem}")

    metrics: dict[str, dict] = {}
    if trace:
        layers = out["layers"]
        missing = []
        for m in bench["per_layer"]:
            name = m["name"]
            if name not in layers:
                missing.append(name)
            metrics[name] = {"value": float(layers.get(name, 0.0)), "unit": m["unit"]}
        if missing:
            report(f"not exercised by this workload, reported as 0: {', '.join(missing)}")
        for name in sorted(layers):
            if name in units:
                report(f"{name} = {layers[name]:.4f} {units[name]}")
        if args.workload in ("bias_audit", "knowledge_tf"):
            report("executor.self_ms and scheduler.self_ms are one combined self time: "
                   "QueryScheduler.step spans minus the LM spans inside them")
        layer, shares = dominant_layer(args.workload, layers)
        expected = PREDICTED[args.workload]
        pretty = ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
        report(f"dominant layer: {layer} ({pretty}); predicted {expected}: "
               f"{'confirmed' if layer == expected else 'REFUTED'}")
    else:
        values = {
            "setup_s": out["setup_s"],
            "matches_per_s": out["matches_per_s"],
            "lm_calls_per_match": out["lm_calls_per_match"],
            "query_ms_p50": out["query_ms_p50"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = not out["problems"] and out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
