"""Capacity sweep for the ``service_mix`` traffic.

Runs the ``service_mix`` open loop at each offered rate, against a fresh
``repro serve`` subprocess per rate, and prints the latency at each rate
and the highest rate that meets the latency limit:

    python3 perfbench/sweep.py --rates 25,50,100,200 --seconds 10 --seed 1

A rate *meets the limit* when every request ends ``ok``, the p90 of
``query_ms`` (or, with too few samples for a p90, its maximum) is within
``service_mix.LIMIT_MS``, the generator's p90 lateness is within
``service_mix.MAX_LATENESS_MS``, and no backlog grows: the last fifth of
the requests waits at most twice as long, on median, as the first fifth.
``service_mix.RATE`` is set from this sweep (see README).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rates", default="25,50,100,200")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(1, str(ROOT / "src"))
    import service_mix
    from summary import median, percentile

    cpus = sorted(os.sched_getaffinity(0))
    capacity = None
    print(f"# rate  ok/s  query_ms_p50  query_ms_p90  late_ms_p90  backlog  meets "
          f"{service_mix.LIMIT_MS:g} ms")
    for rate in (float(r) for r in args.rates.split(",")):
        deployment = service_mix.Deployment(ROOT, cpus)
        try:
            raw = deployment.run(args.seed, args.seconds, False, rate)
        finally:
            deployment.shutdown()
            os.sched_setaffinity(0, cpus)
        summary = service_mix.summarize(raw, args.seconds)
        done = [r.done_ms for r in raw["requests"] if r.status == "ok"]
        fifth = max(1, len(raw["requests"]) // 5)
        head = [r.done_ms for r in raw["requests"][:fifth] if r.status == "ok"]
        tail = [r.done_ms for r in raw["requests"][-fifth:] if r.status == "ok"]
        backlog = median(tail) / median(head) if head and tail else float("nan")
        p90 = percentile(done, 0.9) if done else None
        tail_ms = p90 if p90 is not None else max(done, default=float("inf"))
        late = summary["late_ms_p90"] or 0.0
        meets = (
            summary["failed"] == 0
            and tail_ms <= service_mix.LIMIT_MS
            and late <= service_mix.MAX_LATENESS_MS
            and backlog <= 2.0
        )
        if meets:
            capacity = rate
        print(
            f"{rate:6g} {len(done) / args.seconds:6.1f} "
            f"{median(done) if done else float('nan'):12.3f} "
            f"{'n/a' if p90 is None else f'{p90:.3f}':>13} {late:12.3f} {backlog:8.2f}  "
            f"{'yes' if meets else 'no'}",
            flush=True,
        )
    print(f"# highest rate meeting the limit: {capacity}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
