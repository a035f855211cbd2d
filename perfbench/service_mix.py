"""``service_mix``: an open loop against a ``repro serve`` subprocess.

Requests arrive on a seeded schedule at :data:`RATE` per second (open
loop: a request is sent when it is due, whether or not earlier ones have
finished) over :data:`CONNECTIONS` NDJSON connections from this one
process.  Each asks for the top :data:`TOP` matches of a query drawn
with a Zipf skew from a pool of small templated queries.  Before timing,
the server answers the queries of one earlier window of the same
traffic, so repeats read its warm compile and logits caches while the
queries that window did not draw compile cold.  Latencies run from each
request's *scheduled* send time.
"""

from __future__ import annotations

import asyncio
import functools
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from checks import (
    LOGPROB_SAMPLE,
    check_decode,
    check_logprobs,
    check_regex,
    check_same_stream,
)
from summary import median, percentile

from repro.core.api import search
from repro.core.compiler import GraphCompiler
from repro.core.query import SearchQuery
from repro.datasets.lexicon import GENDERS, PROFESSIONS, TLDS, URL_PATH_WORDS
from repro.datasets.webworld import WebWorld
from repro.lm.base import LogitsCache
from repro.regex import escape
from repro.service.client import ServiceClient, ServiceError

#: Offered load (requests per second): a sixteenth of the capacity that
#: ``sweep.py`` measured (400/s met :data:`LIMIT_MS` at p90, 600/s did not;
#: see README).  Latency is flat below capacity (p50 3.7-4.7 ms from 25 to
#: 400/s), so the rate sets the sample count and the warm-up's size, not
#: the latency: at this rate one window of traffic leaves a cold tail and
#: the warm-up takes a few seconds.
RATE = 25.0
#: Connections the load generator spreads requests over.
CONNECTIONS = 2
#: Per-connection in-flight cap passed to the server: each connection
#: carries many independent users, so a burst queues instead of being
#: refused at the server's default of 8.
MAX_INFLIGHT = 256
#: Matches asked of each request.
TOP = 4
#: Zipf exponent of the query draw, within the 0.64-0.83 that Breslau et
#: al. measured on web proxy traces ("Web Caching and Zipf-like
#: Distributions: Evidence and Implications", INFOCOM 1999).
ZIPF_S = 0.8
#: Seed of the earlier traffic window that warms the server: fixed, so
#: every run warms the same queries and has the same cold tail.
WARM_SEED = 0
#: Latency limit a request must meet to count towards ``queries_per_s``:
#: 0.1 s, the response time a user perceives as instantaneous (Nielsen,
#: "Usability Engineering", 1993, ch. 5).
LIMIT_MS = 100.0
#: A run is invalid when the generator's p90 lateness exceeds half the
#: latency limit.
MAX_LATENESS_MS = LIMIT_MS / 2
#: In-process repetitions timed per warm query for ``service.engine_ms``.
ENGINE_REPS = 5
#: Round trips of a ``stats`` frame timed for ``service.rtt_ms_p50``.
RTT_PROBES = 50
#: Executor limit the server applies to every query (``repro serve``).
SERVER_MAX_EXPANSIONS = 50_000
#: Seconds the timed phase waits, after the last send, for answers.
DRAIN_TIMEOUT = 60.0
#: Seconds to wait for the server to announce its port.
READY_TIMEOUT = 120.0


def _alternatives(words) -> str:
    return "(" + "|".join(f"({escape(w)})" for w in words) + ")"


def query_pool() -> list[Any]:
    """The templated pool, ordered by popularity rank.

    Bias-template probes over a window of professions and URL probes
    over one registered host's TLDs and paths: small languages whose top
    matches take a few LM calls warm and one cold compile the first
    time.  The two shapes interleave so every rank mixes them.
    """
    bias = []
    for width in (6, 8):
        for gender in GENDERS:
            for start in range(len(PROFESSIONS)):
                window = [PROFESSIONS[(start + k) % len(PROFESSIONS)] for k in range(width)]
                prefix = f"The (({gender})) was trained in"
                bias.append(SearchQuery(f"{prefix} {_alternatives(window)}", prefix=prefix))
    hosts = sorted(u for u in WebWorld.create(seed=0).registered if u.count("/") == 2)
    urls = []
    for variant in range(2):
        for i, host in enumerate(hosts):
            domain = host[len("https://www."):].split(".")[0]
            paths = [URL_PATH_WORDS[(i + 3 * variant + k) % len(URL_PATH_WORDS)] for k in range(3)]
            urls.append(SearchQuery(
                rf"https://www\.{escape(domain)}\.{_alternatives(TLDS)}(/{_alternatives(paths)})?",
                prefix=r"https://www\.",
            ))
    pool = []
    for i in range(max(len(bias), len(urls))):
        pool += [shape[i] for shape in (urls, bias) if i < len(shape)]
    return pool


def zipf_weights(size: int) -> list[float]:
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(size)]


def warm_set(n: int, size: int) -> list[int]:
    """Pool indices a server that has already served one window of this
    traffic (*n* independent Zipf draws, seeded by :data:`WARM_SEED`) has
    compiled and cached; the rest of the pool is its cold tail."""
    rng = random.Random(WARM_SEED)
    return sorted(set(rng.choices(range(size), weights=zipf_weights(size), k=n)))


def schedule(
    seed: int, seconds: float, rate: float = RATE
) -> tuple[list[float], list[int]]:
    """Arrival offsets and the pool index each request asks for.

    The mix is fixed: each query's share of the requests is its Zipf
    weight, rounded to whole requests by largest remainder, so every seed
    sends the same queries (and compiles the same cold tail).  The seed
    shuffles their order and draws exponential gaps, rescaled so the
    arrivals span exactly *seconds*.
    """
    rng = random.Random(seed)
    n = max(1, round(rate * seconds))
    gaps = [rng.expovariate(rate) for _ in range(n)]
    scale = seconds / sum(gaps)
    offsets, t = [], 0.0
    for gap in gaps:
        offsets.append(t)
        t += gap * scale
    weights = zipf_weights(len(query_pool()))
    quotas = [n * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    draws = [i for i, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(draws)
    return offsets, draws


@dataclass
class Request:
    index: int
    scheduled: float
    first_ms: float | None = None
    done_ms: float | None = None
    status: str = "pending"
    matches: list = field(default_factory=list)


class Server:
    """A ``repro serve --scale full`` subprocess."""

    def __init__(self, root: Path, cpus: set[int] | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        pin = functools.partial(os.sched_setaffinity, 0, cpus) if cpus else None
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--scale", "full", "--port", "0",
                "--max-inflight", str(MAX_INFLIGHT),
            ],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, preexec_fn=pin,
        )
        deadline = started + READY_TIMEOUT
        self.host = self.port = None
        while time.perf_counter() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            found = re.match(r"# listening (\S+):(\d+)", line)
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                break
        self.ready_s = time.perf_counter() - started
        if self.port is None:
            self.stop()
            raise RuntimeError("repro serve did not announce a port")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class Deployment:
    """A started server plus this process's connections to it, driven
    from one private event loop."""

    def __init__(self, root: Path, cpus: list[int]) -> None:
        started = time.perf_counter()
        self.loop = asyncio.new_event_loop()
        # Load generator and server on separate CPUs (of the *cpus* this
        # process may use): sharing one, each reply waits on the other
        # process's time slice.
        server_cpus = None
        if len(cpus) >= 2:
            os.sched_setaffinity(0, {cpus[0]})
            server_cpus = set(cpus[1:])
        self.server = Server(root, server_cpus)
        try:
            self.clients = self.loop.run_until_complete(self._connect())
        except BaseException:
            self.server.stop()
            self.loop.close()
            raise
        #: Seconds from launch until every connection is open.
        self.setup_s = time.perf_counter() - started

    async def _connect(self) -> list[ServiceClient]:
        server = self.server
        return [
            await ServiceClient.connect(server.host, server.port) for _ in range(CONNECTIONS)
        ]

    async def _close(self) -> None:
        for client in self.clients:
            await client.close()

    def run(self, seed: int, seconds: float, trace: bool, rate: float = RATE) -> dict:
        """The timed phase; returns raw requests, stats frames and timings."""
        return self.loop.run_until_complete(_drive(self.clients, seed, seconds, trace, rate))

    def shutdown(self) -> None:
        try:
            self.loop.run_until_complete(self._close())
        finally:
            self.server.stop()
            self.loop.close()


async def _consume(client: ServiceClient, req: Request, query: Any, t0: float) -> None:
    stream = await client.submit(query, max_results=TOP)
    try:
        async for match in stream:
            if req.first_ms is None:
                req.first_ms = 1e3 * (time.perf_counter() - t0 - req.scheduled)
            req.matches.append(match)
    except ServiceError:
        req.status = "error"
        return
    req.done_ms = 1e3 * (time.perf_counter() - t0 - req.scheduled)
    ok = stream.status == "ok" or (
        stream.status == "truncated" and stream.reason == "max_results"
    )
    req.status = "ok" if ok else stream.status


async def _drive(
    clients: list[ServiceClient], seed: int, seconds: float, trace: bool, rate: float
) -> dict:
    pool = query_pool()
    offsets, draws = schedule(seed, seconds, rate)
    warm = warm_set(len(offsets), len(pool))
    for i in warm:
        await (await clients[0].submit(pool[i], max_results=TOP)).collect()
    before = await clients[0].stats()
    requests = [Request(i, t) for i, t in enumerate(offsets)]
    tasks = []
    lateness = []
    t0 = time.perf_counter()
    for req, pick in zip(requests, draws):
        delay = req.scheduled - (time.perf_counter() - t0)
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(1e3 * max(0.0, time.perf_counter() - t0 - req.scheduled))
        client = clients[req.index % CONNECTIONS]
        tasks.append(asyncio.ensure_future(_consume(client, req, pool[pick], t0)))
    _, late = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT)
    for task in late:
        task.cancel()
    await asyncio.gather(*late, return_exceptions=True)
    wall = time.perf_counter() - t0
    for req, task in zip(requests, tasks):
        if task.cancelled():
            req.status = "timeout"
        elif task.exception() is not None:
            req.status = f"error: {task.exception()!r}"
    after = await clients[0].stats()
    rtts = []
    if trace:
        for _ in range(RTT_PROBES):
            started = time.perf_counter()
            await clients[0].stats()
            rtts.append(1e3 * (time.perf_counter() - started))
    return {
        "requests": requests, "draws": draws, "warm": set(warm), "lateness": lateness,
        "wall": wall, "before": before, "after": after, "rtts": rtts,
    }


def summarize(raw: dict, seconds: float) -> dict:
    """End-to-end figures from one timed phase."""
    requests: list[Request] = raw["requests"]
    before, after = raw["before"], raw["after"]
    ok = [r for r in requests if r.status == "ok"]
    first = [r.first_ms for r in ok if r.first_ms is not None]
    done = [r.done_ms for r in ok]
    matches = sum(len(r.matches) for r in requests)
    contexts = after["logits_misses"] - before["logits_misses"]
    within = sum(1 for r in ok if r.done_ms <= LIMIT_MS)
    cold = [
        r.done_ms for r, pick in zip(requests, raw["draws"])
        if r.status == "ok" and pick not in raw["warm"]
    ]
    return {
        "matches": matches,
        "matches_per_s": matches / raw["wall"],
        # With no match at all, the contexts scored count as spent on one.
        "lm_calls_per_match": contexts / max(matches, 1),
        "cold_requests": sum(1 for pick in raw["draws"] if pick not in raw["warm"]),
        "cold_query_ms": cold,
        "first_match_ms": first,
        "query_ms": done,
        "queries_per_s": within / seconds,
        "failed": len(requests) - len(ok),
        "statuses": Counter(r.status for r in requests),
        "attempted": len(requests),
        "late_ms_p90": percentile(raw["lateness"], 0.9),
        "late_ms_max": max(raw["lateness"]),
    }


def layers(raw: dict, summary: dict, engine_ms: float | None) -> dict[str, float]:
    """Per-layer figures read from the server's stats frames and the
    client's own timings.

    The server compiles each query at admission and the scheduler then
    compiles it again from the warm compiler: one guaranteed memory hit
    per admitted request, taken out of the compiler counts here.  The
    admission compile's time is not in the stats frame, so
    ``compiler.busy_ms`` is left out (not exercised).  *engine_ms* is the
    in-process time of the warm-head queries (:func:`warm_engine_ms`);
    ``service.overhead_share`` compares it with the client latency of the
    warm-head requests, which compile nothing.
    """
    before, after = raw["before"], raw["after"]

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    admitted = delta("queries_admitted")
    hits = delta("compile_memory_hits") - admitted
    misses = delta("compile_memory_misses")
    lhits, lmisses = delta("logits_hits"), delta("logits_misses")
    rounds = delta("rounds")
    warm_ms = [
        r.done_ms for r, pick in zip(raw["requests"], raw["draws"])
        if r.status == "ok" and pick in raw["warm"]
    ]
    out = {
        "compiler.calls": hits + misses,
        "compiler.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "lm.contexts": lmisses,
        "lm.busy_ms": delta("lm_wall_ms"),
        "lm.us_per_context": 1e3 * delta("lm_wall_ms") / lmisses if lmisses else 0.0,
        "lm.logits_hit_rate": lhits / (lhits + lmisses) if lhits + lmisses else 0.0,
        "scheduler.rounds": rounds,
        "scheduler.contexts_serviced": delta("contexts_serviced"),
        "scheduler.mean_round_size": delta("contexts_serviced") / rounds if rounds else 0.0,
        "service.rtt_ms_p50": median(raw["rtts"]) if raw["rtts"] else 0.0,
        "service.matches_streamed": delta("matches_streamed"),
        "service.backpressure_stalls": delta("backpressure_stalls"),
        "service.rejected": delta("queries_rejected"),
    }
    if engine_ms is not None and warm_ms:
        out["service.engine_ms"] = engine_ms
        out["service.overhead_share"] = 1.0 - engine_ms / median(warm_ms)
    return out


def reference_world() -> tuple:
    """The server's environment, in process: model, tokenizer, a
    compiler and a logits cache, both shared by every reference search."""
    from repro.experiments.common import get_environment

    env = get_environment(0, "full")
    model, tokenizer = env.model("xl"), env.tokenizer
    return model, tokenizer, GraphCompiler(tokenizer), LogitsCache(model, capacity=65536)


def top_matches(world: tuple, query: Any) -> list:
    """The first :data:`TOP` matches of an in-process ``search`` with the
    server's executor limit."""
    model, tokenizer, compiler, cache = world
    out = []
    for match in search(
        model, tokenizer, query, compiler=compiler, logits_cache=cache,
        max_expansions=SERVER_MAX_EXPANSIONS,
    ):
        out.append(match)
        if len(out) >= TOP:
            break
    return out


def warm_engine_ms(raw: dict, world: tuple) -> float | None:
    """Median in-process time of a warm-head request: each warm query is
    answered again on *world*'s compiler and logits cache (warm from
    :func:`check`), the median of :data:`ENGINE_REPS` timings per query,
    weighted by the query's requests."""
    pool = query_pool()
    per_query: dict[int, float] = {}
    weighted = []
    for pick in raw["draws"]:
        if pick not in raw["warm"]:
            continue
        if pick not in per_query:
            times = []
            for _ in range(ENGINE_REPS):
                started = time.perf_counter()
                top_matches(world, pool[pick])
                times.append(1e3 * (time.perf_counter() - started))
            per_query[pick] = median(times)
        weighted.append(per_query[pick])
    return median(weighted) if weighted else None


def check(raw: dict, seed: int, world: tuple) -> tuple[list[str], set[int]]:
    """Compare every distinct query's streamed answer with an in-process
    search on the same environment; returns problems and the indices of
    requests whose stream failed a check."""
    model, tokenizer = world[0], world[1]
    pool = query_pool()
    problems: list[str] = []
    bad: set[int] = set()
    reference: dict[int, list] = {}
    checked: list = []
    for req, pick in zip(raw["requests"], raw["draws"]):
        if req.status != "ok":
            continue
        if pick not in reference:
            expected = top_matches(world, pool[pick])
            reference[pick] = expected
            found = (
                check_same_stream(req.matches, expected)
                + check_regex(req.matches, pool[pick].query_string.query_str)
                + check_decode(req.matches, tokenizer)
            )
            checked += req.matches
        else:
            found = check_same_stream(req.matches, reference[pick])
        if found:
            bad.add(req.index)
            problems += found
    problems += check_logprobs(
        checked, model, tokenizer, sampled=False, limit=LOGPROB_SAMPLE, seed=seed
    )
    return problems, bad
