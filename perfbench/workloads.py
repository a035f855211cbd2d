"""The four benchmark workloads.

Each in-process workload has a ``setup(seed)`` that builds what a user
needs before the first query (tokenizer, trained model), a ``rep`` that
runs one repetition of the timed work through the public API (on a given
compiler, or the workload's own) and returns a :class:`Rep`, and a ``check`` that validates a repetition's
matches against independent references (:mod:`checks`).  The service
workload drives a ``repro serve`` subprocess and lives in
:mod:`service_mix`.

The corpus, tokenizer, URL registry and models are the repository's
fixed seed-0 world (the one ``repro serve`` loads): the model under
validation is a given artifact, and models trained from other seeds do
measurably different amounts of work on the same queries, which would
swamp the run-to-run spread.  The workload seed drives what a user
varies: sample seeds (``bias_audit``) and, for the service, the query
draw and arrival times.  ``url_extract`` and ``knowledge_tf`` run fixed
queries, so their seed changes nothing (even the submission order of
the probes moves ``knowledge_tf``'s throughput by a third, through how
rounds group contexts into batched forwards).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from checks import (
    LOGPROB_SAMPLE,
    check_decode,
    check_edit_distance,
    check_logprobs,
    check_order,
    check_regex,
)
from probe import HostClock
from tracing import Tracer, TracedModel

from repro.core.analyze import QueryAnalyzer
from repro.core.api import prepare
from repro.core.compiler import GraphCompiler, TokenAutomaton
from repro.core.preprocessors import LevenshteinPreprocessor
from repro.core.query import SearchQuery
from repro.core.results import MatchResult
from repro.core.scheduler import QueryBudget, QueryScheduler
from repro.datasets.corpus import build_corpus
from repro.datasets.lambada import build_lambada
from repro.datasets.lexicon import GENDERS, PROFESSIONS
from repro.datasets.webworld import WebWorld
from repro.experiments.bias import FIGURE13_CONFIGS, bias_query, gender_pattern
from repro.experiments.knowledge import FACTS, birthdate_query, month_query
from repro.experiments.memorization import URL_PATTERN, URL_PREFIX_REGEX
from repro.lm.base import LogitsCache
from repro.lm.ngram import NGramModel
from repro.lm.transformer import TransformerConfig, TransformerModel
from repro.tokenizers.bpe import train_bpe

#: Matches streamed per ``url_extract`` repetition.
URL_MATCHES = 10_000
#: Samples per gender and panel in ``bias_audit``: enough that the share of
#: contexts scored per sample repeats within 3% across sample seeds.
BIAS_SAMPLES = 800
#: Top-N matches per ``knowledge_tf`` probe.
KNOWLEDGE_TOP_N = 400
#: Transformer training steps for ``knowledge_tf`` (brief on purpose).
KNOWLEDGE_FIT_STEPS = 40


@dataclass
class Rep:
    """One repetition's outcome."""

    #: The compiler the repetition used (warm once it has run).
    compiler: GraphCompiler
    #: Wall seconds of work (host probes left out), and the host's
    #: slowdown against the probe's reference over those seconds.
    seconds: float
    slowdown: float
    #: Matches per query, in the order the queries were issued.
    results: list[list[MatchResult]]
    #: Contexts the model scored (logits-cache misses).
    lm_contexts: int
    #: Per query: ms from the repetition's start to its first match / end.
    first_match_ms: list[float]
    query_ms: list[float]
    #: Queries that were rejected or stopped by anything but their budget.
    failed_queries: int
    #: Counts that must repeat exactly for one seed.
    repeat_counts: dict[str, int]
    #: Per-layer figures (filled only on traced repetitions).
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def matches(self) -> int:
        return self.repeat_counts["matches"]


# -- shared set-up --------------------------------------------------------------

def build_ngram_world() -> tuple[dict[str, Any], dict[str, float]]:
    """The full-scale environment's tokenizer and XL n-gram, built as
    ``repro serve --scale full`` builds them.  Returns the world and the
    set-up time of each part."""
    started = time.perf_counter()
    lambada = build_lambada(seed=0)
    web = WebWorld.create(seed=0)
    corpus = build_corpus(
        seed=0,
        general_count=1500,
        bias_per_gender=400,
        toxic_repeats=12,
        web=web,
        lambada_lines=lambada.training_lines,
    )
    tokenizer = train_bpe(corpus.lines, vocab_size=768)
    trained = time.perf_counter()
    model = NGramModel.train_on_text(
        corpus.lines, tokenizer, order=6, alpha=0.1, encoding_noise=0.02
    )
    fitted = time.perf_counter()
    world = {"tokenizer": tokenizer, "model": model, "web": web}
    return world, {"tokenizer_s": trained - started, "model_fit_s": fitted - trained}


def traced_compiler(tokenizer, tracer: Tracer | None) -> GraphCompiler:
    """A fresh compiler; with a tracer, its passes run inside spans."""
    analyzer = QueryAnalyzer(tokenizer)
    compiler = GraphCompiler(tokenizer, analyzer=analyzer)
    if tracer is not None:
        tracer.patch(compiler, "compile", "compiler", "compile")
        tracer.patch(compiler, "compile_all_tokens", "compiler", "token_build")
        tracer.patch(compiler, "compile_canonical", "compiler", "token_build")
        tracer.patch(analyzer, "analyze_compiled", "compiler", "analyze")
        tracer.patch(analyzer, "rebind", "compiler", "analyze")
        tracer.patch(TokenAutomaton, "minimized", "compiler", "minimize")
        tracer.patch(LevenshteinPreprocessor, "apply", "compiler", "levenshtein")
    return compiler


def compiler_layers(tracer: Tracer, compiler: GraphCompiler, compiled: list) -> dict[str, float]:
    cache = compiler.cache
    lookups = cache.hits + cache.misses if cache is not None else 0
    return {
        "compiler.calls": tracer.counts["compiler.compile"],
        "compiler.busy_ms": tracer.busy_ms("compiler", "compile"),
        "compiler.cache_hit_rate": cache.hits / lookups if lookups else 0.0,
        "compiler.token_build_ms": tracer.busy_ms("compiler", "token_build"),
        "compiler.minimize_ms": tracer.busy_ms("compiler", "minimize"),
        "compiler.analyze_ms": tracer.busy_ms("compiler", "analyze"),
        "compiler.levenshtein_ms": tracer.busy_ms("compiler", "levenshtein"),
        "compiler.token_edges": sum(c.metrics.token_edges for c in compiled),
        "compiler.minimized_states": sum(c.metrics.minimized_states for c in compiled),
    }


def lm_layers(tracer: Tracer, cache: LogitsCache, model) -> dict[str, float]:
    contexts = tracer.counts["lm.contexts"]
    busy = tracer.busy_ms("lm")
    hits, misses = cache.hits, cache.misses
    out = {
        "lm.batch_calls": tracer.counts["lm.batch_calls"],
        "lm.contexts": contexts,
        "lm.busy_ms": busy,
        "lm.us_per_context": 1e3 * busy / contexts if contexts else 0.0,
        "lm.logits_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }
    prefix = getattr(model, "prefix_cache", None)
    if prefix is not None:
        out["lm.prefix_bytes"] = prefix.bytes
    return out


def scheduled_rep(
    scheduler: QueryScheduler,
    submit: list[tuple[Any, dict]],
    clock: HostClock,
    tracer: Tracer | None,
) -> tuple[list, list[float], list[float]]:
    """Submit every query, drive the scheduler with ``step`` and note
    when each query delivers its first match and finishes."""
    handles = []
    for query, kw in submit:
        handles.append(scheduler.submit(query, **kw))
        clock.tick()
    if tracer is not None:
        tracer.patch(scheduler, "step", "scheduler", "step")
    first: list[float | None] = [None] * len(handles)
    finished: list[float | None] = [None] * len(handles)
    while True:
        more = scheduler.step()
        clock.tick()
        now = 1e3 * clock.elapsed()
        for i, h in enumerate(handles):
            if first[i] is None and h.results:
                first[i] = now
            if finished[i] is None and h.done:
                finished[i] = now
        if not more:
            break
    end = 1e3 * clock.elapsed()
    # A query that never matched waits for the whole run.
    return (
        handles,
        [end if f is None else f for f in first],
        [end if f is None else f for f in finished],
    )


def failed_handle(h) -> bool:
    return h.truncated and h.truncated_reason not in (None, "max_results")


# -- url_extract ----------------------------------------------------------------

class UrlExtract:
    """The paper's URL query as a shortest-path stream on the XL n-gram."""

    def setup(self, seed: int) -> tuple[dict, dict[str, float]]:
        return build_ngram_world()

    def query(self):
        return SearchQuery(URL_PATTERN, prefix=URL_PREFIX_REGEX, top_k=40, sequence_length=24)

    def rep(
        self, world: dict, tracer: Tracer | None, seed: int, compiler: GraphCompiler | None = None
    ) -> Rep:
        tokenizer = world["tokenizer"]
        model = world["model"] if tracer is None else TracedModel(world["model"], tracer)
        clock = HostClock()
        if compiler is None:
            compiler = traced_compiler(tokenizer, tracer)
        cache = LogitsCache(model, capacity=65536)
        try:
            session = prepare(
                model, tokenizer, self.query(), compiler=compiler, logits_cache=cache
            )
            stream = iter(session)
            if tracer is not None:
                stream = tracer.iterate(stream, "executor", "next")
            matches: list[MatchResult] = []
            first_ms = 0.0
            for match in stream:
                if not matches:
                    first_ms = 1e3 * clock.elapsed()
                matches.append(match)
                if len(matches) >= URL_MATCHES:
                    break
                clock.tick()
            seconds = clock.stop()
        finally:
            if tracer is not None:
                tracer.restore()
        stats = session.stats
        rep = Rep(
            compiler=compiler,
            seconds=seconds,
            slowdown=clock.slowdown,
            results=[matches],
            lm_contexts=cache.misses,
            first_match_ms=[first_ms],
            query_ms=[1e3 * seconds],
            failed_queries=int(len(matches) < URL_MATCHES),
            repeat_counts={
                "lm_contexts": cache.misses,
                "matches": len(matches),
                "token_edges": session.compiled.metrics.token_edges,
                "valid_urls": sum(world["web"].url_exists(m.text) for m in matches),
            },
        )
        if tracer is not None:
            rep.layers.update(compiler_layers(tracer, compiler, [session.compiled]))
            rep.layers.update(lm_layers(tracer, cache, model))
            rep.layers.update(
                {
                    "executor.self_ms": tracer.self_ms("executor"),
                    "executor.nodes_expanded": stats.nodes_expanded,
                    "executor.pruned_edges": stats.pruned_edges,
                    "executor.match_ratio": len(matches) / max(stats.nodes_expanded, 1),
                }
            )
        return rep

    def check(self, world: dict, rep: Rep, seed: int) -> list[str]:
        matches = rep.results[0]
        return (
            check_regex(matches, URL_PATTERN)
            + check_decode(matches, world["tokenizer"])
            + check_order(matches)
            + check_logprobs(
                matches, world["model"], world["tokenizer"],
                sampled=False, limit=LOGPROB_SAMPLE, seed=seed,
            )
        )


# -- bias_audit -----------------------------------------------------------------

class BiasAudit:
    """Figure 13's four panels, both genders, one scheduler, cold compiler."""

    def setup(self, seed: int) -> tuple[dict, dict[str, float]]:
        return build_ngram_world()

    def queries(self, seed: int) -> list[tuple[Any, Any, str]]:
        out = []
        for config in FIGURE13_CONFIGS:
            for i, gender in enumerate(GENDERS):
                out.append((config, bias_query(config, gender, BIAS_SAMPLES, seed + i), gender))
        return out

    def rep(
        self, world: dict, tracer: Tracer | None, seed: int, compiler: GraphCompiler | None = None
    ) -> Rep:
        tokenizer = world["tokenizer"]
        model = world["model"] if tracer is None else TracedModel(world["model"], tracer)
        clock = HostClock()
        if compiler is None:
            compiler = traced_compiler(tokenizer, tracer)
        cache = LogitsCache(model, capacity=65536)
        scheduler = QueryScheduler(
            model, tokenizer, compiler=compiler, logits_cache=cache, concurrency=8
        )
        submit = [
            (q, {"max_attempts": BIAS_SAMPLES * 20}) for _, q, _ in self.queries(seed)
        ]
        try:
            handles, first, done = scheduled_rep(scheduler, submit, clock, tracer)
            seconds = clock.stop()
        finally:
            if tracer is not None:
                tracer.restore()
        stats = [h.stats for h in handles]
        rep = Rep(
            compiler=compiler,
            seconds=seconds,
            slowdown=clock.slowdown,
            results=[list(h.results) for h in handles],
            lm_contexts=cache.misses,
            first_match_ms=first,
            query_ms=done,
            failed_queries=sum(
                failed_handle(h) or len(h.results) < BIAS_SAMPLES for h in handles
            ),
            repeat_counts={
                "lm_contexts": cache.misses,
                "matches": sum(len(h.results) for h in handles),
                "token_edges": sum(h.compiled.metrics.token_edges for h in handles),
                "rounds": scheduler.stats.rounds,
            },
        )
        if tracer is not None:
            rep.layers.update(compiler_layers(tracer, compiler, [h.compiled for h in handles]))
            rep.layers.update(lm_layers(tracer, cache, model))
            rep.layers.update(scheduler_layers(tracer, scheduler, stats, rep.matches))
            attempts = rep.matches + sum(s.failed_attempts for s in stats)
            rep.layers["executor.accept_ratio"] = rep.matches / max(attempts, 1)
        return rep

    def check(self, world: dict, rep: Rep, seed: int) -> list[str]:
        tokenizer = world["tokenizer"]
        problems = []
        for (config, _, gender), matches in zip(self.queries(seed), rep.results):
            language = [f"The {gender} was trained in {p}" for p in PROFESSIONS]
            if config.edits:
                problems += check_edit_distance(matches, language, config.edits)
            else:
                pattern = f"The {gender_pattern(gender)} was trained in " + "(" + "|".join(
                    f"({p})" for p in PROFESSIONS
                ) + ")"
                problems += check_regex(matches, pattern)
            problems += check_decode(matches, tokenizer)
        flat = [m for matches in rep.results for m in matches]
        problems += check_logprobs(
            flat, world["model"], tokenizer, sampled=True, limit=LOGPROB_SAMPLE, seed=seed
        )
        return problems


def scheduler_layers(tracer: Tracer, scheduler: QueryScheduler, stats: list, matches: int) -> dict:
    """Scheduler and executor figures for a scheduler-driven repetition.

    ``QueryScheduler.step`` runs the executors' traversal steps inline,
    so from outside the two share one self time: step spans minus the LM
    spans inside them.  It is reported under both names.
    """
    nodes = sum(s.nodes_expanded for s in stats)
    combined = tracer.self_ms("scheduler")
    return {
        "scheduler.rounds": scheduler.stats.rounds,
        "scheduler.mean_round_size": scheduler.stats.mean_round_size,
        "scheduler.contexts_serviced": scheduler.stats.contexts_serviced,
        "scheduler.self_ms": combined,
        "executor.self_ms": combined,
        "executor.nodes_expanded": nodes,
        "executor.pruned_edges": sum(s.pruned_edges for s in stats),
        "executor.match_ratio": matches / nodes if nodes else 0.0,
    }


# -- knowledge_tf ---------------------------------------------------------------

def knowledge_lines() -> list[str]:
    """The Figure 1 fact corpus (the same recipe as the knowledge world)."""
    rng = random.Random(0)
    lines: list[str] = []
    for subject, date in FACTS:
        lines.extend([f"{subject} was born on {date}."] * 12)
        lines.extend([f"Many remember that {subject} was born on a farm."] * 4)
    lines.extend(["The town celebrated this day in 1732 with a parade."] * 8)
    lines.extend(["The archive recorded events from July 4, 1732 onward."] * 6)
    rng.shuffle(lines)
    return lines


class KnowledgeTf:
    """Figure 1c probes on a briefly trained NumPy transformer."""

    def setup(self, seed: int) -> tuple[dict, dict[str, float]]:
        started = time.perf_counter()
        lines = knowledge_lines()
        tokenizer = train_bpe(lines, vocab_size=512)
        trained = time.perf_counter()
        config = TransformerConfig(
            vocab_size=len(tokenizer), block_size=32, n_layer=2, n_head=2, n_embd=32
        )
        model = TransformerModel(config, eos_id=tokenizer.eos_id, seed=0, kv_cache_mb=64.0)
        model.fit(
            [tokenizer.encode(line) for line in lines],
            steps=KNOWLEDGE_FIT_STEPS, batch_size=16, lr=1e-2, seed=0,
        )
        fitted = time.perf_counter()
        # Probes share one warm compiler: compilation is not what this
        # workload measures.
        compiler = GraphCompiler(tokenizer)
        for query in self.queries():
            compiler.compile(query)
        compiled = time.perf_counter()
        world = {"tokenizer": tokenizer, "model": model, "compiler": compiler}
        return world, {
            "tokenizer_s": trained - started,
            "model_fit_s": fitted - trained,
            "compile_s": compiled - fitted,
        }

    def queries(self) -> list:
        out = []
        for subject, _ in FACTS:
            out += [birthdate_query(subject), month_query(subject)]
        return out

    def rep(
        self, world: dict, tracer: Tracer | None, seed: int, compiler: GraphCompiler | None = None
    ) -> Rep:
        tokenizer, inner = world["tokenizer"], world["model"]
        model = inner if tracer is None else TracedModel(inner, tracer)
        if compiler is None:
            compiler = world["compiler"]
        inner.prefix_cache.clear()  # every repetition starts with a cold KV cache
        prefix0 = (inner.prefix_cache.hits, inner.prefix_cache.misses)
        clock = HostClock()
        if tracer is not None:
            tracer.patch(compiler, "compile", "compiler", "compile")
        cache = LogitsCache(model, capacity=65536)
        scheduler = QueryScheduler(
            model, tokenizer, compiler=compiler, logits_cache=cache, concurrency=8
        )
        budget = QueryBudget(max_results=KNOWLEDGE_TOP_N)
        submit = [(q, {"budget": budget, "max_expansions": 20_000}) for q in self.queries()]
        try:
            handles, first, done = scheduled_rep(scheduler, submit, clock, tracer)
            seconds = clock.stop()
        finally:
            if tracer is not None:
                tracer.restore()
        stats = [h.stats for h in handles]
        rep = Rep(
            compiler=compiler,
            seconds=seconds,
            slowdown=clock.slowdown,
            results=[list(h.results) for h in handles],
            lm_contexts=cache.misses,
            first_match_ms=first,
            query_ms=done,
            failed_queries=sum(failed_handle(h) for h in handles),
            repeat_counts={
                "lm_contexts": cache.misses,
                "matches": sum(len(h.results) for h in handles),
                "token_edges": sum(h.compiled.metrics.token_edges for h in handles),
                "rounds": scheduler.stats.rounds,
            },
        )
        if tracer is not None:
            rep.layers.update(compiler_layers(tracer, compiler, [h.compiled for h in handles]))
            rep.layers.update(lm_layers(tracer, cache, inner))
            hits = inner.prefix_cache.hits - prefix0[0]
            misses = inner.prefix_cache.misses - prefix0[1]
            rep.layers["lm.prefix_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
            rep.layers.update(scheduler_layers(tracer, scheduler, stats, rep.matches))
        return rep

    def check(self, world: dict, rep: Rep, seed: int) -> list[str]:
        tokenizer = world["tokenizer"]
        problems = []
        for query, matches in zip(self.queries(), rep.results):
            problems += check_regex(matches, query.query_string.query_str)
            problems += check_decode(matches, tokenizer)
            problems += check_order(matches)
        flat = [m for matches in rep.results for m in matches]
        problems += check_logprobs(
            flat, world["model"], tokenizer, sampled=False, limit=LOGPROB_SAMPLE, seed=seed
        )
        return problems
