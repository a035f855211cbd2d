"""Self-tests for the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (  # noqa: E402
    check_decode,
    check_edit_distance,
    check_logprobs,
    check_order,
    check_regex,
    check_same_stream,
    edit_distance,
)
from summary import percentile  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.core.api import search  # noqa: E402
from repro.core.query import SearchQuery  # noqa: E402
from repro.lm.ngram import NGramModel  # noqa: E402
from repro.tokenizers.bpe import train_bpe  # noqa: E402


# -- percentile rule ------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert percentile([float(i) for i in range(1, 20)], 0.9) is None
    assert percentile([float(i) for i in range(1, 100)], 0.9) is None
    assert percentile([float(i) for i in range(1, 101)], 0.9) == 90.0
    assert percentile([float(i) for i in range(1, 1000)], 0.99) is None
    assert percentile([float(i) for i in range(1, 1001)], 0.99) == 990.0


def test_percentile_median_and_order():
    assert percentile([5.0, 1.0, 3.0] + [9.0] * 10, 0.2) == 5.0
    assert percentile([], 0.5) is None
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)


# -- self time over nested spans -----------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("executor", "step")
    clock.now = 1.0
    child = tracer.begin("lm", "batch")
    clock.now = 4.0
    grandchild = tracer.begin("lm", "inner")
    clock.now = 5.0
    tracer.end(grandchild)
    tracer.end(child)
    clock.now = 6.0
    second = tracer.begin("compiler", "compile")
    clock.now = 8.0
    tracer.end(second)
    clock.now = 10.0
    tracer.end(outer)
    assert tracer.self_ms("executor") == pytest.approx(10_000 - 4_000 - 2_000)
    assert tracer.self_ms("lm") == pytest.approx(4_000)
    assert tracer.busy_ms("lm") == pytest.approx(4_000)  # nested lm span counted once
    assert tracer.busy_ms("compiler") == pytest.approx(2_000)


def test_patch_wraps_and_restores():
    class Box:
        def value(self) -> int:
            return 7

    tracer = Tracer()
    box = Box()
    tracer.patch(box, "value", "layer", "value")
    tracer.patch(Box, "value", "layer", "cls")
    assert box.value() == 7
    assert tracer.counts["layer.value"] == 1
    tracer.restore()
    assert "value" not in vars(box)
    assert Box().value() == 7
    assert tracer.counts == {"layer.value": 1}
    Box().value()
    assert tracer.counts == {"layer.value": 1}


# -- output checkers reject a tampered stream -----------------------------------

LINES = ["The man was trained in art.", "The woman was trained in science."] * 20
PATTERN = "The ((man)|(woman)) was trained in ((art)|(science))"


@pytest.fixture(scope="module")
def stream():
    tokenizer = train_bpe(LINES, vocab_size=300)
    model = NGramModel.train_on_text(LINES, tokenizer, order=3)
    matches = list(search(model, tokenizer, SearchQuery(PATTERN)))[:6]
    assert len(matches) >= 4
    return tokenizer, model, matches


def test_checkers_accept_the_engine_stream(stream):
    tokenizer, model, matches = stream
    assert check_regex(matches, PATTERN) == []
    assert check_decode(matches, tokenizer) == []
    assert check_order(matches) == []
    assert check_logprobs(matches, model, tokenizer, sampled=False) == []
    assert check_same_stream(matches, list(matches)) == []


def test_checkers_reject_tampering(stream):
    tokenizer, model, matches = stream
    first = matches[0]
    wrong_text = replace(first, text=first.text + "!")
    assert check_regex([wrong_text], PATTERN)
    assert check_decode([wrong_text], tokenizer)
    promoted = replace(matches[1], total_logprob=first.total_logprob + 1.0)
    assert check_order([first, promoted])
    wrong_score = replace(first, total_logprob=first.total_logprob + 0.5)
    assert check_logprobs([wrong_score], model, tokenizer, sampled=False)
    assert check_same_stream([wrong_score] + matches[1:], matches)
    assert check_same_stream(matches[:-1], matches)


def test_edit_distance_reference():
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("", "abc") == 3
    assert edit_distance("abc", "abc") == 0
    assert edit_distance("The man", "The$man") == 1
    language = ["The man was trained in art"]
    ok = [replace_text("The man was trained Oin art")]
    bad = [replace_text("The mn was trained Oin art")]
    assert check_edit_distance(ok, language, 1) == []
    assert check_edit_distance(bad, language, 1)


def replace_text(text: str):
    from repro.core.results import MatchResult

    return MatchResult(tokens=(), text=text, logprob=0.0, total_logprob=0.0, canonical=True)


# -- service figures ------------------------------------------------------------

def service_raw(statuses: list[str], draws: list[int], warm: set[int]) -> dict:
    from service_mix import Request

    requests = [Request(i, 0.0) for i in range(len(statuses))]
    for i, (req, status) in enumerate(zip(requests, statuses)):
        req.status = status
        if status == "ok":
            req.done_ms = 10.0 if draws[i] in warm else 50.0
    before = {
        "queries_admitted": 5, "compile_memory_hits": 20, "compile_memory_misses": 7,
        "logits_misses": 0,
    }
    admitted = statuses.count("ok")
    after = {
        "queries_admitted": 5 + admitted,
        # each admitted request: one admission lookup plus the scheduler's hit
        "compile_memory_hits": 20 + admitted + 2,
        "compile_memory_misses": 7 + 1,
        "logits_misses": 0,
    }
    return {
        "requests": requests, "draws": draws, "warm": warm, "lateness": [0.0] * len(draws),
        "wall": 1.0, "before": before, "after": after, "rtts": [],
    }


def test_service_layers_take_out_the_scheduler_hit():
    from service_mix import layers, summarize

    raw = service_raw(["ok"] * 3, draws=[0, 0, 9], warm={0})
    figures = layers(raw, summarize(raw, 1.0), engine_ms=1.0)
    assert figures["compiler.calls"] == 3  # admission compiles only
    assert figures["compiler.cache_hit_rate"] == pytest.approx(2 / 3)
    assert "compiler.busy_ms" not in figures
    # judged on the two warm-head requests (10 ms), not the cold one
    assert figures["service.overhead_share"] == pytest.approx(0.9)


def test_service_summary_without_matches_is_valid_json():
    import json

    from service_mix import summarize

    raw = service_raw(["error", "rejected"], draws=[0, 1], warm={0})
    summary = summarize(raw, 1.0)
    assert summary["failed"] == summary["attempted"] == 2
    assert summary["query_ms"] == []
    json.dumps({"lm_calls_per_match": summary["lm_calls_per_match"]}, allow_nan=False)


def test_warm_set_is_fixed_and_skewed():
    from service_mix import warm_set

    assert warm_set(375, 90) == warm_set(375, 90)
    warm = warm_set(375, 90)
    assert 0 in warm and len(warm) < 90


# -- host-speed probe -----------------------------------------------------------

def test_host_clock_leaves_probe_time_out(monkeypatch):
    import time

    import probe

    def slow_probe() -> float:
        time.sleep(0.05)
        return 0.04

    monkeypatch.setattr(probe, "probe", slow_probe)
    monkeypatch.setattr(probe, "PERIOD_S", 0.0)
    clock = probe.HostClock()
    clock.tick()
    clock.tick()
    assert clock.stop() < 0.04  # four probes of 50 ms, none counted
    assert len(clock.probes) == 4
    assert clock.slowdown == pytest.approx(0.04 / probe.REFERENCE_S)
