"""Output checks against references that do not run the engine.

Each checker takes a match stream and returns a list of problems (empty
when the stream is correct).  The references are Python's ``re``, a
standalone edit-distance routine, the tokenizer's ``decode``, and the
model's own chain-rule ``sequence_logprob``; none goes through the
compiler, executor or scheduler under test.
"""

from __future__ import annotations

import random
import re
from typing import Iterable, Sequence

from repro.core.results import MatchResult

#: Absolute tolerance for a recomputed log-probability.
LOGPROB_TOL = 1e-6
#: Matches per run whose log-probability is recomputed.
LOGPROB_SAMPLE = 200


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance (insert, delete, substitute), two-row DP."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def check_regex(matches: Iterable[MatchResult], pattern: str) -> list[str]:
    """Every match is a full match of *pattern* under Python ``re``."""
    compiled = re.compile(pattern)
    return [
        f"regex: {m.text!r} does not fully match {pattern!r}"
        for m in matches
        if compiled.fullmatch(m.text) is None
    ]


def check_edit_distance(
    matches: Iterable[MatchResult], language: Sequence[str], max_edits: int
) -> list[str]:
    """Every match is within *max_edits* edits of some string of the
    (finite) *language*."""
    members = set(language)
    problems = []
    for m in matches:
        if m.text in members:
            continue
        best = min(
            (edit_distance(m.text, s) for s in language if abs(len(s) - len(m.text)) <= max_edits),
            default=max_edits + 1,
        )
        if best > max_edits:
            problems.append(f"edits: {m.text!r} is over {max_edits} edits from the language")
    return problems


def check_decode(matches: Iterable[MatchResult], tokenizer) -> list[str]:
    """``tokenizer.decode(tokens) == text`` for every match."""
    return [
        f"decode: tokens of {m.text!r} decode to {tokenizer.decode(m.tokens)!r}"
        for m in matches
        if tokenizer.decode(m.tokens) != m.text
    ]


def check_order(matches: Sequence[MatchResult]) -> list[str]:
    """A shortest-path stream arrives in non-increasing ``total_logprob``."""
    return [
        f"order: match {i} ({b.total_logprob}) outranks match {i - 1} ({a.total_logprob})"
        for i, (a, b) in enumerate(zip(matches, matches[1:]), start=1)
        if b.total_logprob > a.total_logprob + LOGPROB_TOL
    ]


def _prefix_split(m: MatchResult, tokenizer) -> int | None:
    """Number of leading tokens that spell ``m.prefix_text`` exactly."""
    if not m.prefix_text:
        return 0
    for k in range(len(m.tokens) + 1):
        text = tokenizer.decode(m.tokens[:k])
        if text == m.prefix_text:
            return k
        if len(text) > len(m.prefix_text):
            return None
    return None


def check_logprobs(
    matches: Sequence[MatchResult],
    model,
    tokenizer,
    *,
    sampled: bool,
    limit: int | None = None,
    seed: int = 0,
) -> list[str]:
    """Recompute each match's score with ``model.sequence_logprob``.

    Shortest-path matches score every token (``total_logprob``); sampled
    matches condition on their sampled prefix and score the rest
    (``logprob``).  With *limit*, a seeded sample of that many matches is
    checked instead of all of them.
    """
    chosen = list(matches)
    if limit is not None and len(chosen) > limit:
        chosen = random.Random(seed).sample(chosen, limit)
    problems = []
    for m in chosen:
        if sampled:
            k = _prefix_split(m, tokenizer)
            if k is None:
                problems.append(f"logprob: prefix {m.prefix_text!r} splits a token of {m.text!r}")
                continue
            expected = model.sequence_logprob(m.tokens[k:], prefix=m.tokens[:k])
            got = m.logprob
        else:
            expected = model.sequence_logprob(m.tokens)
            got = m.total_logprob
        if abs(expected - got) > LOGPROB_TOL:
            problems.append(f"logprob: {m.text!r} scored {got}, recomputed {expected}")
    return problems


def check_same_stream(got: Sequence[MatchResult], expected: Sequence[MatchResult]) -> list[str]:
    """A streamed result equals the in-process reference, match by match."""
    if len(got) != len(expected):
        return [f"stream: {len(got)} matches, reference has {len(expected)}"]
    return [
        f"stream: match {i} {a.text!r} differs from reference {b.text!r}"
        for i, (a, b) in enumerate(zip(got, expected))
        if _identity(a) != _identity(b)
    ]


def _identity(m: MatchResult) -> tuple:
    return (m.tokens, m.text, m.logprob, m.total_logprob)
