"""End-to-end oracle: a brute-force reading of the paper's method,
checked against ``correct_transcript`` over a local index and over HTTP.

The oracle shares no code with the pipeline. It counts n-grams up to the
index order with a Counter over the corpus lines, ranks each error's top 8
candidates by scanning the whole vocabulary, and selects by direct lookups
after a context one token shorter than the index order, backing off one
order at a time while every count is zero. Over HTTP any framing slip
shows as a decision that differs from the oracle's.
"""
import threading
from collections import Counter
from random import Random

import pytest

from asrspell import (CorruptionSpec, RemoteBackend, build_index,
                      correct_transcript, inject_errors, serve)
from tests._synth import large_vocabulary, passage_of, synth_corpus

K = 8


class Oracle:
    """Non-word correction by brute force over the n-grams of `lines` up
    to `max_order`, whose tokens are already normalized (lower-case words,
    single spaces)."""

    def __init__(self, lines, max_order):
        self.window = max_order - 1
        self.counts = Counter()
        for line in lines:
            tokens = line.split()
            for n in range(1, max_order + 1):
                for i in range(len(tokens) - n + 1):
                    self.counts[tuple(tokens[i:i + n])] += 1
        self.bigrams = {gram[0]: self._bigrams(gram[0])
                        for gram in self.counts if len(gram) == 1}

    @staticmethod
    def _bigrams(word):
        return {word[i:i + 2] for i in range(len(word) - 1)}

    def candidates(self, error, k):
        """(word, shared, count) of the top k vocabulary words by shared
        bigrams, then count, then word; the error is never one."""
        own = self._bigrams(error)
        scored = sorted(
            (-len(own & grams), -self.counts[(word,)], word)
            for word, grams in self.bigrams.items()
            if word != error and own & grams)
        return [(word, -shared, -count) for shared, count, word in scored[:k]]

    def select(self, prefix, words):
        """The chosen word, its scores and the order used: the word of the
        highest count after the longest context with a nonzero count."""
        for order in range(len(prefix) + 1, 0, -1):
            context = tuple(prefix[len(prefix) - order + 1:])
            counts = [self.counts[(*context, word)] for word in words]
            if max(counts) > 0:
                break
        scores = {word: (order, count) for word, count in zip(words, counts)}
        best = max(counts)
        return (words[counts.index(best)] if best else None), scores, order

    def correct(self, text):
        """The corrected text and, per out-of-vocabulary token, its
        position, token, candidates, choice, scores and order."""
        tokens = text.split()
        out, decisions = list(tokens), []
        for i, token in enumerate(tokens):
            if (token,) in self.counts:
                continue
            ranked = self.candidates(token, K)
            if ranked:
                chosen, scores, order = self.select(
                    tokens[max(0, i - self.window):i],
                    [word for word, _, _ in ranked])
            else:
                chosen, scores, order = None, {}, 1
            decisions.append((i, token, ranked, chosen, scores, order))
            if chosen is not None:
                out[i] = chosen
        return " ".join(out), decisions


def pipeline_decisions(result):
    return [(d.error.position, d.error.token,
             [(c.word, c.shared, c.unigram_count) for c in d.candidates],
             d.chosen, d.scores, d.backoff_order)
            for d in result.decisions]


def synth_set(max_order=5):
    """The synthetic benchmark corpus counted up to `max_order`, and
    transcripts with injected non-word errors: corpus passages, whose
    contexts are attested, and fresh text, whose contexts often are
    not."""
    corpus = synth_corpus(min_tokens=30000, seed=20260810)
    lines = corpus.splitlines()
    index = build_index(lines, max_order=max_order, corpus_id="oracle-synth")
    fresh = synth_corpus(min_tokens=4000, seed=7).split()
    texts = [passage_of(corpus, 400, start_line=5 * seed)
             for seed in range(1, 4)]
    texts += [" ".join(fresh[i:i + 40]) for i in range(0, 4000, 40)]
    transcripts = [
        inject_errors(text, index,
                      CorruptionSpec(nonword_rate=0.08, seed=n)).corrupted_text
        for n, text in enumerate(texts)]
    return lines, index, transcripts


def large_set():
    """Corpus lines over a few thousand four-letter-alphabet words, where
    the largest postings list passes the service's 1000-word cap, and
    corpus lines with two or three tokens edited out of the vocabulary."""
    vocab, lines = large_vocabulary(seed=11)
    index = build_index(lines, corpus_id="oracle-large")
    rng = Random(17)
    transcripts = []
    for line in rng.sample(lines, 40):
        tokens = line.split()
        for pos in rng.sample(range(len(tokens)), rng.randint(2, 3)):
            edited = tokens[pos][:-1] + rng.choice("abcde")
            while edited in index.vocab:
                edited += rng.choice("abcd")
            tokens[pos] = edited
        transcripts.append(" ".join(tokens))
    return lines, index, transcripts


@pytest.fixture(scope="module", params=["synth", "large", "synth-trigram"])
def case(request):
    lines, index, transcripts = {
        "synth": synth_set, "large": large_set,
        "synth-trigram": lambda: synth_set(max_order=3)}[request.param]()
    for text in transcripts:
        assert text.split() == [t.lower() for t in text.split()]
        assert " ".join(text.split()) == text
    return Oracle(lines, index.max_order), index, transcripts


@pytest.fixture(scope="module")
def served(case):
    _, index, _ = case
    server = serve(index, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    remote = RemoteBackend(f"http://127.0.0.1:{server.server_address[1]}")
    yield remote
    remote.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.mark.parametrize("over", ["local", "http"])
def test_pipeline_equals_the_oracle(case, served, over):
    oracle, index, transcripts = case
    backend = index if over == "local" else served
    errors = changed = backed_off = 0
    for text in transcripts:
        expected_text, expected = oracle.correct(text)
        result = correct_transcript(text, backend)
        assert pipeline_decisions(result) == expected, text
        assert result.corrected_text == expected_text
        errors += len(expected)
        changed += sum(d[3] is not None for d in expected)
        # The full order is the context window, or the position, plus 1.
        backed_off += sum(order < min(position, oracle.window) + 1
                          for position, _, ranked, _, _, order in expected
                          if ranked)
    # The sets exercise what they are for: many errors, most of them
    # corrected, some below the full order.
    assert errors >= 100
    assert changed >= errors // 2 and backed_off > 0
