"""Seeded inputs for the benchmark: corpus, held-out transcripts, errors.

The benchmark owns this generator so that its inputs do not move when the
test suite's generator does. Sentences come from English-like templates
whose slots draw from Zipf-weighted word pools; pronounceable pseudo-words
extend the pools so the vocabulary passes 10k words, which pushes the
largest character-bigram postings list past the lookup service's
1000-word cap. Every pseudo-word appears in the corpus at least once.

Transcripts are drawn from the same distribution with their own random
streams, never copied from corpus lines, so some of their contexts are
unattested and selection backs off. Same seed, same bytes.
"""
from __future__ import annotations

from itertools import accumulate
from random import Random

DETERMINERS = "the the the a this that each every some another".split()

NOUNS = """
morning evening village river mountain garden window teacher student doctor
farmer painter market street harbor forest meadow valley castle bridge tower
library kitchen journey winter summer autumn weather storm thunder shadow
candle lantern mirror carpet blanket basket bottle dinner breakfast orchard
harvest wagon stable shepherd sailor captain soldier merchant tailor baker
miller hunter neighbor stranger traveler visitor brother sister mother
father daughter cousin family children friend music violin singer dancer
theater picture letter paper pencil notebook story chapter language
question answer lesson school clock minute moment season history nature
animal horse cattle sheep rabbit sparrow eagle salmon flower willow maple
timber stone gravel pebble pantry doorway fence path road lane trail corner
square fountain statue ladder bucket hammer needle thread button ribbon
cheese butter honey apple cherry walnut barley wheat island engine station
office garage letterbox cottage pillow kettle basin saddle anchor compass
""".split()

VERBS = """
walked wandered watched waited listened whispered shouted laughed smiled
rested gathered carried lifted followed crossed climbed entered opened
closed painted played cooked baked planted mended folded washed cleaned
polished counted measured studied learned remembered noticed discovered
explored visited greeted thanked helped warned answered asked called
described explained promised decided started finished returned arrived
departed traveled hurried lingered stayed repaired borrowed offered shared
collected delivered received guarded fixed sold bought
""".split()

ADJECTIVES = """
quiet gentle bright golden silver ancient narrow broad crooked steep
distant nearby cheerful weary hungry patient careful curious clever honest
humble proud famous little small large great heavy warm cold fresh sweet
bitter smooth rough soft green yellow crimson purple pale dark deep
shallow early late young wooden grassy misty rainy snowy windy sunny
pleasant peaceful busy lively silent empty crowded
""".split()

ADVERBS = """
slowly quickly quietly gently carefully eagerly calmly proudly often
always seldom sometimes finally suddenly gradually together alone
""".split()

PREPOSITIONS = """
in on under over near beside behind beyond across through toward around
within along
""".split()

TEMPLATES = [
    "the ADJ NOUN VERB ADV PREP the NOUN",
    "the NOUN VERB PREP the ADJ NOUN",
    "NOUN and NOUN VERB PREP the NOUN",
    "when the NOUN VERB the NOUN VERB ADV",
    "the ADJ NOUN PREP the NOUN VERB the NOUN",
    "every NOUN VERB because the NOUN VERB ADV",
    "some NOUN VERB the NOUN before the NOUN VERB",
    "the NOUN VERB that the ADJ NOUN VERB",
    "PREP the NOUN the NOUN VERB and VERB ADV",
    "the NOUN of the NOUN VERB the ADJ NOUN",
    "a ADJ NOUN and a ADJ NOUN VERB PREP the NOUN",
    "after the NOUN VERB the NOUN VERB the NOUN",
    "DET NOUN VERB the NOUN PREP the NOUN",
    "the NOUN VERB ADV while the NOUN VERB",
]

# Pseudo-words per open slot. Together with the pools above the vocabulary
# holds about 10.5k words and the largest postings list about 2.5k words.
PSEUDO_COUNTS = {"NOUN": 5200, "VERB": 2400, "ADJ": 2600}
_ONSETS = ("b bl br c ch cl cr d dr f fl fr g gl gr h j k l m n p pl pr "
           "r s sh sk sl sm sn sp st sw t th tr v w wh").split()
_NUCLEI = "a e i o u a e i o ea ai oo ou ie".split()
_CODAS = ["", "", "", "n", "r", "l", "m", "s", "t", "nd", "st", "ck", "rn"]
_ENDINGS = {"NOUN": ["", "", "er", "en", "ow", "ing"],
            "VERB": ["ed", "ed", "ened", "ored"],
            "ADJ": ["y", "ful", "ish", "ous", "en", "ly"]}

CORPUS_SENTENCES = 5200       # Zipf-drawn sentences, besides coverage ones
TRANSCRIPT_TOKENS = 40


def _pseudo_words(rng: Random, slot: str, count: int,
                  taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        syllables = rng.choice((1, 2, 2, 2, 3))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI)
                       + rng.choice(_CODAS) for _ in range(syllables))
        word += rng.choice(_ENDINGS[slot])
        if len(word) >= 4 and word not in taken:
            taken.add(word)
            words.append(word)
    return words


class Generator:
    """All inputs of one seed: vocabulary pools, corpus, transcripts."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = Random(f"perfbench/{seed}/vocabulary")
        taken = set(NOUNS + VERBS + ADJECTIVES + ADVERBS + PREPOSITIONS
                    + DETERMINERS + " ".join(TEMPLATES).lower().split())
        self.pseudo = {slot: _pseudo_words(rng, slot, n, taken)
                       for slot, n in PSEUDO_COUNTS.items()}
        self.pools = {
            "DET": DETERMINERS,
            "NOUN": NOUNS + self.pseudo["NOUN"],
            "VERB": VERBS + self.pseudo["VERB"],
            "ADJ": ADJECTIVES + self.pseudo["ADJ"],
            "ADV": ADVERBS,
            "PREP": PREPOSITIONS,
        }
        # Zipf weights 1/(rank + 2): the hand-written words take the head
        # of each pool, pseudo-words the tail.
        self._cum = {slot: list(accumulate(1.0 / (r + 2)
                                           for r in range(len(pool))))
                     for slot, pool in self.pools.items()}

    def sentence(self, rng: Random, forced: dict[str, list[str]] | None = None
                 ) -> list[str]:
        """One template sentence; `forced` words fill open slots first."""
        out = []
        for slot in rng.choice(TEMPLATES).split():
            pool = self.pools.get(slot)
            if pool is None:
                out.append(slot)
            elif forced and forced.get(slot):
                out.append(forced[slot].pop())
            else:
                out.append(rng.choices(pool, cum_weights=self._cum[slot])[0])
        return out

    def corpus(self) -> str:
        """The index corpus: one paragraph of 6-9 sentences per line."""
        rng = Random(f"perfbench/{self.seed}/corpus")
        sentences = [self.sentence(rng) for _ in range(CORPUS_SENTENCES)]
        forced = {slot: list(words) for slot, words in self.pseudo.items()}
        while any(forced.values()):
            sentences.append(self.sentence(rng, forced))
        rng.shuffle(sentences)
        lines = []
        start = 0
        while start < len(sentences):
            n = rng.randint(6, 9)
            lines.append(" ".join(w for s in sentences[start:start + n]
                                  for w in s))
            start += n
        return "\n".join(lines) + "\n"

    def transcript(self, i: int) -> str:
        """Held-out utterance `i`: TRANSCRIPT_TOKENS tokens of fresh
        sentences, cut mid-sentence as an ASR segment would be."""
        rng = Random(f"perfbench/{self.seed}/transcript/{i}")
        tokens: list[str] = []
        while len(tokens) < TRANSCRIPT_TOKENS:
            tokens.extend(self.sentence(rng))
        return " ".join(tokens[:TRANSCRIPT_TOKENS])

    def injection_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i
