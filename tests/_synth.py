"""Deterministic English-like corpus synthesis for benchmark tests.

No sizable public-domain text ships with this environment, so the
benchmark corpus is generated: template sentences over a fixed vocabulary,
Zipf-leaning word choice, one paragraph per line (n-grams never cross
lines, so long lines keep most token contexts intact). Same seed, same
bytes.
"""
from random import Random

DETERMINERS = "the the the a this that every some another each".split()

NOUNS = """
morning evening village river mountain garden window teacher student doctor
engineer farmer painter market street harbor forest meadow valley castle
bridge tower library kitchen cellar journey winter summer autumn spring
weather storm thunder sunshine shadow candle lantern mirror carpet blanket
basket bottle saucer teapot dinner supper breakfast pasture orchard harvest
wagon carriage stable shepherd sailor captain soldier merchant tailor baker
miller hunter fisherman neighbor stranger traveler visitor companion brother
sister mother father daughter cousin family children friend music violin
trumpet drummer singer dancer theater painting picture letter paper pencil
notebook story poem novel chapter page word language question answer lesson
school church clock minute moment hour season history science nature animal
horse cattle sheep goose chicken rabbit squirrel sparrow swallow eagle
falcon salmon trout flower blossom clover willow birch maple cedar timber
stone boulder gravel pebble meadowlark oven pantry doorway gate fence barn
well path road lane trail corner square fountain statue bell rope ladder
bucket hammer needle thread button ribbon basketful loaf cheese butter
honey apple cherry plum walnut barley wheat clovers
""".split()

VERBS = """
walked wandered watched waited listened whispered shouted laughed smiled
rested gathered carried lifted followed crossed climbed entered opened
closed painted played cooked baked planted harvested mended folded washed
cleaned polished counted measured weighed studied learned remembered
noticed discovered explored visited greeted thanked helped warned answered
asked called named described explained promised decided started finished
returned arrived departed traveled hurried lingered stayed repaired
borrowed offered shared divided collected delivered received guarded
""".split()

ADJECTIVES = """
quiet gentle bright golden silver ancient narrow broad crooked steep
distant nearby cheerful weary hungry thirsty patient careful curious clever
honest humble proud famous little small large great heavy warm cold cool
fresh sweet bitter salty smooth rough soft green yellow crimson purple pale
dark deep shallow early late young wooden grassy misty foggy rainy snowy
windy sunny pleasant peaceful busy lively silent empty crowded
""".split()

ADVERBS = """
slowly quickly quietly gently carefully eagerly calmly proudly often always
seldom sometimes finally suddenly gradually together alone patiently
""".split()

PREPOSITIONS = "in on under over near beside behind beyond across through toward around within along".split()

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

_SLOTS = {
    "DET": DETERMINERS,
    "NOUN": NOUNS,
    "VERB": VERBS,
    "ADJ": ADJECTIVES,
    "ADV": ADVERBS,
    "PREP": PREPOSITIONS,
}


def _zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank + 2) for rank in range(n)]


_WEIGHTS = {name: _zipf_weights(len(words)) for name, words in _SLOTS.items()}


def synth_sentence(rng: Random) -> list[str]:
    out = []
    for slot in rng.choice(TEMPLATES).split():
        pool = _SLOTS.get(slot)
        if pool is None:
            out.append(slot)
        else:
            out.append(rng.choices(pool, weights=_WEIGHTS[slot])[0])
    return out


def synth_corpus(min_tokens: int, seed: int) -> str:
    """At least `min_tokens` tokens of text, one paragraph per line."""
    rng = Random(seed)
    lines = []
    total = 0
    while total < min_tokens:
        paragraph: list[str] = []
        for _ in range(rng.randint(6, 9)):
            paragraph.extend(synth_sentence(rng))
        lines.append(" ".join(paragraph))
        total += len(paragraph)
    return "\n".join(lines) + "\n"


def passage_of(corpus_text: str, n_tokens: int, start_line: int) -> str:
    """A contiguous, line-aligned slice of the corpus, cut to n_tokens."""
    tokens: list[str] = []
    for line in corpus_text.splitlines()[start_line:]:
        tokens.extend(line.split())
        if len(tokens) >= n_tokens:
            break
    if len(tokens) < n_tokens:
        raise ValueError(f"corpus too small for a {n_tokens}-token passage "
                         f"starting at line {start_line}")
    return " ".join(tokens[:n_tokens])


def large_vocabulary(seed: int) -> tuple[list[str], list[str]]:
    """A few thousand words over four letters, and corpus lines holding
    each once to three times: the largest postings list is longer than
    the service's cap of 1000 words."""
    rng = Random(seed)
    vocab = sorted({"".join(rng.choice("abcd")
                            for _ in range(rng.randint(3, 9)))
                    for _ in range(5000)})
    tokens = [w for w in vocab for _ in range(rng.randint(1, 3))]
    rng.shuffle(tokens)
    lines = [" ".join(tokens[i:i + 12]) for i in range(0, len(tokens), 12)]
    return vocab, lines
