import pytest

from asrspell import build_index

# The running example used throughout the suite: an ASR transcript where
# "shows" came out as the non-word "shaws", and a corpus that makes the
# 5-gram context decide the correction.
WORKED_SENTENCE = "watch episodes of your favorite shows and more"
WORKED_ERROR_TEXT = "watch episodes of your favorite shaws and more"
EXTRA_VOCAB = "shawls shays shank sham haws hawk saws sawn maws hews"


@pytest.fixture(scope="session")
def worked_corpus_lines():
    return [WORKED_SENTENCE] * 7 + [EXTRA_VOCAB]


@pytest.fixture(scope="session")
def worked_index(worked_corpus_lines):
    return build_index(worked_corpus_lines, corpus_id="worked-example")


@pytest.fixture(scope="session")
def tiny_index():
    return build_index("the cat sat\nthe cat ran", corpus_id="tiny")

