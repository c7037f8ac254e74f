"""Tests for tokenisation and the trainable vocabulary."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import Vocabulary, char_ngrams, whitespace_tokenize, word_tokenize
from repro.text.tokenize import CLS_TOKEN, PAD_TOKEN, SEP_TOKEN, SPECIAL_TOKENS


class TestWordTokenize:
    def test_basic(self):
        assert word_tokenize("Crowdstrike Holdings, Inc.") == [
            "crowdstrike",
            "holdings",
            "inc",
        ]

    def test_none(self):
        assert word_tokenize(None) == []

    def test_whitespace_tokenize_no_normalisation(self):
        assert whitespace_tokenize("A  B") == ["A", "B"]


class TestCharNgrams:
    def test_trigram_count(self):
        grams = char_ngrams("abcd", n=3)
        # "#abcd#" has length 6 -> 4 trigrams
        assert grams == ["#ab", "abc", "bcd", "cd#"]

    def test_short_text_single_gram(self):
        assert char_ngrams("ab", n=5) == ["#ab#"]

    def test_empty(self):
        assert char_ngrams("", n=3) == []
        assert char_ngrams(None, n=3) == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            char_ngrams("abc", n=0)

    def test_no_padding(self):
        assert char_ngrams("abcd", n=3, pad=False) == ["abc", "bcd"]


class TestVocabulary:
    def test_special_tokens_present(self):
        vocab = Vocabulary().fit(["hello world"])
        for token in SPECIAL_TOKENS:
            assert token in vocab

    def test_fit_learns_words(self):
        vocab = Vocabulary().fit(["crowdstrike holdings", "crowdstrike platforms"])
        assert "crowdstrike" in vocab
        assert vocab.token_id("crowdstrike") != vocab.unk_id

    def test_unknown_word_falls_back_to_subwords_or_unk(self):
        vocab = Vocabulary().fit(["alpha beta gamma"])
        ids = vocab.encode_word("zzzzqqqq")
        assert ids  # never empty
        assert all(isinstance(i, int) for i in ids)

    def test_encode_adds_cls_and_sep(self):
        vocab = Vocabulary().fit(["a b c"])
        ids = vocab.encode(["a", "b"])
        assert ids[0] == vocab.cls_id
        assert ids[-1] == vocab.sep_id

    def test_encode_respects_max_length(self):
        vocab = Vocabulary().fit(["one two three four five six"])
        ids = vocab.encode(["one"] * 100, max_length=16)
        assert len(ids) == 16
        assert ids[-1] == vocab.sep_id

    def test_encode_handles_special_tokens_inline(self):
        vocab = Vocabulary().fit(["a b"])
        ids = vocab.encode(["a", SEP_TOKEN, "b"], add_special_tokens=False)
        assert vocab.sep_id in ids

    def test_pad_extends_and_truncates(self):
        vocab = Vocabulary().fit(["x"])
        assert vocab.pad([5, 6], 4) == [5, 6, vocab.pad_id, vocab.pad_id]
        assert vocab.pad([1, 2, 3, 4, 5], 3) == [1, 2, 3]

    def test_max_size_limit(self):
        texts = [f"word{i}" for i in range(100)]
        vocab = Vocabulary(max_size=20).fit(texts)
        assert len(vocab) <= 20

    def test_max_size_too_small_raises(self):
        with pytest.raises(ValueError):
            Vocabulary(max_size=3)

    def test_ids_round_trip(self):
        vocab = Vocabulary().fit(["alpha beta"])
        idx = vocab.token_id("alpha")
        assert vocab.id_to_token(idx) == "alpha"

    def test_pad_and_cls_are_distinct(self):
        vocab = Vocabulary().fit(["a"])
        assert vocab.pad_id != vocab.cls_id
        assert vocab.token_id(PAD_TOKEN) == vocab.pad_id
        assert vocab.token_id(CLS_TOKEN) == vocab.cls_id


def reference_fit_tokens(texts, max_size, min_frequency):
    """The per-occurrence vocabulary fit: every word occurrence adds its grams.

    Test oracle for :meth:`Vocabulary.fit`, which counts each distinct
    word's trigrams once, weighted by the word's count.
    """
    word_counts = Counter()
    gram_counts = Counter()
    for text in texts:
        words = word_tokenize(text)
        word_counts.update(words)
        for word in words:
            gram_counts.update(char_ngrams(word, n=3))
    tokens = list(SPECIAL_TOKENS)
    budget = max_size - len(SPECIAL_TOKENS)
    word_budget = max(1, int(budget * 2 / 3))
    gram_budget = budget - word_budget
    for word, count in word_counts.most_common():
        if count < min_frequency or word_budget <= 0:
            break
        tokens.append(word)
        word_budget -= 1
    for gram, count in gram_counts.most_common():
        if gram_budget <= 0 or count < min_frequency:
            break
        if gram not in tokens:
            tokens.append(gram)
            gram_budget -= 1
    return tokens


class TestVocabularyFitOracle:
    # A small alphabet forces shared grams, repeated grams inside one word
    # ("aaaa") and count ties, so the tie order of most_common is exercised.
    texts = st.lists(st.text(alphabet="aabc é-.", max_size=24), max_size=12)

    @given(texts, st.integers(min_value=7, max_value=40), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_token_list_equals_the_per_occurrence_fit(
        self, texts, max_size, min_frequency
    ):
        vocabulary = Vocabulary(max_size=max_size, min_frequency=min_frequency).fit(texts)
        expected = reference_fit_tokens(texts, max_size, min_frequency)
        assert [vocabulary.id_to_token(i) for i in range(len(vocabulary))] == expected
