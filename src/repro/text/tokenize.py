"""Tokenisers and a trainable vocabulary.

The attention-based pairwise matcher needs integer token ids, so a small
:class:`Vocabulary` is provided that is fitted on the training pairs and maps
unseen words to character n-gram sub-tokens (a light-weight stand-in for the
WordPiece vocabulary DistilBERT uses).  The Token Overlap blocking only needs
plain word tokens.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

from repro.text.normalize import normalize_text

# Special tokens mirror the BERT conventions the paper's models rely on.
PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
COL_TOKEN = "[COL]"
VAL_TOKEN = "[VAL]"

SPECIAL_TOKENS: tuple[str, ...] = (
    PAD_TOKEN,
    UNK_TOKEN,
    CLS_TOKEN,
    SEP_TOKEN,
    COL_TOKEN,
    VAL_TOKEN,
)


def whitespace_tokenize(text: str) -> list[str]:
    """Split on whitespace without any normalisation."""
    return text.split()


def word_tokenize(text: str | None) -> list[str]:
    """Normalise and split ``text`` into lower-case word tokens."""
    return normalize_text(text).split()


def char_ngrams(text: str | None, n: int = 3, pad: bool = True) -> list[str]:
    """Return the character n-grams of the normalised text.

    Padding with ``#`` marks word boundaries (as in classic fastText-style
    subword features) so that prefixes and suffixes are distinguishable.
    Texts shorter than ``n`` return the padded text itself as a single gram.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    normalized = normalize_text(text)
    if not normalized:
        return []
    source = f"#{normalized}#" if pad else normalized
    if len(source) <= n:
        return [source]
    return [source[i:i + n] for i in range(len(source) - n + 1)]


class Vocabulary:
    """Word-level vocabulary with sub-word fallback for unknown words.

    The vocabulary is fitted on a corpus of texts; words below the frequency
    cut-off or beyond the size budget are not stored.  At encoding time an
    out-of-vocabulary word is broken into character trigrams, each of which
    may itself be in the vocabulary (trigrams of retained words are added
    during fitting); whatever remains unknown maps to ``[UNK]``.
    """

    def __init__(self, max_size: int = 30_000, min_frequency: int = 1) -> None:
        if max_size <= len(SPECIAL_TOKENS):
            raise ValueError("max_size must exceed the number of special tokens")
        self.max_size = max_size
        self.min_frequency = min_frequency
        self._token_to_id: dict[str, int] = {
            token: idx for idx, token in enumerate(SPECIAL_TOKENS)
        }
        self._id_to_token: list[str] = list(SPECIAL_TOKENS)
        self._fitted = False

    # -- construction -------------------------------------------------------

    def fit(self, texts: Iterable[str]) -> "Vocabulary":
        """Fit the vocabulary on an iterable of raw texts."""
        word_counts: Counter[str] = Counter()
        for text in texts:
            word_counts.update(word_tokenize(text))
        # Each distinct word's trigrams are counted once, weighted by the
        # word's count.  Words iterate in first-occurrence order, so every
        # gram enters the counter in the order a per-occurrence pass would
        # insert it, and ``most_common`` breaks ties the same way.
        gram_counts: Counter[str] = Counter()
        for word, count in word_counts.items():
            for gram in char_ngrams(word, n=3):
                gram_counts[gram] += count

        budget = self.max_size - len(SPECIAL_TOKENS)
        # Words take priority over sub-word grams; a third of the budget is
        # reserved for grams so unknown words can still be represented.
        word_budget = max(1, int(budget * 2 / 3))
        gram_budget = budget - word_budget

        for word, count in word_counts.most_common():
            if count < self.min_frequency or word_budget <= 0:
                break
            self._add_token(word)
            word_budget -= 1

        for gram, count in gram_counts.most_common():
            if gram_budget <= 0:
                break
            if count < self.min_frequency:
                break
            if gram not in self._token_to_id:
                self._add_token(gram)
                gram_budget -= 1

        self._fitted = True
        return self

    def _add_token(self, token: str) -> int:
        if token in self._token_to_id:
            return self._token_to_id[token]
        idx = len(self._id_to_token)
        self._token_to_id[token] = idx
        self._id_to_token.append(token)
        return idx

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK_TOKEN]

    @property
    def cls_id(self) -> int:
        return self._token_to_id[CLS_TOKEN]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[SEP_TOKEN]

    def token_id(self, token: str) -> int:
        """Return the id of ``token`` (``[UNK]`` id when not present)."""
        return self._token_to_id.get(token, self.unk_id)

    def id_to_token(self, idx: int) -> str:
        return self._id_to_token[idx]

    # -- encoding ------------------------------------------------------------

    def encode_word(self, word: str) -> list[int]:
        """Encode a single word, falling back to trigram sub-tokens."""
        if word in self._token_to_id:
            return [self._token_to_id[word]]
        sub_ids = [
            self._token_to_id[gram]
            for gram in char_ngrams(word, n=3)
            if gram in self._token_to_id
        ]
        return sub_ids if sub_ids else [self.unk_id]

    def encode(
        self,
        tokens: Sequence[str],
        max_length: int | None = None,
        add_special_tokens: bool = True,
    ) -> list[int]:
        """Encode a token sequence into ids, truncating to ``max_length``.

        ``[CLS]`` and ``[SEP]`` framing mirrors the sequence-classification
        input the paper's models receive; the budget includes the special
        tokens so a ``max_length=128`` encoding is never longer than 128.
        """
        ids: list[int] = []
        for token in tokens:
            if token in SPECIAL_TOKENS:
                ids.append(self._token_to_id[token])
            else:
                ids.extend(self.encode_word(token))

        if add_special_tokens:
            ids = [self.cls_id] + ids + [self.sep_id]
        if max_length is not None and len(ids) > max_length:
            ids = ids[:max_length]
            if add_special_tokens:
                ids[-1] = self.sep_id
        return ids

    def pad(self, ids: Sequence[int], length: int) -> list[int]:
        """Right-pad ``ids`` with ``[PAD]`` up to ``length`` (or truncate)."""
        padded = list(ids[:length])
        padded.extend([self.pad_id] * (length - len(padded)))
        return padded
