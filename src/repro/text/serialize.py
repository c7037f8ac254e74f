"""Record and record-pair serialisation schemes.

The paper compares two serialisation schemes for feeding record pairs to a
sequence classifier:

* the plain scheme used by the DistilBERT baselines — attribute values
  concatenated in a fixed attribute order, records separated by ``[SEP]``;
* the DITTO scheme — every attribute is wrapped as ``[COL] name [VAL] value``,
  which "increases the amount of tokens required to encode the same value
  information, but adds more structure" (Section 5.2).

Both serialisers enforce a maximum token budget (the 128 / 256 variants of
Table 3), which is exactly the axis on which DITTO (128) degrades in the
paper: the structural tokens crowd out the informative ones.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

from repro.text.normalize import normalize_text
from repro.text.tokenize import COL_TOKEN, SEP_TOKEN, VAL_TOKEN

PLAIN_SCHEME = "plain"
DITTO_SCHEME = "ditto"

Record = Mapping[str, object]


class PairSerializer(ABC):
    """Serialise a single record or a record pair into a token sequence."""

    def __init__(
        self,
        attributes: Sequence[str],
        max_tokens: int = 128,
    ) -> None:
        if not attributes:
            raise ValueError("at least one attribute is required")
        if max_tokens < 8:
            raise ValueError("max_tokens must be at least 8")
        self.attributes = list(attributes)
        self.max_tokens = max_tokens

    @abstractmethod
    def serialize_record(self, record: Record) -> list[str]:
        """Serialise one record into word tokens (without special framing)."""

    def serialize_side(self, record: Record) -> list[str]:
        """Serialise one side of a pair: the record truncated to its budget.

        The budget is split evenly between the two records (minus the three
        framing tokens added later by the vocabulary encoder: ``[CLS]``,
        the middle ``[SEP]`` and the final ``[SEP]``), mirroring how the
        paper truncates each record to half the sequence length.
        """
        per_record_budget = max(1, (self.max_tokens - 3) // 2)
        return self.serialize_record(record)[:per_record_budget]

    def serialize_pair(self, left: Record, right: Record) -> list[str]:
        """Serialise a record pair as ``left [SEP] right``, within budget."""
        return self.serialize_side(left) + [SEP_TOKEN] + self.serialize_side(right)

    def serialize_pair_text(self, left: Record, right: Record) -> str:
        """Convenience: the pair serialisation joined into a single string."""
        return " ".join(self.serialize_pair(left, right))

    def _attribute_value(self, record: Record, attribute: str) -> str:
        value = record.get(attribute)
        if value is None:
            return ""
        if isinstance(value, (list, tuple, set, frozenset)):
            return " ".join(str(item) for item in sorted(value, key=str))
        return str(value)


class PlainSerializer(PairSerializer):
    """Concatenate normalised attribute values in attribute order."""

    scheme = PLAIN_SCHEME

    def serialize_record(self, record: Record) -> list[str]:
        tokens: list[str] = []
        for attribute in self.attributes:
            value = self._attribute_value(record, attribute)
            tokens.extend(normalize_text(value).split())
        return tokens


class DittoSerializer(PairSerializer):
    """DITTO-style ``[COL] name [VAL] value`` serialisation.

    Attribute names are included even when the value is missing, as in the
    original DITTO implementation; this is what makes the encoding longer and
    is responsible for DITTO (128)'s truncation problems on identifier-heavy
    securities records.
    """

    scheme = DITTO_SCHEME

    def serialize_record(self, record: Record) -> list[str]:
        tokens: list[str] = []
        for attribute in self.attributes:
            value = self._attribute_value(record, attribute)
            tokens.append(COL_TOKEN)
            tokens.extend(normalize_text(attribute).split() or [attribute.lower()])
            tokens.append(VAL_TOKEN)
            tokens.extend(normalize_text(value).split())
        return tokens


def make_serializer(
    scheme: str,
    attributes: Sequence[str],
    max_tokens: int = 128,
) -> PairSerializer:
    """Factory for serialisers by scheme name ("plain" or "ditto")."""
    if scheme == PLAIN_SCHEME:
        return PlainSerializer(attributes, max_tokens=max_tokens)
    if scheme == DITTO_SCHEME:
        return DittoSerializer(attributes, max_tokens=max_tokens)
    raise ValueError(f"unknown serialisation scheme: {scheme!r}")
