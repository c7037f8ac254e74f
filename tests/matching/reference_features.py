"""The per-pair feature oracle: every feature re-derived from two records.

This is the historical pairwise-recompute extractor, kept verbatim as the
test oracle for the one feature implementation in ``src/`` — the columnar
:meth:`~repro.matching.features.PairFeatureExtractor.extract_batch_profiles`
over a :class:`~repro.matching.profiles.ProfileStore`, which
:meth:`~repro.matching.features.PairFeatureExtractor.extract_batch` (training
and record-pair inference) goes through too.  The hypothesis suites in
``test_profiles.py`` pin both entry points bitwise to
:func:`reference_extract`, and ``test_features_logistic.py`` pins a
logistic fit on :func:`reference_features` to the production fit.
"""

from collections.abc import Sequence

import numpy as np

from repro.datagen.identifiers import SECURITY_ID_FIELDS
from repro.datagen.records import CompanyRecord, Record, SecurityRecord
from repro.matching.features import PairFeatureExtractor
from repro.text.normalize import normalize_identifier, normalize_text, strip_corporate_terms
from repro.text.similarity import (
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    longest_common_substring_similarity,
    overlap_coefficient,
)
from repro.text.tokenize import word_tokenize


def _name(record: Record) -> str:
    for attribute in ("name", "title"):
        value = getattr(record, attribute, None)
        if value:
            return str(value)
    return ""


def _attribute(record: Record, attribute: str) -> str:
    value = getattr(record, attribute, None)
    return str(value) if value else ""


def _equality_feature(left: Record, right: Record, attribute: str) -> float:
    left_value = normalize_text(_attribute(left, attribute))
    right_value = normalize_text(_attribute(right, attribute))
    if not left_value or not right_value:
        return 0.5
    return 1.0 if left_value == right_value else 0.0


def _identifier_features(left: Record, right: Record) -> tuple[int, int, float]:
    overlaps = 0
    conflicts = 0
    isin_overlap = 0.0
    if isinstance(left, SecurityRecord) and isinstance(right, SecurityRecord):
        for field in SECURITY_ID_FIELDS:
            left_value = normalize_identifier(getattr(left, field))
            right_value = normalize_identifier(getattr(right, field))
            if not left_value or not right_value:
                continue
            if left_value == right_value:
                overlaps += 1
            else:
                conflicts += 1
        isin_overlap = 1.0 if overlaps else 0.0
    if isinstance(left, CompanyRecord) and isinstance(right, CompanyRecord):
        left_isins = {normalize_identifier(value) for value in left.security_isins}
        right_isins = {normalize_identifier(value) for value in right.security_isins}
        left_isins.discard("")
        right_isins.discard("")
        shared = left_isins & right_isins
        overlaps = len(shared)
        if left_isins and right_isins and not shared:
            conflicts = 1
        isin_overlap = 1.0 if shared else 0.0
    return overlaps, conflicts, isin_overlap


def reference_extract(left: Record, right: Record) -> np.ndarray:
    """The pre-profile extractor, re-deriving everything per pair."""
    left_name_norm = normalize_text(_name(left))
    right_name_norm = normalize_text(_name(right))
    left_tokens = left_name_norm.split()
    right_tokens = right_name_norm.split()
    left_stripped = strip_corporate_terms(_name(left))
    right_stripped = strip_corporate_terms(_name(right))
    left_description = _attribute(left, "description")
    right_description = _attribute(right, "description")
    description_tokens_left = word_tokenize(left_description)
    description_tokens_right = word_tokenize(right_description)
    identifier_overlaps, identifier_conflicts, isin_overlap = _identifier_features(
        left, right
    )
    values = (
        jaro_winkler_similarity(left_name_norm, right_name_norm),
        levenshtein_similarity(left_name_norm, right_name_norm),
        jaccard_similarity(left_tokens, right_tokens),
        overlap_coefficient(left_tokens, right_tokens),
        longest_common_substring_similarity(left_name_norm, right_name_norm),
        jaro_winkler_similarity(left_stripped, right_stripped),
        jaccard_similarity(left_stripped.split(), right_stripped.split()),
        jaccard_similarity(description_tokens_left, description_tokens_right)
        if description_tokens_left and description_tokens_right
        else 0.0,
        1.0 if left_description and right_description else 0.0,
        _equality_feature(left, right, "city"),
        _equality_feature(left, right, "region"),
        _equality_feature(left, right, "country_code"),
        _equality_feature(left, right, "industry"),
        _equality_feature(left, right, "security_type"),
        float(identifier_overlaps),
        float(identifier_conflicts),
        isin_overlap,
        _equality_feature(left, right, "ticker"),
        1.0 if left.source == right.source else 0.0,
    )
    return np.asarray(values, dtype=np.float64)


def reference_features(pairs: Sequence[tuple[Record, Record]]) -> np.ndarray:
    """Feature matrix of :func:`reference_extract` rows, one per pair."""
    width = len(PairFeatureExtractor.FEATURE_NAMES)
    matrix = np.empty((len(pairs), width), dtype=np.float64)
    for row, (left, right) in enumerate(pairs):
        matrix[row] = reference_extract(left, right)
    return matrix
