"""Text analysis chains: char filters -> tokenizer -> token filters.

Mirrors ElasticSearch's analyzer architecture (paper section III-D):
an analyzer is configured from three sub-components.  The paper's
CREATe-IR configuration is exported as
:data:`CREATE_IR_ANALYZER_CONFIG`.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.exceptions import AnalyzerError
from repro.text.ngrams import character_ngrams
from repro.text.stem import PorterStemmer
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import WordTokenizer


@dataclass(frozen=True, slots=True)
class AnalyzedToken:
    """A term emitted by an analysis chain.

    Attributes:
        term: the normalized term string.
        position: token position (for phrase queries); n-grams from the
            same source token share a position.
        start / end: character offsets into the original text.
    """

    term: str
    position: int
    start: int
    end: int


# -- char filters -------------------------------------------------------------

CharFilter = Callable[[str], str]

_HTML_TAG_RE = re.compile(r"<[^>]+>")


def html_strip(text: str) -> str:
    """Drop HTML/XML tags, replacing them with spaces (offset-neutralish)."""
    return _HTML_TAG_RE.sub(lambda m: " " * len(m.group()), text)


def make_mapping_filter(mapping: dict[str, str]) -> CharFilter:
    """Character replacement filter (like ES ``mapping`` char filter)."""

    def apply(text: str) -> str:
        for old, new in mapping.items():
            text = text.replace(old, new)
        return text

    return apply


# -- tokenizers ---------------------------------------------------------------


class StandardTokenizer:
    """Word-level tokenizer built on :class:`repro.text.WordTokenizer`,
    dropping bare punctuation tokens (as ES ``standard`` does)."""

    def __init__(self):
        self._inner = WordTokenizer()

    def tokenize(self, text: str) -> list[AnalyzedToken]:
        out = []
        position = 0
        for token in self._inner.itertokenize(text):
            if not any(ch.isalnum() for ch in token.text):
                continue
            out.append(
                AnalyzedToken(token.text, position, token.start, token.end)
            )
            position += 1
        return out


class WhitespaceTokenizer:
    """Split on whitespace only."""

    def tokenize(self, text: str) -> list[AnalyzedToken]:
        out = []
        for position, match in enumerate(re.finditer(r"\S+", text)):
            out.append(
                AnalyzedToken(
                    match.group(), position, match.start(), match.end()
                )
            )
        return out


class KeywordTokenizer:
    """Emit the whole input as one token (exact-value fields)."""

    def tokenize(self, text: str) -> list[AnalyzedToken]:
        if not text:
            return []
        return [AnalyzedToken(text, 0, 0, len(text))]


class NGramTokenizer:
    """Character n-gram tokenizer, the paper's choice for symptom and
    medication names with long forms (``min_gram=3, max_gram=25``).

    Like ES, the stream is split on non-alphanumeric characters first
    (``token_chars: [letter, digit]``) and grams never cross splits.
    Grams inherit the position of their source word so phrase queries
    stay meaningful.
    """

    def __init__(self, min_gram: int = 3, max_gram: int = 25):
        if min_gram < 1 or max_gram < min_gram:
            raise AnalyzerError(
                f"bad ngram bounds: [{min_gram}, {max_gram}]"
            )
        self.min_gram = min_gram
        self.max_gram = max_gram

    def tokenize(self, text: str) -> list[AnalyzedToken]:
        out = []
        for position, match in enumerate(re.finditer(r"[A-Za-z0-9]+", text)):
            word = match.group()
            base = match.start()
            if len(word) < self.min_gram:
                # ES emits nothing for too-short words; we keep the word
                # itself so 1-2 letter clinical codes remain searchable.
                out.append(
                    AnalyzedToken(word, position, base, base + len(word))
                )
                continue
            for gram, start, end in character_ngrams(
                word, self.min_gram, self.max_gram
            ):
                out.append(
                    AnalyzedToken(gram, position, base + start, base + end)
                )
        return out


# -- token filters -------------------------------------------------------------

TokenFilter = Callable[[list[AnalyzedToken]], list[AnalyzedToken]]


def lowercase_filter(tokens: list[AnalyzedToken]) -> list[AnalyzedToken]:
    """Lower-case every term."""
    return [
        AnalyzedToken(t.term.lower(), t.position, t.start, t.end)
        for t in tokens
    ]


def asciifolding_filter(tokens: list[AnalyzedToken]) -> list[AnalyzedToken]:
    """Fold accented characters to ASCII (NFKD + strip combining marks)."""
    out = []
    for t in tokens:
        folded = unicodedata.normalize("NFKD", t.term)
        folded = "".join(ch for ch in folded if not unicodedata.combining(ch))
        out.append(AnalyzedToken(folded, t.position, t.start, t.end))
    return out


def stop_filter(tokens: list[AnalyzedToken]) -> list[AnalyzedToken]:
    """Drop stopwords (positions are preserved, leaving gaps, as in ES)."""
    return [t for t in tokens if t.term not in STOPWORDS]


_STEMMER = PorterStemmer()


def stemmer_filter(tokens: list[AnalyzedToken]) -> list[AnalyzedToken]:
    """Porter-stem every term (the ``snowball``/``stemmer`` filters)."""
    return [
        AnalyzedToken(_STEMMER.stem(t.term), t.position, t.start, t.end)
        for t in tokens
    ]


def unique_filter(tokens: list[AnalyzedToken]) -> list[AnalyzedToken]:
    """Drop duplicate terms at the same position."""
    seen: set[tuple[str, int]] = set()
    out = []
    for t in tokens:
        key = (t.term, t.position)
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


_TOKEN_FILTERS: dict[str, TokenFilter] = {
    "lowercase": lowercase_filter,
    "asciifolding": asciifolding_filter,
    "stop": stop_filter,
    "snowball": stemmer_filter,
    "stemmer": stemmer_filter,
    "unique": unique_filter,
}

_CHAR_FILTERS: dict[str, CharFilter] = {
    "html_strip": html_strip,
}


class Analyzer:
    """A complete analysis chain."""

    def __init__(
        self,
        tokenizer,
        token_filters: Sequence[TokenFilter] = (),
        char_filters: Sequence[CharFilter] = (),
    ):
        self.tokenizer = tokenizer
        self.token_filters = list(token_filters)
        self.char_filters = list(char_filters)

    def analyze(self, text: str) -> list[AnalyzedToken]:
        """Run the chain over ``text``."""
        for char_filter in self.char_filters:
            text = char_filter(text)
        tokens = self.tokenizer.tokenize(text)
        for token_filter in self.token_filters:
            tokens = token_filter(tokens)
        return tokens

    def terms(self, text: str) -> list[str]:
        """Just the term strings."""
        return [t.term for t in self.analyze(text)]


# The paper's CREATe-IR document analyzer (section III-D).
CREATE_IR_ANALYZER_CONFIG: dict = {
    "tokenizer": {"type": "ngram", "min_gram": 3, "max_gram": 25},
    "filter": ["asciifolding", "lowercase", "snowball", "stop", "stemmer"],
    "char_filter": [],
}

# A standard analyzer for titles/metadata and for query-side matching.
STANDARD_ANALYZER_CONFIG: dict = {
    "tokenizer": {"type": "standard"},
    "filter": ["asciifolding", "lowercase", "stop", "stemmer"],
    "char_filter": [],
}

# The CREATe-IR keyword index's fields: n-gram body, standard title.
# Every engine backing the dual index is built with this mapping.
CREATE_IR_FIELD_ANALYZERS: dict = {
    "body": CREATE_IR_ANALYZER_CONFIG,
    "title": STANDARD_ANALYZER_CONFIG,
}


def create_analyzer(config: dict) -> Analyzer:
    """Build an :class:`Analyzer` from an ES-style settings dict.

    Raises:
        AnalyzerError: unknown tokenizer/filter names.
    """
    tok_config = config.get("tokenizer", {"type": "standard"})
    if isinstance(tok_config, str):
        tok_config = {"type": tok_config}
    tok_type = tok_config.get("type", "standard")
    if tok_type == "standard":
        tokenizer = StandardTokenizer()
    elif tok_type == "whitespace":
        tokenizer = WhitespaceTokenizer()
    elif tok_type == "keyword":
        tokenizer = KeywordTokenizer()
    elif tok_type == "ngram":
        tokenizer = NGramTokenizer(
            min_gram=tok_config.get("min_gram", 3),
            max_gram=tok_config.get("max_gram", 25),
        )
    else:
        raise AnalyzerError(f"unknown tokenizer type: {tok_type!r}")

    token_filters = []
    for name in config.get("filter", []):
        fn = _TOKEN_FILTERS.get(name)
        if fn is None:
            raise AnalyzerError(f"unknown token filter: {name!r}")
        token_filters.append(fn)

    char_filters = []
    for name in config.get("char_filter", []):
        fn = _CHAR_FILTERS.get(name)
        if fn is None:
            raise AnalyzerError(f"unknown char filter: {name!r}")
        char_filters.append(fn)

    return Analyzer(tokenizer, token_filters, char_filters)
