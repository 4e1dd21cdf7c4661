"""Text analysis chains: char filters -> tokenizer -> token filters.

Mirrors ElasticSearch's analyzer architecture (paper section III-D):
an analyzer is configured from three sub-components.  The paper's
CREATe-IR configuration is exported as
:data:`CREATE_IR_ANALYZER_CONFIG`.
"""

from __future__ import annotations

import re
import threading
import unicodedata
from typing import Callable, Iterator, NamedTuple, Sequence

from repro.exceptions import AnalyzerError
from repro.text.ngrams import character_ngrams
from repro.text.stem import PorterStemmer
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import WordTokenizer


class AnalyzedToken(NamedTuple):
    """A term emitted by an analysis chain (an immutable record; a
    named tuple because indexing builds ~1,500 of them per report).

    Attributes:
        term: the normalized term string.
        position: token position; n-grams from the same source token
            share a position.
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

# A tokenizer that splits its input into independent source words also
# exposes ``words(text)``, yielding ``(word, start)`` in order: the n-th
# word's tokens all take position n, and ``tokenize(word)`` on the word
# alone gives the same tokens with offsets relative to ``start``.  That
# is what lets :class:`Analyzer` cache the chain's output per word.


def _matches(pattern: re.Pattern, text: str) -> Iterator[tuple[str, int]]:
    for match in pattern.finditer(text):
        yield match.group(), match.start()


def _one_token_per_word(
    words: Iterator[tuple[str, int]],
) -> list[AnalyzedToken]:
    return [
        AnalyzedToken(word, position, start, start + len(word))
        for position, (word, start) in enumerate(words)
    ]


class StandardTokenizer:
    """Word-level tokenizer built on :class:`repro.text.WordTokenizer`,
    dropping bare punctuation tokens (as ES ``standard`` does)."""

    def __init__(self):
        self._inner = WordTokenizer()

    def words(self, text: str) -> Iterator[tuple[str, int]]:
        for token in self._inner.itertokenize(text):
            if any(ch.isalnum() for ch in token.text):
                yield token.text, token.start

    def tokenize(self, text: str) -> list[AnalyzedToken]:
        return _one_token_per_word(self.words(text))


_NON_SPACE_RE = re.compile(r"\S+")


class WhitespaceTokenizer:
    """Split on whitespace only."""

    def words(self, text: str) -> Iterator[tuple[str, int]]:
        return _matches(_NON_SPACE_RE, text)

    def tokenize(self, text: str) -> list[AnalyzedToken]:
        return _one_token_per_word(self.words(text))


class KeywordTokenizer:
    """Emit the whole input as one token (exact-value fields)."""

    def tokenize(self, text: str) -> list[AnalyzedToken]:
        if not text:
            return []
        return [AnalyzedToken(text, 0, 0, len(text))]


_LETTERS_DIGITS_RE = re.compile(r"[^\W_]+")


class NGramTokenizer:
    """Character n-gram tokenizer, the paper's choice for symptom and
    medication names with long forms (``min_gram=3, max_gram=25``).

    Like ES, the stream is split on non-alphanumeric characters first
    (``token_chars: [letter, digit]``, Unicode letters and digits, so
    ``Sjögren`` is one word for ``asciifolding`` to fold) and grams
    never cross splits.  Grams inherit the position of their source
    word.
    """

    def __init__(self, min_gram: int = 3, max_gram: int = 25):
        if min_gram < 1 or max_gram < min_gram:
            raise AnalyzerError(
                f"bad ngram bounds: [{min_gram}, {max_gram}]"
            )
        self.min_gram = min_gram
        self.max_gram = max_gram

    def words(self, text: str) -> Iterator[tuple[str, int]]:
        return _matches(_LETTERS_DIGITS_RE, text)

    def tokenize(self, text: str) -> list[AnalyzedToken]:
        out = []
        for position, (word, base) in enumerate(self.words(text)):
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
        if t.term.isascii():
            out.append(t)
            continue
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


# Filters that map or drop each token by its own term alone.  After a
# tokenizer with ``words`` a chain of these gives every occurrence of a
# word the same terms and word-relative offsets, so the result is cached
# per word.  ``unique`` looks at the other tokens of its position, and a
# filter passed in from outside may look at anything: such chains run
# the plain list pipeline on the whole text.
_PER_TOKEN_FILTERS = frozenset(
    {lowercase_filter, asciifolding_filter, stop_filter, stemmer_filter}
)

# Bound on one analyzer's word memo: the cached words' lengths plus one
# per cached term (a 10-letter word under the paper's 3..25 n-gram
# configuration costs 46).  A full memo is dropped whole and refills
# from the text that follows.
_MEMO_MAX_COST = 1 << 18


class Analyzer:
    """A complete analysis chain."""

    def __init__(
        self,
        tokenizer,
        token_filters: Sequence[TokenFilter] = (),
        char_filters: Sequence[CharFilter] = (),
    ):
        self.tokenizer = tokenizer
        self.token_filters = tuple(token_filters)
        self.char_filters = tuple(char_filters)
        # word -> ((term, start offset, end offset), ...); None when the
        # chain is not per-word (see _PER_TOKEN_FILTERS).
        per_word = hasattr(
            tokenizer, "words"
        ) and _PER_TOKEN_FILTERS.issuperset(self.token_filters)
        self._memo: dict[str, tuple[tuple[str, int, int], ...]] | None = (
            {} if per_word else None
        )
        self._memo_cost = 0
        self._memo_lock = threading.Lock()

    def analyze(self, text: str) -> list[AnalyzedToken]:
        """Run the chain over ``text``."""
        for char_filter in self.char_filters:
            text = char_filter(text)
        memo = self._memo
        if memo is None:
            return self._run_chain(text)
        out = []
        for position, (word, base) in enumerate(self.tokenizer.words(text)):
            entry = memo.get(word)
            if entry is None:
                entry = self._analyze_word(word)
            for term, start, end in entry:
                out.append(
                    AnalyzedToken(term, position, base + start, base + end)
                )
        return out

    def _run_chain(self, text: str) -> list[AnalyzedToken]:
        tokens = self.tokenizer.tokenize(text)
        for token_filter in self.token_filters:
            tokens = token_filter(tokens)
        return tokens

    def _analyze_word(self, word: str) -> tuple[tuple[str, int, int], ...]:
        """The chain's output for one source word, cached if it fits."""
        entry = tuple((t.term, t.start, t.end) for t in self._run_chain(word))
        cost = len(word) + len(entry)
        if cost <= _MEMO_MAX_COST:
            with self._memo_lock:
                if self._memo_cost + cost > _MEMO_MAX_COST:
                    self._memo.clear()
                    self._memo_cost = 0
                if word not in self._memo:
                    self._memo[word] = entry
                    self._memo_cost += cost
        return entry

    def terms(self, text: str) -> list[str]:
        """Just the term strings."""
        return [t.term for t in self.analyze(text)]


# The paper's CREATe-IR document analyzer (section III-D).
CREATE_IR_ANALYZER_CONFIG: dict = {
    "tokenizer": {"type": "ngram", "min_gram": 3, "max_gram": 25},
    "filter": ["asciifolding", "lowercase", "snowball", "stop", "stemmer"],
    "char_filter": [],
}

# A standard stemmed analyzer: the Solr baseline's, and the analyzer
# ablation's contrast to the n-gram one.
STANDARD_ANALYZER_CONFIG: dict = {
    "tokenizer": {"type": "standard"},
    "filter": ["asciifolding", "lowercase", "stop", "stemmer"],
    "char_filter": [],
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
