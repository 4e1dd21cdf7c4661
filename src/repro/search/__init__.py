"""Full-text search substrate: the ElasticSearch analog plus a Solr baseline.

Implements the exact analysis configuration the paper specifies for
CREATe-IR's keyword index — ``asciifolding``, ``lowercase``,
``snowball``, ``stop`` and ``stemmer`` token filters over an N-gram
tokenizer with ``min_gram=3`` / ``max_gram=25`` — on top of a
positional inverted index scored with BM25.
"""

from repro.search.analysis import (
    Analyzer,
    AnalyzedToken,
    StandardTokenizer,
    NGramTokenizer,
    WhitespaceTokenizer,
    KeywordTokenizer,
    create_analyzer,
    CREATE_IR_ANALYZER_CONFIG,
    CREATE_IR_FIELD_ANALYZERS,
)
from repro.search.inverted_index import InvertedIndex, Posting
from repro.search.engine import SearchEngine, ScoredHit
from repro.search.solr import SolrBaseline
from repro.search.highlight import highlight

__all__ = [
    "Analyzer",
    "AnalyzedToken",
    "StandardTokenizer",
    "NGramTokenizer",
    "WhitespaceTokenizer",
    "KeywordTokenizer",
    "create_analyzer",
    "CREATE_IR_ANALYZER_CONFIG",
    "CREATE_IR_FIELD_ANALYZERS",
    "InvertedIndex",
    "Posting",
    "SearchEngine",
    "ScoredHit",
    "SolrBaseline",
    "highlight",
]
