"""Text-processing substrate: tokenization, stemming, stopwords, n-grams.

This package supplies the linguistic plumbing that the search engine
(ElasticSearch analog), the NER tagger, and the corpus generator all
share.  Everything is implemented from scratch on the standard library.
"""

from repro.text.tokenize import (
    Token,
    WordTokenizer,
    SentenceSplitter,
    tokenize,
    split_sentences,
)
from repro.text.stem import PorterStemmer, stem
from repro.text.stopwords import STOPWORDS, is_stopword
from repro.text.ngrams import character_ngrams, word_ngrams, shingle

__all__ = [
    "Token",
    "WordTokenizer",
    "SentenceSplitter",
    "tokenize",
    "split_sentences",
    "PorterStemmer",
    "stem",
    "STOPWORDS",
    "is_stopword",
    "character_ngrams",
    "word_ngrams",
    "shingle",
]
