"""The NER tagger: CRF / perceptron decoders over rich token features.

Configurations (matching the benchmark's comparison grid):

* ``NerTagger(decoder="perceptron")`` — averaged structured perceptron,
  lexical features only (a classic pre-neural baseline);
* ``NerTagger(decoder="crf")`` — linear-chain CRF, lexical features
  (the strong "SOTA baseline");
* ``NerTagger(decoder="crf", use_context_embeddings=True)`` — the
  **C-FLAIR substitute**: the same CRF whose feature set is enriched
  with pretrained char-n-gram embeddings, as word classes
  (``embedding_feature_mode="clusters"``, the default) or as sign bits
  of the contextual vector (``"signs"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.annotation.model import AnnotationDocument
from repro.exceptions import ModelError, NotFittedError
from repro.ml.crf import LinearChainCRF
from repro.ml.embeddings import CharNgramEmbedder
from repro.ml.features import FeatureHasher
from repro.ml.metrics import PRF1, span_prf1
from repro.ml.perceptron import StructuredPerceptron
from repro.ner.encoding import bio_decode, bio_encode, spans_of_document
from repro.text.tokenize import Token, split_sentences, tokenize


@dataclass(frozen=True, slots=True)
class TaggedSpan:
    """One predicted entity."""

    start: int
    end: int
    label: str
    text: str


def _shape(word: str) -> str:
    """Word shape: Xx for 'Chest', dd for '120', etc. (run-collapsed)."""
    out = []
    for ch in word:
        if ch.isupper():
            mapped = "X"
        elif ch.islower():
            mapped = "x"
        elif ch.isdigit():
            mapped = "d"
        else:
            mapped = ch
        if not out or out[-1] != mapped:
            out.append(mapped)
    return "".join(out)


def token_features(tokens: Sequence[Token], index: int) -> list[str]:
    """Lexical feature strings for token ``index`` in its sentence."""
    token = tokens[index]
    word = token.text
    lower = token.lower
    feats = [
        f"w={lower}",
        f"shape={_shape(word)}",
        f"pre2={lower[:2]}",
        f"pre3={lower[:3]}",
        f"suf2={lower[-2:]}",
        f"suf3={lower[-3:]}",
        f"isdigit={word.isdigit()}",
        f"istitle={word.istitle()}",
        f"len={min(len(word), 8)}",
    ]
    if index > 0:
        prev = tokens[index - 1].lower
        feats.append(f"prev_w={prev}")
        feats.append(f"bigram={prev}|{lower}")
    else:
        feats.append("BOS")
    if index + 1 < len(tokens):
        nxt = tokens[index + 1].lower
        feats.append(f"next_w={nxt}")
        feats.append(f"next_bigram={lower}|{nxt}")
    else:
        feats.append("EOS")
    if index > 1:
        feats.append(f"prev2_w={tokens[index - 2].lower}")
    if index + 2 < len(tokens):
        feats.append(f"next2_w={tokens[index + 2].lower}")
    return feats


class NerTagger:
    """Trainable clinical NER tagger.

    Args:
        decoder: ``"crf"`` or ``"perceptron"``.
        use_context_embeddings: enrich features with pretrained
            char-n-gram embedding information (the C-FLAIR substitute).
        embedding_feature_mode: how embeddings enter the feature set:
            ``"clusters"`` (default; Brown-cluster-style word classes
            for the token and its neighbors — the empirically winning
            configuration) or ``"signs"`` (LSH sign bits of the
            contextual vector).
        embedder: optionally a pre-fitted :class:`CharNgramEmbedder`
            (pretraining on a larger unlabeled corpus); when None and
            embeddings are enabled, one is fitted on the training text.
        epochs: training epochs for the decoder.
        n_features: hashed feature space size.
    """

    def __init__(
        self,
        decoder: str = "crf",
        use_context_embeddings: bool = False,
        embedding_feature_mode: str = "clusters",
        embedder: CharNgramEmbedder | None = None,
        epochs: int = 6,
        n_features: int = 1 << 18,
        seed: int = 13,
    ):
        if decoder not in ("crf", "perceptron"):
            raise ModelError(f"unknown decoder {decoder!r}")
        if embedding_feature_mode not in ("clusters", "signs"):
            raise ModelError(
                f"unknown embedding_feature_mode {embedding_feature_mode!r}"
            )
        self.decoder = decoder
        self.use_context_embeddings = use_context_embeddings
        self.embedding_feature_mode = embedding_feature_mode
        self.embedder = embedder
        self.epochs = epochs
        self.n_features = n_features
        self.seed = seed
        self._hasher = FeatureHasher(n_features)
        self._model: LinearChainCRF | StructuredPerceptron | None = None

    # -- training -------------------------------------------------------------

    def fit(self, docs: Sequence[AnnotationDocument]) -> "NerTagger":
        """Train on gold-annotated documents."""
        if self.use_context_embeddings and self.embedder is None:
            sentences = [
                [t.text for t in sentence_tokens]
                for doc in docs
                for sentence_tokens in self._sentences(doc.text)
            ]
            self.embedder = CharNgramEmbedder(seed=self.seed).fit(sentences)
        if (
            self.use_context_embeddings
            and self.embedder is not None
            and self.embedding_feature_mode == "clusters"
            and not self.embedder._centroids
        ):
            # Word-class (Brown-cluster-style) features need centroids.
            self.embedder.fit_clusters()

        sequences: list[list[np.ndarray]] = []
        label_sequences: list[list[str]] = []
        for doc in docs:
            gold = spans_of_document(doc)
            for sentence_tokens in self._sentences(doc.text):
                labels = bio_encode(sentence_tokens, gold)
                sequences.append(self._featurize(sentence_tokens))
                label_sequences.append(labels)

        if self.decoder == "crf":
            self._model = LinearChainCRF(
                n_features=self.n_features,
                epochs=self.epochs,
                seed=self.seed,
            )
        else:
            self._model = StructuredPerceptron(
                n_features=self.n_features,
                epochs=self.epochs,
                seed=self.seed,
            )
        self._model.fit(sequences, label_sequences)
        return self

    # -- inference ----------------------------------------------------------------

    def predict_spans(self, text: str) -> list[TaggedSpan]:
        """Tag raw text; returns predicted entity spans."""
        if self._model is None:
            raise NotFittedError("NerTagger used before fit()")
        spans: list[TaggedSpan] = []
        for sentence_tokens in self._sentences(text):
            feats = self._featurize(sentence_tokens)
            labels = self._model.predict(feats)
            for start, end, label in bio_decode(sentence_tokens, labels):
                spans.append(TaggedSpan(start, end, label, text[start:end]))
        return spans

    def predict_document(
        self, doc: AnnotationDocument
    ) -> list[tuple[int, int, str]]:
        """Tag a document; triples comparable against gold spans."""
        return [
            (span.start, span.end, span.label)
            for span in self.predict_spans(doc.text)
        ]

    def evaluate(self, docs: Sequence[AnnotationDocument]) -> PRF1:
        """Exact-span micro P/R/F1 against gold annotations."""
        gold = [spans_of_document(doc) for doc in docs]
        predicted = [self.predict_document(doc) for doc in docs]
        return span_prf1(gold, predicted)

    # -- internals -------------------------------------------------------------------

    def _sentences(self, text: str) -> list[list[Token]]:
        out = []
        for start, end in split_sentences(text):
            sentence_tokens = [
                t for t in tokenize(text[start:end])
            ]
            # Re-anchor offsets to the document.
            out.append(
                [
                    Token(t.text, t.start + start, t.end + start)
                    for t in sentence_tokens
                ]
            )
        return out

    def _featurize(self, tokens: Sequence[Token]) -> list[np.ndarray]:
        per_token = [token_features(tokens, i) for i in range(len(tokens))]
        if self.use_context_embeddings and self.embedder is not None:
            words = [t.text for t in tokens]
            if self.embedding_feature_mode == "signs":
                signs = self.embedder.sign_features(words)
                for feats, token_signs in zip(per_token, signs):
                    feats.extend(token_signs)
            else:
                clusters = [self.embedder.cluster_ids(w) for w in words]
                for i, feats in enumerate(per_token):
                    for k, cid in clusters[i]:
                        feats.append(f"cl{k}={cid}")
                    if i > 0:
                        for k, cid in clusters[i - 1]:
                            feats.append(f"prev_cl{k}={cid}")
                    if i + 1 < len(tokens):
                        for k, cid in clusters[i + 1]:
                            feats.append(f"next_cl{k}={cid}")
        return [self._hasher.indices_of(feats) for feats in per_token]
