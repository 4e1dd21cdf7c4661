"""ML substrate: everything the extraction models need, on numpy/scipy.

No deep-learning framework is available offline, so this package
implements the training stack from scratch: feature hashing, multinomial
logistic regression (Adam), linear-chain CRF (forward-backward +
Adagrad), averaged structured perceptron, char-n-gram "contextual"
embeddings (the C-FLAIR substitute), and evaluation metrics for
classification, sequence labeling and retrieval.
"""

from repro.ml.features import FeatureHasher, hash_feature
from repro.ml.logistic import LogisticRegression
from repro.ml.crf import LinearChainCRF
from repro.ml.perceptron import StructuredPerceptron
from repro.ml.embeddings import CharNgramEmbedder
from repro.ml.metrics import (
    classification_f1,
    confusion_matrix,
    span_prf1,
    precision_at_k,
    average_precision,
    ndcg_at_k,
    reciprocal_rank,
    PRF1,
)

__all__ = [
    "FeatureHasher",
    "hash_feature",
    "LogisticRegression",
    "LinearChainCRF",
    "StructuredPerceptron",
    "CharNgramEmbedder",
    "classification_f1",
    "confusion_matrix",
    "span_prf1",
    "precision_at_k",
    "average_precision",
    "ndcg_at_k",
    "reciprocal_rank",
    "PRF1",
]
