"""Joint mention detection and entity disambiguation toolkit.

Pipeline: build an alias index from count files, train the neural scorer
on annotated documents, tune the decode threshold on validation data,
annotate new text, and score the annotations with strong or weak matching
F1. ``e2el --help`` and the `cli` module docstring list the entry points.
"""

from .candidates import AliasIndex, CandidateEntry, MentionSpan, build_index, \
    enumerate_spans
from .corpus import Document, parse_conll_aida, parse_corpus_jsonl
from .embeddings import CharTable, EntityVectors, WordVectors, train_entity_embeddings
from .encoder import EncoderDims
from .inference import Annotation, EvalReport, evaluate, greedy_decode, select_threshold
from .model import LinkingModel
from .scoring import GlobalConfig, ScoredPair
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "AliasIndex", "Annotation", "CandidateEntry", "CharTable", "Document",
    "EncoderDims", "EntityVectors", "EvalReport", "GlobalConfig", "LinkingModel",
    "MentionSpan", "ScoredPair", "TrainConfig", "WordVectors", "build_index",
    "enumerate_spans", "evaluate", "greedy_decode", "parse_conll_aida",
    "parse_corpus_jsonl", "select_threshold", "train", "train_entity_embeddings",
]
