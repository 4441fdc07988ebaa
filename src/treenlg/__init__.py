"""Tree-structured semantic encoding and generation for multi-domain dialogue NLG."""

from .engine import Adam, GradCheckReport, Node, ParamBinding, Tape, grad_check
from .generation import GenerationResult, beam_decode, greedy_decode
from .metrics import BleuReport, SerCounts, aggregate, bleu, seen_unseen_split, ser
from .model import Checkpoint, Model, Vocabulary, load_checkpoint, save_checkpoint
from .semantics import (
    Corpus,
    Ontology,
    SemanticRepresentation,
    SrEntry,
    delexicalize,
    lexicalize,
    load_corpus,
    load_ontology,
    tokenize,
)
from .synth import SynthSpec, synth_corpus
from .training import TrainConfig, adapt, run_matrix, train
from .tree import SemTree, build_tree, encode, encode_flat

__version__ = "0.1.0"

__all__ = [
    "Adam", "BleuReport", "Checkpoint", "Corpus", "GenerationResult",
    "GradCheckReport", "Model", "Node", "Ontology", "ParamBinding",
    "SemTree", "SemanticRepresentation", "SerCounts", "SrEntry", "SynthSpec",
    "Tape", "TrainConfig", "Vocabulary", "adapt", "aggregate", "beam_decode",
    "bleu", "build_tree", "delexicalize", "encode", "encode_flat",
    "grad_check", "greedy_decode", "lexicalize", "load_checkpoint",
    "load_corpus", "load_ontology", "run_matrix",
    "save_checkpoint", "seen_unseen_split", "ser", "synth_corpus",
    "tokenize", "train",
]
