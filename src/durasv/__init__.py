"""durasv: speaker verification attacks on phoneme duration dynamics.

The package covers the full pipeline: parsing phone-level alignments,
building duration feature sequences and mean duration vectors, the
training-free ratio-metric attack, a trainable duration-embedding attack
scored by cosine similarity, EER evaluation with confidence intervals,
and a synthetic corpus generator for quantitative validation.
"""

from .alignment import (
    AlignedUtterance,
    Corpus,
    PhonemeInventory,
    arpabet_positional_inventory,
    load_inventory,
    parse_alignment,
    write_alignment,
)
from .embeddings import cosine_score, embed, score_trials_embedding
from .evaluation import (
    EerCell,
    EerTable,
    ScoreSet,
    Trial,
    TrialList,
    build_trials,
    compute_eer,
    eer_confidence_interval,
    evaluate,
)
from .features import (
    Chunk,
    DurationFeatureSequence,
    make_chunks,
    mean_duration_vector,
    sequence_from_utterances,
)
from .metric import duration_ratio_distance, score_trials_metric
from .model import (
    Batch,
    ModelConfig,
    ModelParams,
    forward,
    gradient_check,
    init_model,
    loss_and_grad,
    pad_batch,
)
from .model_io import load_model, save_model
from .synth import SpeakerProfile, SynthConfig, generate_corpus, sample_speakers
from .training import TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "AlignedUtterance",
    "Batch",
    "Chunk",
    "Corpus",
    "DurationFeatureSequence",
    "EerCell",
    "EerTable",
    "ModelConfig",
    "ModelParams",
    "PhonemeInventory",
    "ScoreSet",
    "SpeakerProfile",
    "SynthConfig",
    "TrainConfig",
    "TrainResult",
    "Trial",
    "TrialList",
    "arpabet_positional_inventory",
    "build_trials",
    "compute_eer",
    "cosine_score",
    "duration_ratio_distance",
    "eer_confidence_interval",
    "embed",
    "evaluate",
    "forward",
    "generate_corpus",
    "gradient_check",
    "init_model",
    "load_inventory",
    "load_model",
    "loss_and_grad",
    "make_chunks",
    "mean_duration_vector",
    "pad_batch",
    "parse_alignment",
    "sample_speakers",
    "save_model",
    "score_trials_embedding",
    "score_trials_metric",
    "sequence_from_utterances",
    "train",
    "write_alignment",
]
