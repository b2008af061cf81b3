"""Training loops: pre-training and fine-tuning."""

from repro.training.finetune import encode_samples, finetune, validation_bleu
from repro.training.pretrain import pretrain
from repro.training.trainer import (
    TrainingHistory,
    iterate_batches,
    pad_sequences,
    run_epoch,
)

__all__ = [
    "encode_samples",
    "finetune",
    "validation_bleu",
    "pretrain",
    "TrainingHistory",
    "iterate_batches",
    "pad_sequences",
    "run_epoch",
]
