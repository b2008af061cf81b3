"""Fine-tuning loop for the Ansible-YAML generation task.

The paper's recipe: 8 epochs over the Galaxy samples, effective batch size
32, lr 5e-5 (scaled here) with a *cosine* decreasing schedule, best
checkpoint selected by BLEU on the validation set.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.prompt import FinetuneSample, prediction_snippet
from repro.eval.truncation import truncate_generation
from repro.metrics.bleu import sentence_bleu
from repro.model.checkpoints import restore_weights, snapshot_weights
from repro.model.lm import WisdomModel
from repro.nn.optim import Adam, CosineSchedule
from repro.training.trainer import TrainingHistory, pad_sequences, run_epoch


def encode_samples(samples: list[FinetuneSample], model: WisdomModel) -> list[list[int]]:
    """Tokenize each sample's training text, appending end-of-text."""
    tokenizer = model.tokenizer
    eot = tokenizer.end_of_text_id
    return [tokenizer.encode(sample.training_text, allow_special=False) + [eot] for sample in samples]


def validation_bleu(model: WisdomModel, samples: list[FinetuneSample], max_samples: int = 16, max_new_tokens: int = 96) -> float:
    """Mean sentence BLEU of greedy completions on validation samples."""
    chosen = samples[:max_samples]
    if not chosen:
        return 0.0
    total = 0.0
    for sample in chosen:
        body = model.complete(sample.input_text, max_new_tokens=max_new_tokens)
        body = truncate_generation(body, sample.indent, sample.generation_type)
        predicted = prediction_snippet(sample, body)
        total += sentence_bleu(sample.reference_snippet, predicted)
    return total / len(chosen)


def finetune(
    model: WisdomModel,
    train_samples: list[FinetuneSample],
    validation_samples: list[FinetuneSample] | None = None,
    epochs: int = 8,
    batch_size: int = 16,
    learning_rate: float = 1e-3,
    seed: int = 0,
    validation_subset: int = 16,
) -> TrainingHistory:
    """Fine-tune in place; restores the best-validation-BLEU checkpoint.

    Samples are bucketed by length before padding so batches stay dense.
    With ``validation_samples``, BLEU on the first ``validation_subset`` of
    them is scored after every epoch and the best epoch's weights win;
    without, the last epoch's weights stay.
    """
    if not train_samples:
        raise ValueError("no training samples")
    window = model.config.n_positions
    encoded = encode_samples(train_samples, model)
    # Length-bucketed padding: sort, then batch contiguously.
    encoded.sort(key=len)
    batches: list[tuple[np.ndarray, np.ndarray]] = []
    for start in range(0, len(encoded), batch_size):
        chunk = encoded[start:start + batch_size]
        batches.append(pad_sequences(chunk, model.tokenizer.pad_id, window))

    rng = np.random.default_rng(seed)
    optimizer = Adam(model.network.parameters(), learning_rate=learning_rate)
    schedule = CosineSchedule(
        peak_lr=learning_rate,
        total_steps=max(1, len(batches) * epochs),
        warmup_steps=min(10, len(batches)),
        final_fraction=0.05,
    )
    history = TrainingHistory()
    best_bleu = -1.0
    best_weights = None
    for epoch in range(epochs):
        run_epoch(
            model.network,
            optimizer,
            (batches[index] for index in rng.permutation(len(batches))),
            schedule=schedule,
            step_offset=epoch * len(batches),
            history=history,
        )
        if validation_samples:
            bleu = validation_bleu(model, validation_samples, max_samples=validation_subset)
            history.validation_losses.append(-bleu)
            if bleu > best_bleu:
                best_bleu = bleu
                best_weights = snapshot_weights(model.network)
    if best_weights is not None:
        restore_weights(model.network, best_weights)
    return history


__all__ = ["finetune", "validation_bleu", "encode_samples"]
