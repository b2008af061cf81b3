"""Shared training-loop machinery: batching, history, the step loop."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.nn.optim import Adam, CosineSchedule, LinearSchedule, clip_grad_norm
from repro.nn.transformer import DecoderLM

#: Gradients are clipped to this global L2 norm before every optimizer step.
MAX_GRAD_NORM = 1.0

#: Sequences per optimizer step, in pretraining and finetuning alike.
BATCH_SIZE = 16


@dataclass
class TrainingHistory:
    """Losses and learning rates recorded during a run."""

    step_losses: list[float] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)


def iterate_batches(rows: np.ndarray, targets: np.ndarray, batch_size: int, rng: np.random.Generator):
    """Yield shuffled (ids, targets) batches for one epoch."""
    order = rng.permutation(rows.shape[0])
    for start in range(0, rows.shape[0], batch_size):
        chosen = order[start:start + batch_size]
        yield rows[chosen], targets[chosen]


def run_epoch(
    model: DecoderLM,
    optimizer: Adam,
    batches: Iterable[tuple[np.ndarray, np.ndarray]],
    schedule: LinearSchedule | CosineSchedule | None = None,
    step_offset: int = 0,
    history: TrainingHistory | None = None,
) -> tuple[float, int]:
    """Train one epoch over ``(ids, targets)`` batches; returns (mean loss, steps executed).

    The one optimizer step of every training loop: zero the gradients,
    backpropagate, clip to :data:`MAX_GRAD_NORM`, step at the schedule's
    rate for the global step (the optimizer's own rate without one).
    """
    losses: list[float] = []
    step = step_offset
    for batch_ids, batch_targets in batches:
        model.zero_grad()
        loss = model.loss_and_backward(batch_ids, batch_targets)
        clip_grad_norm(model.parameters(), MAX_GRAD_NORM)
        learning_rate = schedule.lr_at(step) if schedule is not None else None
        optimizer.step(learning_rate)
        losses.append(loss)
        if history is not None:
            history.step_losses.append(loss)
            if learning_rate is not None:
                history.learning_rates.append(learning_rate)
        step += 1
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    if history is not None:
        history.epoch_losses.append(mean_loss)
    return mean_loss, step - step_offset


def pad_sequences(sequences: list[list[int]], pad_id: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Left-truncate to ``window`` and right-pad into (ids, targets).

    Targets are the ids shifted left by one; pad positions (and the final
    position) are ignored via index -1.
    """
    clipped = [sequence[-window:] if len(sequence) > window else sequence for sequence in sequences]
    length = max(len(sequence) for sequence in clipped)
    ids = np.full((len(clipped), length), pad_id, dtype=np.int64)
    for row, sequence in enumerate(clipped):
        ids[row, : len(sequence)] = sequence
    targets = np.roll(ids, -1, axis=1)
    targets[:, -1] = -1
    targets = np.where(targets == pad_id, -1, targets)
    return ids, targets
