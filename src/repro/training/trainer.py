"""Shared training-loop machinery: batching, history, the step loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.nn.optim import Adam, LinearSchedule, clip_grad_norm
from repro.nn.transformer import DecoderLM
from repro.obs import Observability
from repro.obs.runlog import RunLog


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
    rows: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
    schedule: LinearSchedule | None = None,
    step_offset: int = 0,
    max_grad_norm: float = 1.0,
    history: TrainingHistory | None = None,
    obs: Observability | None = None,
    runlog: RunLog | None = None,
) -> tuple[float, int]:
    """Train one epoch; returns (mean loss, steps executed).

    When ``obs`` is given, each optimizer step feeds the
    ``training.step_s`` histogram and the ``training.steps`` /
    ``training.tokens`` counters; the ``training.tokens_per_s``,
    ``training.grad_norm`` and ``training.learning_rate`` gauges track
    the most recent step — the same per-step facts a ``runlog`` records,
    so ``/v1/metrics`` and the run log agree on what a training step did.
    ``runlog`` (optional) appends one JSONL record per step.
    """
    if obs is not None:
        step_histogram = obs.metrics.histogram("training.step_s")
        step_counter = obs.metrics.counter("training.steps")
        token_counter = obs.metrics.counter("training.tokens")
        throughput_gauge = obs.metrics.gauge("training.tokens_per_s")
        grad_norm_gauge = obs.metrics.gauge("training.grad_norm")
        lr_gauge = obs.metrics.gauge("training.learning_rate")
    observing = obs is not None or runlog is not None
    losses: list[float] = []
    step = step_offset
    for batch_ids, batch_targets in iterate_batches(rows, targets, batch_size, rng):
        step_started = time.perf_counter() if observing else 0.0
        model.zero_grad()
        loss = model.loss_and_backward(batch_ids, batch_targets)
        grad_norm = clip_grad_norm(model.parameters(), max_grad_norm)
        learning_rate = schedule.lr_at(step) if schedule is not None else None
        optimizer.step(learning_rate)
        if observing:
            elapsed = time.perf_counter() - step_started
            tokens = int(batch_ids.size)
            if obs is not None:
                step_histogram.observe(elapsed)
                step_counter.inc()
                token_counter.inc(tokens)
                grad_norm_gauge.set(grad_norm)
                if learning_rate is not None:
                    lr_gauge.set(learning_rate)
                if elapsed > 0:
                    throughput_gauge.set(tokens / elapsed)
            if runlog is not None:
                runlog.log_step(
                    step,
                    loss,
                    grad_norm=grad_norm,
                    learning_rate=learning_rate,
                    tokens=tokens,
                    step_s=elapsed,
                )
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
