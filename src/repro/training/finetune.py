"""Fine-tuning loop for the Ansible-YAML generation task.

The paper's recipe: 8 epochs over the Galaxy samples, effective batch size
32, lr 5e-5 (scaled here) with a *cosine* decreasing schedule, best
checkpoint selected by BLEU on the validation set.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dataset.prompt import FinetuneSample, prediction_snippet
from repro.eval.truncation import truncate_generation
from repro.metrics.bleu import sentence_bleu
from repro.model.checkpoints import restore_weights, snapshot_weights
from repro.model.lm import WisdomModel
from repro.nn.optim import Adam, CosineSchedule, clip_grad_norm
from repro.obs import NULL_TRACER, Observability
from repro.obs.runlog import RunLog
from repro.training.trainer import TrainingHistory, pad_sequences


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
    select_best_by_bleu: bool = True,
    validation_subset: int = 16,
    obs: Observability | None = None,
    runlog: RunLog | None = None,
) -> TrainingHistory:
    """Fine-tune in place; restores the best-validation-BLEU checkpoint.

    Samples are bucketed by length before padding so batches stay dense.
    ``obs`` (optional) records per-step timings plus the
    ``training.validation_s`` histogram around each validation-BLEU
    evaluation; the ``training.grad_norm`` and ``training.learning_rate``
    gauges track the latest step.
    ``runlog`` (optional) appends per-step / per-epoch / per-validation
    JSONL records for ``repro obs --runlog``.
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
    if obs is not None:
        step_histogram = obs.metrics.histogram("training.step_s")
        step_counter = obs.metrics.counter("training.steps")
        token_counter = obs.metrics.counter("training.tokens")
        throughput_gauge = obs.metrics.gauge("training.tokens_per_s")
        grad_norm_gauge = obs.metrics.gauge("training.grad_norm")
        lr_gauge = obs.metrics.gauge("training.learning_rate")
        validation_histogram = obs.metrics.histogram("training.validation_s")
    observing = obs is not None or runlog is not None
    tracer = obs.tracer if obs is not None else NULL_TRACER
    history = TrainingHistory()
    best_bleu = -1.0
    best_weights = None
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(batches))
        epoch_losses = []
        with tracer.span("training.epoch", epoch=epoch, batches=len(batches)):
            for batch_index in order:
                ids, targets = batches[batch_index]
                step_started = time.perf_counter() if observing else 0.0
                model.network.zero_grad()
                loss = model.network.loss_and_backward(ids, targets)
                grad_norm = clip_grad_norm(model.network.parameters(), 1.0)
                learning_rate = schedule.lr_at(step)
                optimizer.step(learning_rate)
                if observing:
                    elapsed = time.perf_counter() - step_started
                    if obs is not None:
                        step_histogram.observe(elapsed)
                        step_counter.inc()
                        token_counter.inc(int(ids.size))
                        grad_norm_gauge.set(grad_norm)
                        lr_gauge.set(learning_rate)
                        if elapsed > 0:
                            throughput_gauge.set(ids.size / elapsed)
                    if runlog is not None:
                        runlog.log_step(
                            step,
                            loss,
                            grad_norm=grad_norm,
                            learning_rate=learning_rate,
                            tokens=int(ids.size),
                            step_s=elapsed,
                        )
                history.step_losses.append(loss)
                epoch_losses.append(loss)
                step += 1
        mean_epoch_loss = float(np.mean(epoch_losses))
        history.epoch_losses.append(mean_epoch_loss)
        if runlog is not None:
            runlog.log_epoch(epoch, mean_epoch_loss, steps=len(batches))
        if select_best_by_bleu and validation_samples:
            validation_started = time.perf_counter()
            with tracer.span("training.validation", epoch=epoch):
                bleu = validation_bleu(model, validation_samples, max_samples=validation_subset)
            if obs is not None:
                validation_histogram.observe(time.perf_counter() - validation_started)
            if runlog is not None:
                runlog.log_validation(epoch, bleu=bleu)
            history.validation_losses.append(-bleu)
            if bleu > best_bleu:
                best_bleu = bleu
                best_weights = snapshot_weights(model.network)
    if best_weights is not None:
        restore_weights(model.network, best_weights)
    return history


__all__ = ["finetune", "validation_bleu", "encode_samples"]
