"""Pre-training loop.

Mirrors the paper's recipe at laptop scale: files packed into fixed context
windows with a separator token, effective batch size 32, learning rate 5e-5
scaled up for the tiny models, and a *linear* decreasing schedule.  The
paper trains 9 epochs on 16 A100s; epochs are a parameter here.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.corpus import Corpus
from repro.dataset.packing import next_token_targets, pack_documents
from repro.nn.optim import Adam, LinearSchedule
from repro.nn.transformer import DecoderLM
from repro.tokenizer.bpe import BpeTokenizer
from repro.training.trainer import BATCH_SIZE, TrainingHistory, iterate_batches, run_epoch


def pretrain(
    network: DecoderLM,
    corpus: Corpus,
    tokenizer: BpeTokenizer,
    epochs: int = 3,
    learning_rate: float = 1e-3,
    seed: int = 0,
    max_batches_per_epoch: int | None = None,
) -> TrainingHistory:
    """Pre-train ``network`` on a packed corpus; returns the loss history.

    ``max_batches_per_epoch`` caps compute for large corpora (a uniformly
    random subset of windows is seen each epoch).
    """
    window = network.config.n_positions
    rows = pack_documents(corpus, tokenizer, window)
    targets = next_token_targets(rows, pad_id=tokenizer.pad_id)
    rng = np.random.default_rng(seed)
    optimizer = Adam(network.parameters(), learning_rate=learning_rate)
    steps_per_epoch = (rows.shape[0] + BATCH_SIZE - 1) // BATCH_SIZE
    if max_batches_per_epoch is not None:
        steps_per_epoch = min(steps_per_epoch, max_batches_per_epoch)
    schedule = LinearSchedule(
        peak_lr=learning_rate,
        total_steps=max(1, steps_per_epoch * epochs),
        warmup_steps=min(20, steps_per_epoch),
        final_fraction=0.1,
    )
    history = TrainingHistory()
    step = 0
    for _ in range(epochs):
        if max_batches_per_epoch is not None and rows.shape[0] > max_batches_per_epoch * BATCH_SIZE:
            chosen = rng.choice(rows.shape[0], size=max_batches_per_epoch * BATCH_SIZE, replace=False)
            epoch_rows, epoch_targets = rows[chosen], targets[chosen]
        else:
            epoch_rows, epoch_targets = rows, targets
        _, steps = run_epoch(
            network,
            optimizer,
            iterate_batches(epoch_rows, epoch_targets, BATCH_SIZE, rng),
            schedule=schedule,
            step_offset=step,
            history=history,
        )
        step += steps
    return history
