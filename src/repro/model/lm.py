"""Text-level language model: tokenizer + transformer + decoding policy.

:class:`WisdomModel` is what the rest of the system (training loops,
evaluation harness, serving layer) talks to — it accepts and returns *text*,
hiding token ids, left-truncation and stop handling.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GenerationError
from repro.nn.sampling import generate_greedy
from repro.nn.transformer import DecoderLM, TransformerConfig
from repro.obs import NULL_PROFILER, Observability, OpProfiler, Tracer
from repro.tokenizer.bpe import BpeTokenizer


class WisdomModel:
    """A named, decodable language model over text.

    Attributes:
        name: display name used in reports ("Wisdom-Ansible-Multi", ...).
        tokenizer: the byte-level BPE tokenizer.
        network: the underlying transformer.
        context_window_label: the paper-scale window this model stands in
            for (512/1024/2048), carried for table rendering.
        size_label: paper-scale parameter-count label ("350M", ...).
    """

    def __init__(
        self,
        name: str,
        tokenizer: BpeTokenizer,
        network: DecoderLM,
        size_label: str = "350M",
        context_window_label: int = 1024,
    ):
        self.name = name
        self.tokenizer = tokenizer
        self.network = network
        self.size_label = size_label
        self.context_window_label = context_window_label
        self._engine = None
        self._obs: Observability | None = None

    # -- observability ---------------------------------------------------------

    @property
    def obs(self) -> Observability | None:
        return self._obs

    def attach_observability(self, obs: Observability) -> "WisdomModel":
        """Route this model's spans and metrics through ``obs``.

        Attach *before* the first :meth:`engine` call so the engine shares
        the registry; attached later, only the tracer propagates (the
        engine caches its metric handles at construction).
        """
        self._obs = obs
        if self._engine is not None:
            self._engine.attach_tracer(obs.tracer)
        return self

    def attach_tracer(self, tracer: Tracer) -> "WisdomModel":
        """Capture sampling and engine request spans with ``tracer``."""
        if self._obs is None:
            self._obs = Observability(tracer=tracer)
        else:
            self._obs.attach_tracer(tracer)
        if self._engine is not None:
            self._engine.attach_tracer(tracer)
        return self

    def attach_profiler(self, profiler: OpProfiler) -> "WisdomModel":
        """Hook every layer op in the network to record into ``profiler``.

        Wraps each layer instance's forward/backward, so every subsequent
        :meth:`complete`, :meth:`complete_batch`, training step or raw
        network call feeds the profiler's per-op FLOPs/roofline
        aggregates.  Call :meth:`detach_profiler` to unhook; a disabled
        profiler left attached costs one attribute check per op call.
        """
        if self._obs is None:
            self._obs = Observability()
        self._obs.attach_profiler(profiler)
        profiler.attach(self.network)
        return self

    def detach_profiler(self) -> "WisdomModel":
        """Remove profiler hooks and restore the null profiler."""
        if self._obs is not None and self._obs.profiler is not NULL_PROFILER:
            self._obs.profiler.detach()
            self._obs.profiler = NULL_PROFILER
        return self

    @property
    def _tracer(self) -> Tracer | None:
        return self._obs.tracer if self._obs is not None else None

    @property
    def config(self) -> TransformerConfig:
        return self.network.config

    @property
    def n_parameters(self) -> int:
        return self.network.n_parameters()

    # -- generation -----------------------------------------------------------

    def complete(self, prompt: str, max_new_tokens: int = 96) -> str:
        """Greedy continuation of ``prompt``.

        The prompt is left-truncated to the context window (paper: "when the
        input to the model is larger than the context window, it is
        left-truncated"); the decoding layer reserves room for
        ``max_new_tokens`` so a long prompt cannot silently exhaust the
        budget.  Generation stops at the end-of-text token.
        """
        prompt_ids = self.tokenizer.encode(prompt)
        if not prompt_ids:
            raise GenerationError("prompt is empty")
        stop_ids = frozenset({self.tokenizer.end_of_text_id, self.tokenizer.separator_id})
        result = generate_greedy(
            self.network, prompt_ids, max_new_tokens, stop_ids=stop_ids, tracer=self._tracer
        )
        return self.tokenizer.decode(result.token_ids)

    # -- batched generation ----------------------------------------------------

    def engine(self, **kwargs):
        """This model's :class:`~repro.engine.engine.InferenceEngine`.

        Built lazily on first use (pass kwargs then, e.g. ``max_batch_size``
        to size the batcher); the instance — and with it the prefix cache
        and the paged KV arena — persists across calls, which is what makes
        repeated playbook-buffer completions skip redundant prefill.
        """
        if self._engine is None:
            from repro.engine import InferenceEngine

            if self._obs is not None:
                kwargs.setdefault("obs", self._obs)
            self._engine = InferenceEngine.from_model(self, **kwargs)
        elif kwargs:
            raise GenerationError("engine already built; kwargs only apply to the first call")
        return self._engine

    def complete_batch(self, prompts: list[str], max_new_tokens: int = 96) -> list[str]:
        """Greedy-complete several prompts through the batching engine.

        Token-identical to calling :meth:`complete` per prompt, but decoded
        together: one continuous batch amortises the per-step overhead and
        shared prompt prefixes skip prefill via the engine's prefix cache.
        """
        details = self.engine().complete_batch_detailed(prompts, max_new_tokens=max_new_tokens)
        return [detail["completion"] for detail in details]

    # -- scoring ---------------------------------------------------------------

    def loss_on_text(self, text: str) -> float:
        """Mean next-token cross-entropy of ``text`` (right-truncated to fit)."""
        ids = self.tokenizer.encode(text)[: self.config.n_positions]
        if len(ids) < 2:
            raise GenerationError("text too short to score")
        array = np.array([ids], dtype=np.int64)
        targets = np.roll(array, -1, axis=1)
        targets[:, -1] = -1
        return self.network.evaluate_loss(array, targets)

    def perplexity(self, text: str) -> float:
        """exp(loss) on the text."""
        return float(np.exp(self.loss_on_text(text)))
