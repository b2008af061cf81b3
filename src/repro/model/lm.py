"""Text-level language model: tokenizer + transformer + decoding policy.

:class:`WisdomModel` is what the rest of the system (training loops,
evaluation harness, serving layer) talks to — it accepts and returns *text*,
hiding token ids, left-truncation and stop handling.
"""

from __future__ import annotations

from repro.errors import GenerationError
from repro.nn.sampling import generate_greedy
from repro.nn.transformer import DecoderLM, TransformerConfig
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
        result = generate_greedy(self.network, prompt_ids, max_new_tokens, stop_ids=stop_ids)
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
