"""Text-level language model: tokenizer + transformer + decoding policy.

:class:`WisdomModel` is what the rest of the system (training loops,
evaluation harness, serving layer) talks to — it accepts and returns *text*,
hiding token ids, left-truncation and stop handling.
"""

from __future__ import annotations

from repro.errors import GenerationError
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

    @property
    def config(self) -> TransformerConfig:
        return self.network.config

    @property
    def n_parameters(self) -> int:
        return self.network.n_parameters()

    # -- generation -----------------------------------------------------------

    def complete(self, prompt: str, max_new_tokens: int = 96) -> str:
        """Greedy continuation of ``prompt``: :meth:`complete_batch` of one.

        The prompt is left-truncated to the context window (paper: "when the
        input to the model is larger than the context window, it is
        left-truncated"); the decoding layer reserves room for
        ``max_new_tokens`` so a long prompt cannot silently exhaust the
        budget.  Generation stops at the end-of-text token.
        """
        if not prompt:  # byte-level BPE: any other text encodes to tokens
            raise GenerationError("prompt is empty")
        return self.complete_batch([prompt], max_new_tokens)[0]

    def complete_batch(self, prompts: list[str], max_new_tokens: int = 96) -> list[str]:
        """Greedy-complete ``prompts`` through the engine that serves.

        The engine is built per call and dropped after it: one kept across
        calls would keep its prefix store across a weight change (a
        finetune epoch, ``restore_weights``) and serve K/V computed under
        the old weights.  Serving callers build and keep their own
        ``InferenceEngine.from_model(model)``.
        """
        from repro.engine import InferenceEngine

        details = InferenceEngine.from_model(self).complete_batch_detailed(
            prompts, max_new_tokens=max_new_tokens
        )
        return [detail["completion"] for detail in details]
