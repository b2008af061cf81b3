"""The continuous-batching inference engine, end to end.

Trains a small Wisdom model, then drives :mod:`repro.engine` three ways:

1. batched text completion through ``model.complete_batch`` — token-identical
   to per-prompt ``model.complete`` but decoded together;
2. a kept engine's stats surface (batch occupancy, prefill/decode token
   split, prefix-cache reuse across requests sharing a playbook prefix);
3. a throughput comparison: the engine at batch 1 vs batch 4 on the same
   network.

Run::

    python examples/engine_demo.py
"""

from __future__ import annotations

from repro import quickstart_model
from repro.engine import InferenceEngine
from repro.model import measure_throughput


def main() -> None:
    print("training a small model first (this takes a minute or two)...")
    model, _ = quickstart_model(seed=7, galaxy_scale=0.001, finetune_epochs=6)

    prompts = [
        "- name: Install nginx\n",
        "- name: Start nginx\n",
        "- name: Create application user\n",
        "- name: Copy configuration file\n",
    ]

    print("\n-- batched completion (one continuous batch) --")
    completions = model.complete_batch(prompts, max_new_tokens=48)
    for prompt, completion in zip(prompts, completions):
        print(f"{prompt.strip()}")
        print("    " + completion.strip().replace("\n", "\n    "))

    print("\n-- batched output matches sequential decoding --")
    sequential = [model.complete(prompt, max_new_tokens=48) for prompt in prompts]
    print("token-identical:", completions == sequential)

    print("\n-- prefix reuse: same playbook context, growing buffer --")
    buffer = "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n"
    engine = InferenceEngine.from_model(model)  # kept: its prefix store persists
    engine.complete_batch_detailed([buffer], max_new_tokens=16)
    engine.complete_batch_detailed([buffer + "    state: present\n"], max_new_tokens=16)

    print("\n-- engine stats --")
    for key, value in engine.stats().items():
        print(f"  {key}: {value}")

    print("\n-- throughput: the engine at batch 1 vs batch 4 --")
    one = measure_throughput(model.network, prompt_length=16, new_tokens=24, runs=2)
    four = measure_throughput(model.network, batch_size=4, prompt_length=16, new_tokens=24, runs=2)
    print(f"  batch 1: {one.tokens_per_second:8.0f} tokens/s")
    print(f"  batch 4: {four.tokens_per_second:8.0f} tokens/s")
    print(f"  speedup: {four.tokens_per_second / one.tokens_per_second:.2f}x")


if __name__ == "__main__":
    main()
