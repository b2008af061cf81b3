"""repro - reproduction of the Ansible Wisdom system (DAC 2023).

"Automated Code generation for Information Technology Tasks in YAML through
Large Language Models" - a natural-language to Ansible-YAML code generation
system, rebuilt from scratch: YAML engine, Ansible data model and schema,
dataset pipeline, BPE tokenizer, numpy transformer, training loops, the two
novel metrics (Ansible Aware / Schema Correct), baselines, evaluation
harness, and a serving layer.

Quickstart::

    from repro import quickstart_model
    model, dataset = quickstart_model(seed=7)
    print(model.complete("- name: Install nginx\\n"))

Subpackages:

* :mod:`repro.yamlio` - YAML engine
* :mod:`repro.ansible` - Ansible data model, module catalog, schema
* :mod:`repro.dataset` - corpus synthesis and fine-tuning pipeline
* :mod:`repro.tokenizer` - byte-level BPE
* :mod:`repro.nn` / :mod:`repro.model` - transformer LM
* :mod:`repro.training` - pre-training and fine-tuning loops
* :mod:`repro.metrics` - EM / BLEU / Ansible Aware / Schema Correct
* :mod:`repro.eval` - evaluation harness
* :mod:`repro.baselines` - retrieval, n-gram, Codex simulator
* :mod:`repro.engine` - continuous-batching inference engine
* :mod:`repro.serving` - REST service and editor-plugin simulation
"""

__version__ = "1.0.0"


def quickstart_model(seed: int = 7, galaxy_scale: float = 0.002, finetune_epochs: int = 14):
    """Train a small Wisdom model end to end (pretrain + finetune).

    Returns ``(model, finetune_dataset)``.  Takes a few minutes on one CPU
    core; examples/quickstart.py narrates each stage.
    """
    from repro.dataset import build_finetune_dataset, build_galaxy_corpus, split_corpus
    from repro.model import CARDS_BY_NAME, build_default_corpora, build_model, build_tokenizer
    from repro.training import finetune
    from repro.utils.rng import SeededRng

    rng = SeededRng(seed)
    corpora = build_default_corpora(rng.child("pretrain"), scale=0.0003)
    tokenizer = build_tokenizer(corpora)
    model = build_model(
        CARDS_BY_NAME["Wisdom-Ansible"],
        corpora,
        tokenizer,
        seed=seed,
        epochs=10,
        learning_rate=2e-3,
        max_batches_per_epoch=40,
    )
    galaxy = build_galaxy_corpus(rng.child("galaxy"), scale=galaxy_scale)
    splits = split_corpus(galaxy, rng.child("split"))
    dataset = build_finetune_dataset(splits.train, splits.validation, splits.test)
    finetune(model, dataset.train, dataset.validation, epochs=finetune_epochs)
    return model, dataset
