"""Model layer: presets, text-level LM, checkpoints, zoo, throughput."""

from repro.model.checkpoints import (
    load_checkpoint,
    restore_weights,
    save_checkpoint,
    snapshot_weights,
)
from repro.model.config import (
    CONTEXT_WINDOWS,
    SIZE_2_7B,
    SIZE_350M,
    SIZE_6B,
    SIZE_PRESETS,
    SizePreset,
    transformer_config,
)
from repro.model.lm import WisdomModel
from repro.model.throughput import (
    ThroughputResult,
    measure_engine_throughput,
    measure_throughput,
    speedup,
)
from repro.model.zoo import (
    ANSIBLE_YAML,
    BIGPYTHON,
    BIGQUERY,
    CARDS_BY_NAME,
    DATASET_COLUMNS,
    GENERIC_YAML,
    MODEL_CARDS,
    ModelCard,
    PILE,
    PretrainingCorpora,
    build_default_corpora,
    build_model,
    build_tokenizer,
    table2_rows,
)

__all__ = [
    "load_checkpoint",
    "restore_weights",
    "save_checkpoint",
    "snapshot_weights",
    "CONTEXT_WINDOWS",
    "SIZE_2_7B",
    "SIZE_350M",
    "SIZE_6B",
    "SIZE_PRESETS",
    "SizePreset",
    "transformer_config",
    "WisdomModel",
    "ThroughputResult",
    "measure_engine_throughput",
    "measure_throughput",
    "speedup",
    "ANSIBLE_YAML",
    "BIGPYTHON",
    "BIGQUERY",
    "CARDS_BY_NAME",
    "DATASET_COLUMNS",
    "GENERIC_YAML",
    "MODEL_CARDS",
    "ModelCard",
    "PILE",
    "PretrainingCorpora",
    "build_default_corpora",
    "build_model",
    "build_tokenizer",
    "table2_rows",
]
