"""Ansible substrate: data model, module catalog, FQCN, k=v, schema.

This package encodes the domain knowledge the paper's system relies on:
what a playbook / play / task / block is, which mapping key names the
module, how legacy spellings normalize, and what the strict linter schema
accepts.
"""

from repro.ansible.equivalence import (
    EQUIVALENCE_GROUPS,
    are_equivalent,
    module_key_score,
)
from repro.ansible.fqcn import resolve_fqcn, short_name
from repro.ansible.keywords import (
    BLOCK_KEYS,
    PLAY_KEYWORDS,
    PLAY_TASK_SECTIONS,
    TASK_KEYWORDS,
    looks_like_play,
)
from repro.ansible.kv import RAW_PARAMS_KEY, looks_like_kv, parse_kv, render_kv
from repro.ansible.model import (
    Block,
    Play,
    Playbook,
    Task,
    TaskList,
    classify_snippet,
    parse_task_entry,
)
from repro.ansible.modules import (
    CATALOG,
    ModuleSpec,
    ParameterSpec,
    get_module,
)
from repro.ansible.schema import (
    LENIENT,
    STRICT,
    Violation,
    is_schema_correct,
    validate,
    validate_task,
)

__all__ = [
    "EQUIVALENCE_GROUPS",
    "are_equivalent",
    "module_key_score",
    "resolve_fqcn",
    "short_name",
    "BLOCK_KEYS",
    "PLAY_KEYWORDS",
    "PLAY_TASK_SECTIONS",
    "TASK_KEYWORDS",
    "looks_like_play",
    "RAW_PARAMS_KEY",
    "looks_like_kv",
    "parse_kv",
    "render_kv",
    "Block",
    "Play",
    "Playbook",
    "Task",
    "TaskList",
    "classify_snippet",
    "parse_task_entry",
    "CATALOG",
    "ModuleSpec",
    "ParameterSpec",
    "get_module",
    "LENIENT",
    "STRICT",
    "Violation",
    "is_schema_correct",
    "validate",
    "validate_task",
]
