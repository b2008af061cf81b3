"""Ansible keyword tables.

The "Ansible Aware" metric and the schema validator both need to know which
mapping keys are *keywords* (play/task/block directives interpreted by the
Ansible engine) versus which single remaining key names the *module* to run.
These tables mirror ansible-core's playbook object attributes.
"""

from __future__ import annotations

# Keywords valid on a play (top-level playbook entry).
PLAY_KEYWORDS: frozenset[str] = frozenset(
    {
        "any_errors_fatal",
        "become",
        "become_exe",
        "become_flags",
        "become_method",
        "become_user",
        "check_mode",
        "collections",
        "connection",
        "debugger",
        "diff",
        "environment",
        "fact_path",
        "force_handlers",
        "gather_facts",
        "gather_subset",
        "gather_timeout",
        "handlers",
        "hosts",
        "ignore_errors",
        "ignore_unreachable",
        "max_fail_percentage",
        "module_defaults",
        "name",
        "no_log",
        "order",
        "port",
        "post_tasks",
        "pre_tasks",
        "remote_user",
        "roles",
        "run_once",
        "serial",
        "strategy",
        "tags",
        "tasks",
        "throttle",
        "timeout",
        "vars",
        "vars_files",
        "vars_prompt",
    }
)

# Keywords valid on a task, alongside the single module key.
TASK_KEYWORDS: frozenset[str] = frozenset(
    {
        "action",
        "any_errors_fatal",
        "args",
        "async",
        "become",
        "become_exe",
        "become_flags",
        "become_method",
        "become_user",
        "changed_when",
        "check_mode",
        "collections",
        "connection",
        "debugger",
        "delay",
        "delegate_facts",
        "delegate_to",
        "diff",
        "environment",
        "failed_when",
        "ignore_errors",
        "ignore_unreachable",
        "listen",
        "local_action",
        "loop",
        "loop_control",
        "module_defaults",
        "name",
        "no_log",
        "notify",
        "poll",
        "port",
        "register",
        "remote_user",
        "retries",
        "run_once",
        "tags",
        "throttle",
        "timeout",
        "until",
        "vars",
        "when",
        "with_dict",
        "with_fileglob",
        "with_first_found",
        "with_items",
        "with_list",
        "with_nested",
        "with_sequence",
        "with_subelements",
        "with_together",
    }
)

# Keys that make a mapping a block rather than a task.
BLOCK_KEYS: frozenset[str] = frozenset({"block", "rescue", "always"})

# Keywords valid on a block (block/rescue/always plus shared task keywords).
BLOCK_KEYWORDS: frozenset[str] = BLOCK_KEYS | (
    TASK_KEYWORDS
    - {"action", "args", "local_action", "register", "async", "poll", "until", "retries", "delay", "loop", "loop_control", "with_dict", "with_fileglob", "with_first_found", "with_items", "with_list", "with_nested", "with_sequence", "with_subelements", "with_together", "listen", "notify", "changed_when", "failed_when"}
) | {"notify", "changed_when", "failed_when"}

# Play keys whose value must be a list of tasks.
PLAY_TASK_SECTIONS: tuple[str, ...] = ("tasks", "pre_tasks", "post_tasks", "handlers")

# `with_*` lookup loops (legacy loop syntax, still schema-valid).
LOOP_KEYWORDS: frozenset[str] = frozenset(
    key for key in TASK_KEYWORDS if key.startswith("with_")
) | {"loop"}


def looks_like_play(mapping: dict) -> bool:
    """Heuristic from the dataset pipeline: a mapping is a *play* when it
    carries the play-defining keys (``hosts`` or task sections with no
    module key)."""
    if not isinstance(mapping, dict):
        return False
    if "hosts" in mapping:
        return True
    return any(section in mapping for section in PLAY_TASK_SECTIONS) and not any(
        key not in PLAY_KEYWORDS for key in mapping
    )
