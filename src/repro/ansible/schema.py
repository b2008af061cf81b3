"""Strict Ansible schema validation — the basis of the *Schema Correct* metric.

The paper: "The Ansible playbook and tasks schema used by the Ansible linter
are quite strict and do not accept some historical forms which are still
allowed by Ansible itself."  This validator mirrors that behaviour with two
levels:

* ``lenient`` — accepts everything ansible-core itself would run: legacy
  ``k=v`` string arguments, bare short module names, ``with_*`` loops.
* ``strict`` (default, the linter's view) — additionally rejects the
  historical forms: inline ``k=v`` arguments on non-free-form modules,
  unknown module options, closed-choice violations, ``action:`` /
  ``local_action:`` indirection.

Because the fine-tuning data is *not* filtered with this schema (matching
the paper), a prediction with a perfect Exact Match score can still score 0
on Schema Correct.

Every rule produces a :class:`Violation` with a JSONPath-ish location, a
stable rule id, and a message; :func:`validate` returns them all rather than
stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ansible.keywords import (
    BLOCK_KEYS,
    PLAY_KEYWORDS,
    PLAY_TASK_SECTIONS,
    TASK_KEYWORDS,
    looks_like_play,
)
from repro.ansible.kv import looks_like_kv
from repro.ansible.modules import ModuleSpec, get_module

STRICT = "strict"
LENIENT = "lenient"
_LEVELS = (STRICT, LENIENT)


@dataclass(frozen=True)
class Violation:
    """One schema violation.

    Attributes:
        path: location of the offending node, e.g. ``plays[0].tasks[2]``.
        rule: stable rule identifier, e.g. ``module-unknown``.
        message: human-readable explanation.
    """

    path: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: [{self.rule}] {self.message}"


def _contains_template(value: object) -> bool:
    return isinstance(value, str) and "{{" in value


class _Validator:
    def __init__(self, level: str):
        if level not in _LEVELS:
            raise ValueError(f"level must be one of {_LEVELS}, got {level!r}")
        self.level = level
        self.violations: list[Violation] = []

    def report(self, path: str, rule: str, message: str) -> None:
        self.violations.append(Violation(path=path, rule=rule, message=message))

    # -- documents --------------------------------------------------------

    def validate_document(self, data: object, path: str = "$") -> None:
        if not isinstance(data, list):
            self.report(path, "document-not-list", "an Ansible file is a list of plays or tasks")
            return
        if not data:
            self.report(path, "document-empty", "empty document")
            return
        if any(not isinstance(entry, dict) for entry in data):
            self.report(path, "entry-not-mapping", "every playbook/task entry must be a mapping")
            return
        if all(looks_like_play(entry) for entry in data):
            for index, play in enumerate(data):
                self.validate_play(play, f"{path}.plays[{index}]")
        elif any(looks_like_play(entry) for entry in data):
            self.report(path, "mixed-plays-and-tasks", "document mixes plays and bare tasks")
        else:
            self._validate_task_section(data, f"{path}.tasks")

    # -- plays --------------------------------------------------------------

    def validate_play(self, play: dict, path: str) -> None:
        if "hosts" not in play:
            self.report(path, "play-missing-hosts", "a play requires a 'hosts' target")
        for key, value in play.items():
            if not isinstance(key, str):
                self.report(path, "key-not-string", f"play key {key!r} is not a string")
                continue
            if key not in PLAY_KEYWORDS:
                self.report(path, "play-unknown-keyword", f"unknown play keyword {key!r}")
                continue
            if key in PLAY_TASK_SECTIONS:
                self._validate_task_section(value, f"{path}.{key}")
            elif key == "hosts" and not isinstance(value, (str, list)):
                self.report(f"{path}.hosts", "hosts-type", "'hosts' must be a pattern string or list")
            elif key == "roles":
                self._validate_roles(value, f"{path}.roles")
            elif key == "vars" and value is not None and not isinstance(value, dict):
                self.report(f"{path}.vars", "vars-type", "'vars' must be a mapping")
            elif key == "gather_facts" and not isinstance(value, bool) and not _contains_template(value):
                self.report(f"{path}.gather_facts", "keyword-type", "'gather_facts' must be boolean")

    def _validate_task_section(self, value: object, path: str) -> None:
        if value is None:
            return
        if not isinstance(value, list):
            self.report(path, "section-not-list", "task section must be a list")
            return
        for index, entry in enumerate(value):
            if isinstance(entry, dict) and any(key in BLOCK_KEYS for key in entry):
                self.validate_block(entry, f"{path}[{index}]")
            else:
                self.validate_task(entry, f"{path}[{index}]")

    def _validate_roles(self, value: object, path: str) -> None:
        if not isinstance(value, list):
            self.report(path, "roles-not-list", "'roles' must be a list")
            return
        for index, role in enumerate(value):
            if isinstance(role, str):
                continue
            if isinstance(role, dict):
                if "role" not in role and "name" not in role:
                    self.report(f"{path}[{index}]", "role-missing-name", "role entry needs 'role' or 'name'")
            else:
                self.report(f"{path}[{index}]", "role-type", "role entry must be string or mapping")

    # -- blocks --------------------------------------------------------------

    def validate_block(self, block: dict, path: str) -> None:
        if "block" not in block:
            self.report(path, "block-missing-block", "'rescue'/'always' require a 'block' section")
        for key, value in block.items():
            if key in BLOCK_KEYS:
                self._validate_task_section(value, f"{path}.{key}")
            elif key == "name":
                if value is not None and not isinstance(value, str):
                    self.report(f"{path}.name", "name-type", "'name' must be a string")
            elif key not in TASK_KEYWORDS:
                self.report(f"{path}.{key}", "block-unknown-keyword", f"unknown block keyword {key!r}")

    # -- tasks -----------------------------------------------------------------

    def validate_task(self, task: object, path: str) -> None:
        if not isinstance(task, dict):
            self.report(path, "task-not-mapping", f"task must be a mapping, got {type(task).__name__}")
            return
        if not task:
            self.report(path, "task-empty", "empty task mapping")
            return
        module_keys = [
            key for key in task if isinstance(key, str) and key not in TASK_KEYWORDS
        ]
        for key in task:
            if not isinstance(key, str):
                self.report(path, "key-not-string", f"task key {key!r} is not a string")
        if len(module_keys) > 1:
            self.report(path, "task-multiple-modules", f"multiple module keys: {module_keys!r}")
            return
        if not module_keys:
            meaningful = set(task) - {"name", "vars", "tags", "when"}
            if not meaningful:
                self.report(path, "task-missing-module", "task names no module")
            return

        module_name = module_keys[0]
        self._validate_keywords(task, path)
        if module_name in ("action", "local_action"):
            return  # handled as keyword below
        spec = get_module(module_name)
        if spec is None:
            self.report(path, "module-unknown", f"unknown module {module_name!r}")
            return
        self._validate_args(spec, module_name, task[module_name], f"{path}.{module_name}")

    def _validate_keywords(self, task: dict, path: str) -> None:
        for key, value in task.items():
            if key == "name":
                if value is not None and not isinstance(value, str):
                    self.report(f"{path}.name", "name-type", "'name' must be a string")
            elif key == "register":
                if not isinstance(value, str) or not value.replace("_", "").isalnum():
                    self.report(f"{path}.register", "register-invalid", "'register' must be a variable name")
            elif key in ("loop", "with_items", "with_list"):
                if not isinstance(value, (list, str)) and value is not None:
                    self.report(f"{path}.{key}", "loop-type", f"{key!r} must be a list or template")
                if self.level == STRICT and key.startswith("with_"):
                    self.report(f"{path}.{key}", "deprecated-with-loop", f"{key!r} is a legacy loop form; use 'loop'")
            elif key in ("become", "ignore_errors", "run_once", "no_log", "check_mode"):
                if not isinstance(value, bool) and not _contains_template(value):
                    self.report(f"{path}.{key}", "keyword-type", f"{key!r} must be boolean")
            elif key in ("retries", "delay", "async", "poll", "throttle", "timeout"):
                if not isinstance(value, int) and not _contains_template(value):
                    self.report(f"{path}.{key}", "keyword-type", f"{key!r} must be an integer")
            elif key in ("action", "local_action") and self.level == STRICT:
                self.report(f"{path}.{key}", "historical-action", f"{key!r} indirection is a historical form")

    def _validate_args(self, spec: ModuleSpec, written_name: str, args: object, path: str) -> None:
        if args is None:
            if spec.required_parameters and self.level == STRICT and not spec.free_form:
                missing = ", ".join(p.name for p in spec.required_parameters)
                self.report(path, "args-missing-required", f"missing required option(s): {missing}")
            return
        if isinstance(args, str):
            if spec.free_form:
                return
            if looks_like_kv(args):
                if self.level == STRICT:
                    self.report(path, "historical-kv-args", "inline k=v arguments are a historical form")
                return
            self.report(path, "args-not-mapping", f"module {written_name!r} does not accept free-form arguments")
            return
        if not isinstance(args, dict):
            self.report(path, "args-type", f"module arguments must be a mapping, got {type(args).__name__}")
            return
        if spec.fqcn == "ansible.builtin.set_fact":
            # set_fact accepts arbitrary fact names as options.
            return
        for option, value in args.items():
            if not isinstance(option, str):
                self.report(path, "option-not-string", f"option {option!r} is not a string")
                continue
            parameter = spec.parameter(option)
            if parameter is None:
                if self.level == STRICT:
                    self.report(f"{path}.{option}", "args-unknown-option", f"unknown option {option!r} for {spec.fqcn}")
                continue
            if parameter.choices and not _contains_template(value):
                rendered = "yes" if value is True else "no" if value is False else value
                if not isinstance(rendered, str) or rendered not in parameter.choices:
                    if str(value) not in parameter.choices:
                        self.report(
                            f"{path}.{option}",
                            "args-bad-choice",
                            f"value {value!r} not in {parameter.choices}",
                        )
            elif parameter.type == "bool" and not isinstance(value, bool) and not _contains_template(value):
                self.report(f"{path}.{option}", "args-bad-type", f"option {option!r} must be boolean")
            elif parameter.type == "int" and not isinstance(value, int) and not _contains_template(value):
                self.report(f"{path}.{option}", "args-bad-type", f"option {option!r} must be an integer")
            elif parameter.type == "dict" and not isinstance(value, dict) and not _contains_template(value):
                self.report(f"{path}.{option}", "args-bad-type", f"option {option!r} must be a mapping")
        if self.level == STRICT:
            provided = set()
            for option in args:
                if isinstance(option, str):
                    parameter = spec.parameter(option)
                    provided.add(parameter.name if parameter else option)
            for parameter in spec.required_parameters:
                if parameter.name not in provided:
                    self.report(path, "args-missing-required", f"missing required option {parameter.name!r}")


def validate(data: object, level: str = STRICT) -> list[Violation]:
    """Validate a parsed Ansible document (playbook or task list).

    Returns the list of violations; an empty list means schema-correct at
    the requested level.
    """
    validator = _Validator(level)
    validator.validate_document(data)
    return validator.violations


def validate_task(data: object, level: str = STRICT) -> list[Violation]:
    """Validate a single task mapping."""
    validator = _Validator(level)
    if isinstance(data, dict) and any(key in BLOCK_KEYS for key in data):
        validator.validate_block(data, "$")
    else:
        validator.validate_task(data, "$")
    return validator.violations


def is_schema_correct(data: object, level: str = STRICT) -> bool:
    """Predicate form of :func:`validate`."""
    return not validate(data, level)
