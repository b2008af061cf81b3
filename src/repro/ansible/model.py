"""Structured data model over parsed Ansible YAML.

The dataset pipeline, metrics and evaluation harness all reason about YAML
*values* (dicts/lists), but repeatedly need the same structural questions
answered: which key is the module, what is the task's name, is this list a
playbook or a bare task list, how many tasks does a play hold.  This module
centralizes those.

Canonical key order follows the paper's observation that "the usual key
order for a task is: name, module, keyword(s)"; :func:`Task.to_data`
re-serializes in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ansible.fqcn import resolve_fqcn
from repro.ansible.keywords import (
    BLOCK_KEYS,
    PLAY_TASK_SECTIONS,
    TASK_KEYWORDS,
    looks_like_play,
)
from repro.errors import AnsibleError


@dataclass
class Task:
    """One Ansible task.

    Attributes:
        name: value of the ``name:`` field, or None.
        module: the module key exactly as written (may be short or FQCN).
        args: the module's argument value — a dict, a free-form string, or
            None.
        keywords: remaining task-level directives in source order.
    """

    name: str | None
    module: str | None
    args: object
    keywords: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_data(cls, data: object) -> "Task":
        """Build a Task from a parsed YAML mapping.

        The module key is the first key that is not a task keyword.  A
        mapping with zero module keys yields ``module=None`` (the schema
        validator reports it); multiple candidate module keys raise
        :class:`AnsibleError` since the structure is ambiguous.
        """
        if not isinstance(data, dict):
            raise AnsibleError(f"task must be a mapping, got {type(data).__name__}")
        name: str | None = None
        module: str | None = None
        args: object = None
        keywords: dict[str, object] = {}
        module_candidates = [key for key in data if isinstance(key, str) and key not in TASK_KEYWORDS]
        if len(module_candidates) > 1:
            raise AnsibleError(
                f"ambiguous task: multiple module candidates {module_candidates!r}"
            )
        for key, value in data.items():
            if key == "name":
                name = value if isinstance(value, str) else str(value) if value is not None else None
            elif isinstance(key, str) and key in TASK_KEYWORDS:
                keywords[key] = value
            else:
                module = key if isinstance(key, str) else str(key)
                args = value
        return cls(name=name, module=module, args=args, keywords=keywords)

    def to_data(self) -> dict[str, object]:
        """Serialize back to a mapping in canonical name/module/keyword order."""
        data: dict[str, object] = {}
        if self.name is not None:
            data["name"] = self.name
        if self.module is not None:
            data[self.module] = self.args
        for key, value in self.keywords.items():
            if key != "name":
                data[key] = value
        return data

    @property
    def fqcn(self) -> str | None:
        """FQCN-normalized module reference (None for keyword-only tasks)."""
        if self.module is None:
            return None
        return resolve_fqcn(self.module)


@dataclass
class Block:
    """A ``block:`` grouping of tasks with optional rescue/always sections."""

    name: str | None
    block: list["Task | Block"]
    rescue: list["Task | Block"] = field(default_factory=list)
    always: list["Task | Block"] = field(default_factory=list)
    keywords: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_data(cls, data: dict) -> "Block":
        if not isinstance(data, dict) or "block" not in data:
            raise AnsibleError("not a block mapping")
        name = data.get("name")
        keywords = {
            key: value
            for key, value in data.items()
            if key not in BLOCK_KEYS and key != "name"
        }
        return cls(
            name=name,
            block=[parse_task_entry(entry) for entry in data.get("block") or []],
            rescue=[parse_task_entry(entry) for entry in data.get("rescue") or []],
            always=[parse_task_entry(entry) for entry in data.get("always") or []],
            keywords=keywords,
        )

    def to_data(self) -> dict[str, object]:
        data: dict[str, object] = {}
        if self.name is not None:
            data["name"] = self.name
        data["block"] = [entry.to_data() for entry in self.block]
        if self.rescue:
            data["rescue"] = [entry.to_data() for entry in self.rescue]
        if self.always:
            data["always"] = [entry.to_data() for entry in self.always]
        data.update(self.keywords)
        return data

    def flat_tasks(self) -> list[Task]:
        """All leaf tasks in block/rescue/always order."""
        leaves: list[Task] = []
        for section in (self.block, self.rescue, self.always):
            for entry in section:
                if isinstance(entry, Block):
                    leaves.extend(entry.flat_tasks())
                else:
                    leaves.append(entry)
        return leaves

def parse_task_entry(data: object) -> Task | Block:
    """Parse one entry of a task list into a Task or a Block."""
    if isinstance(data, dict) and "block" in data:
        return Block.from_data(data)
    return Task.from_data(data)


@dataclass
class Play:
    """One play of a playbook."""

    name: str | None
    hosts: object
    tasks: list[Task | Block] = field(default_factory=list)
    pre_tasks: list[Task | Block] = field(default_factory=list)
    post_tasks: list[Task | Block] = field(default_factory=list)
    handlers: list[Task | Block] = field(default_factory=list)
    roles: list[object] = field(default_factory=list)
    keywords: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_data(cls, data: object) -> "Play":
        if not isinstance(data, dict):
            raise AnsibleError(f"play must be a mapping, got {type(data).__name__}")
        sections = {section: [] for section in PLAY_TASK_SECTIONS}
        for section in PLAY_TASK_SECTIONS:
            raw_section = data.get(section)
            if raw_section:
                if not isinstance(raw_section, list):
                    raise AnsibleError(f"play section {section!r} must be a list")
                sections[section] = [parse_task_entry(entry) for entry in raw_section]
        keywords = {
            key: value
            for key, value in data.items()
            if key not in (*PLAY_TASK_SECTIONS, "name", "hosts", "roles")
        }
        return cls(
            name=data.get("name"),
            hosts=data.get("hosts"),
            tasks=sections["tasks"],
            pre_tasks=sections["pre_tasks"],
            post_tasks=sections["post_tasks"],
            handlers=sections["handlers"],
            roles=list(data.get("roles") or []),
            keywords=keywords,
        )

    def to_data(self) -> dict[str, object]:
        data: dict[str, object] = {}
        if self.name is not None:
            data["name"] = self.name
        if self.hosts is not None:
            data["hosts"] = self.hosts
        data.update(self.keywords)
        if self.roles:
            data["roles"] = self.roles
        if self.pre_tasks:
            data["pre_tasks"] = [entry.to_data() for entry in self.pre_tasks]
        if self.tasks:
            data["tasks"] = [entry.to_data() for entry in self.tasks]
        if self.post_tasks:
            data["post_tasks"] = [entry.to_data() for entry in self.post_tasks]
        if self.handlers:
            data["handlers"] = [entry.to_data() for entry in self.handlers]
        return data

    def all_tasks(self) -> list[Task]:
        """Leaf tasks across every section, play order."""
        leaves: list[Task] = []
        for section in (self.pre_tasks, self.tasks, self.post_tasks, self.handlers):
            for entry in section:
                if isinstance(entry, Block):
                    leaves.extend(entry.flat_tasks())
                else:
                    leaves.append(entry)
        return leaves


@dataclass
class Playbook:
    """A playbook: an ordered list of plays."""

    plays: list[Play]

    @classmethod
    def from_data(cls, data: object) -> "Playbook":
        if not isinstance(data, list):
            raise AnsibleError(f"playbook must be a list of plays, got {type(data).__name__}")
        return cls(plays=[Play.from_data(play) for play in data])

    def to_data(self) -> list[dict[str, object]]:
        return [play.to_data() for play in self.plays]

    def all_tasks(self) -> list[Task]:
        leaves: list[Task] = []
        for play in self.plays:
            leaves.extend(play.all_tasks())
        return leaves


@dataclass
class TaskList:
    """A bare task list, as found in a role's ``tasks/main.yml``."""

    entries: list[Task | Block]

    @classmethod
    def from_data(cls, data: object) -> "TaskList":
        if not isinstance(data, list):
            raise AnsibleError(f"task list must be a list, got {type(data).__name__}")
        return cls(entries=[parse_task_entry(entry) for entry in data])

    def to_data(self) -> list[dict[str, object]]:
        return [entry.to_data() for entry in self.entries]

    def flat_tasks(self) -> list[Task]:
        leaves: list[Task] = []
        for entry in self.entries:
            if isinstance(entry, Block):
                leaves.extend(entry.flat_tasks())
            else:
                leaves.append(entry)
        return leaves


def classify_snippet(data: object) -> str:
    """Classify parsed YAML as ``"playbook"``, ``"tasks"`` or ``"other"``.

    The dataset pipeline applies this after YAML validation to decide how a
    file enters the fine-tuning set ("we extracted only playbooks containing
    tasks, and lists of tasks from roles").
    """
    if not isinstance(data, list) or not data:
        return "other"
    if not all(isinstance(entry, dict) for entry in data):
        return "other"
    if all(looks_like_play(entry) for entry in data):
        return "playbook"
    if any(looks_like_play(entry) for entry in data):
        return "other"
    try:
        TaskList.from_data(data)
    except AnsibleError:
        return "other"
    return "tasks"
