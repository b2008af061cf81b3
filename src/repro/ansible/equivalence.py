"""Near-equivalent module groups for the Ansible Aware metric.

The paper: "There are some modules that are almost equivalent, e.g.
command/shell, copy/template, package/apt, dnf, yum.  Since they accept many
of the same arguments and in some cases can be exchanged, such module
differences are given a partial key score which is averaged with the score
of their arguments."

Groups are defined over FQCNs; membership is checked after FQCN
normalization.
"""

from __future__ import annotations

EQUIVALENCE_GROUPS: tuple[frozenset[str], ...] = (
    frozenset({"ansible.builtin.command", "ansible.builtin.shell"}),
    frozenset({"ansible.builtin.copy", "ansible.builtin.template"}),
    frozenset(
        {
            "ansible.builtin.package",
            "ansible.builtin.apt",
            "ansible.builtin.dnf",
            "ansible.builtin.yum",
        }
    ),
    frozenset({"ansible.builtin.service", "ansible.builtin.systemd"}),
    frozenset({"ansible.builtin.include_tasks", "ansible.builtin.import_tasks"}),
    frozenset({"ansible.builtin.include_role", "ansible.builtin.import_role"}),
    frozenset({"ansible.builtin.seboolean", "ansible.posix.seboolean"}),
    frozenset({"ansible.builtin.timezone", "community.general.timezone"}),
    frozenset({"ansible.builtin.alternatives", "community.general.alternatives"}),
)

# Partial credit granted to the module *key* when two different modules fall
# in the same equivalence group (1.0 would mean identical).
PARTIAL_MODULE_CREDIT = 0.5

_GROUP_BY_MODULE: dict[str, frozenset[str]] = {}
for _group in EQUIVALENCE_GROUPS:
    for _member in _group:
        _GROUP_BY_MODULE[_member] = _group


def are_equivalent(module_a: str, module_b: str) -> bool:
    """True when two (FQCN-normalized) modules are near-equivalent."""
    if module_a == module_b:
        return True
    group = _GROUP_BY_MODULE.get(module_a)
    return group is not None and module_b in group


def module_key_score(module_a: str, module_b: str) -> float:
    """Score for comparing two module *names*: 1 exact, partial if
    equivalent, 0 otherwise."""
    if module_a == module_b:
        return 1.0
    if are_equivalent(module_a, module_b):
        return PARTIAL_MODULE_CREDIT
    return 0.0
