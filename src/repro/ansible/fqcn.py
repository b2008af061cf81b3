"""Fully-qualified collection name (FQCN) resolution.

Galaxy content predating Ansible 2.10 names modules by bare short name
(``copy``); modern content uses FQCNs (``ansible.builtin.copy``).  The
Ansible Aware metric normalizes both spellings to the FQCN before comparing
("when comparing the module names they are first replaced by their fully
qualified collection name", §Evaluation Metrics), and the corpus synthesizer
emits a mix of both to reproduce real data.
"""

from __future__ import annotations

from repro.ansible.modules import get_module


def resolve_fqcn(name: str) -> str:
    """Normalize a module reference to its FQCN.

    Unknown names pass through unchanged — the metric still compares them
    textually, and the schema validator reports them separately.

    >>> resolve_fqcn("copy")
    'ansible.builtin.copy'
    >>> resolve_fqcn("ansible.builtin.copy")
    'ansible.builtin.copy'
    >>> resolve_fqcn("not.a.module")
    'not.a.module'
    """
    spec = get_module(name)
    if spec is None:
        return name
    return spec.fqcn


def short_name(name: str) -> str:
    """The short (collection-less) form of a module reference."""
    return name.rsplit(".", 1)[-1]
