"""Tests for repro.ansible.fqcn."""

from __future__ import annotations

import pytest

from repro.ansible.fqcn import resolve_fqcn, short_name


def is_fqcn(name: str) -> bool:
    """True when ``name`` has the ``namespace.collection.module`` shape."""
    parts = name.split(".")
    return len(parts) >= 3 and all(part.isidentifier() for part in parts)


class TestResolveFqcn:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("copy", "ansible.builtin.copy"),
            ("apt", "ansible.builtin.apt"),
            ("ansible.builtin.apt", "ansible.builtin.apt"),
            ("docker_container", "community.docker.docker_container"),
            ("k8s", "kubernetes.core.k8s"),
            ("vyos_config", "vyos.vyos.vyos_config"),
        ],
    )
    def test_resolution(self, name, expected):
        assert resolve_fqcn(name) == expected

    def test_unknown_passthrough(self):
        assert resolve_fqcn("my.custom.module") == "my.custom.module"
        assert resolve_fqcn("unknown_module") == "unknown_module"

    def test_idempotent(self):
        once = resolve_fqcn("copy")
        assert resolve_fqcn(once) == once


class TestShortName:
    def test_fqcn(self):
        assert short_name("ansible.builtin.copy") == "copy"

    def test_already_short(self):
        assert short_name("copy") == "copy"


class TestIsFqcn:
    @pytest.mark.parametrize("name", ["ansible.builtin.copy", "community.docker.docker_container"])
    def test_positive(self, name):
        assert is_fqcn(name)

    @pytest.mark.parametrize("name", ["copy", "a.b", "has space.b.c", ""])
    def test_negative(self, name):
        assert not is_fqcn(name)
