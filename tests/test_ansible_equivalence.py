"""Tests for repro.ansible.equivalence."""

from __future__ import annotations

import pytest

from repro.ansible.equivalence import (
    EQUIVALENCE_GROUPS,
    PARTIAL_MODULE_CREDIT,
    are_equivalent,
    module_key_score,
)
from repro.ansible.modules import CATALOG, get_module


class TestGroups:
    def test_paper_named_groups_present(self):
        """The paper names command/shell, copy/template, package/apt/dnf/yum."""
        flattened = [frozenset(group) for group in EQUIVALENCE_GROUPS]
        assert frozenset({"ansible.builtin.command", "ansible.builtin.shell"}) in flattened
        assert frozenset({"ansible.builtin.copy", "ansible.builtin.template"}) in flattened
        assert (
            frozenset(
                {
                    "ansible.builtin.package",
                    "ansible.builtin.apt",
                    "ansible.builtin.dnf",
                    "ansible.builtin.yum",
                }
            )
            in flattened
        )

    def test_groups_disjoint(self):
        seen: set[str] = set()
        for group in EQUIVALENCE_GROUPS:
            assert not (seen & group)
            seen |= group

    def test_all_members_in_catalog(self):
        for group in EQUIVALENCE_GROUPS:
            for member in group:
                assert get_module(member) is not None, member


class TestScoring:
    def test_identity(self):
        assert module_key_score("ansible.builtin.apt", "ansible.builtin.apt") == 1.0

    def test_equivalent_partial(self):
        assert module_key_score("ansible.builtin.apt", "ansible.builtin.yum") == PARTIAL_MODULE_CREDIT

    def test_unrelated_zero(self):
        assert module_key_score("ansible.builtin.apt", "ansible.builtin.debug") == 0.0

    def test_symmetry(self):
        pairs = [("ansible.builtin.copy", "ansible.builtin.template"), ("ansible.builtin.apt", "ansible.builtin.user")]
        for a, b in pairs:
            assert module_key_score(a, b) == module_key_score(b, a)
            assert are_equivalent(a, b) == are_equivalent(b, a)

    def test_are_equivalent_identity(self):
        assert are_equivalent("x.y.z", "x.y.z")

    def test_equivalence_group_singleton_for_unknown(self):
        assert are_equivalent("my.weird.module", "my.weird.module")
        assert not any(are_equivalent("my.weird.module", spec.fqcn) for spec in CATALOG)

    @pytest.mark.parametrize("member", ["ansible.builtin.command", "ansible.builtin.shell"])
    def test_equivalence_group_membership(self, member):
        assert are_equivalent(member, "ansible.builtin.command")
        assert are_equivalent(member, "ansible.builtin.shell")
