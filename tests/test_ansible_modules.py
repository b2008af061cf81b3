"""Tests for repro.ansible.modules (the module catalog)."""

from __future__ import annotations

import pytest

from repro.ansible.keywords import TASK_KEYWORDS
from repro.ansible.modules import CATALOG, get_module


class TestCatalogIntegrity:
    def test_catalog_is_reasonably_large(self):
        assert len(CATALOG) >= 80

    def test_fqcns_unique(self):
        fqcns = [spec.fqcn for spec in CATALOG]
        assert len(fqcns) == len(set(fqcns))

    def test_fqcn_shape(self):
        for spec in CATALOG:
            assert spec.fqcn.count(".") >= 2, spec.fqcn

    def test_every_module_has_description(self):
        for spec in CATALOG:
            assert spec.description

    def test_parameter_names_unique_per_module(self):
        for spec in CATALOG:
            names = [parameter.name for parameter in spec.parameters]
            assert len(names) == len(set(names)), spec.fqcn

    def test_no_module_name_collides_with_task_keywords(self):
        for spec in CATALOG:
            assert spec.short_name not in TASK_KEYWORDS, spec.fqcn

    def test_parameter_types_valid(self):
        valid = {"str", "int", "bool", "list", "dict", "path"}
        for spec in CATALOG:
            for parameter in spec.parameters:
                assert parameter.type in valid, f"{spec.fqcn}.{parameter.name}"

    def test_choices_are_strings(self):
        for spec in CATALOG:
            for parameter in spec.parameters:
                assert all(isinstance(choice, str) for choice in parameter.choices)

    def test_free_form_modules(self):
        for short in ("command", "shell", "raw", "script"):
            assert get_module(short).free_form
        assert not get_module("apt").free_form


class TestLookup:
    def test_by_fqcn(self):
        assert get_module("ansible.builtin.apt").short_name == "apt"

    def test_builtin_by_short_name(self):
        assert get_module("copy").fqcn == "ansible.builtin.copy"

    def test_legacy_alias(self):
        assert get_module("docker_container").fqcn == "community.docker.docker_container"
        assert get_module("firewalld").fqcn == "ansible.posix.firewalld"

    def test_unknown_returns_none(self):
        assert get_module("no.such.module") is None
        assert get_module("made_up_module") is None

    def test_parameter_lookup_with_alias(self):
        apt = get_module("apt")
        assert apt.parameter("pkg").name == "name"
        assert apt.parameter("name").name == "name"
        assert apt.parameter("bogus") is None

    def test_required_parameters(self):
        copy = get_module("copy")
        assert "dest" in [parameter.name for parameter in copy.required_parameters]

    def test_collection_property(self):
        assert get_module("ansible.builtin.apt").collection == "ansible.builtin"
        assert get_module("kubernetes.core.k8s").collection == "kubernetes.core"


class TestCategories:
    def test_categories_nonempty(self):
        categories = {spec.category for spec in CATALOG}
        assert "packaging" in categories
        assert "services" in categories

    def test_modules_in_category(self):
        packaging = [spec for spec in CATALOG if spec.category == "packaging"]
        assert any(spec.short_name == "apt" for spec in packaging)

    def test_all_modules_is_catalog(self):
        assert all(get_module(spec.fqcn) is spec for spec in CATALOG)

    @pytest.mark.parametrize("fqcn", ["vyos.vyos.vyos_facts", "vyos.vyos.vyos_config"])
    def test_paper_fig2_modules_present(self, fqcn):
        """The VyOS modules from the paper's Fig. 2 must resolve."""
        assert get_module(fqcn) is not None
