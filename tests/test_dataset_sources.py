"""Tests for repro.dataset.sources (source simulators + extraction)."""

from __future__ import annotations

from collections import Counter

from repro import yamlio
from repro.dataset.corpus import ANSIBLE, GENERIC
from repro.dataset.sources import (
    BigQuerySimulator,
    GalaxySimulator,
    GitSourceSimulator,
    RawFile,
    TABLE1_SOURCES,
    build_ansible_pretraining_corpus,
    build_galaxy_corpus,
    build_generic_pretraining_corpus,
    build_pile_corpus,
    extract_documents,
    is_ansible_repository,
    scaled_count,
)
from repro.utils.rng import SeededRng


class TestTable1Constants:
    def test_paper_counts(self):
        counts = {(s.source, s.yaml_type): s.paper_file_count for s in TABLE1_SOURCES}
        assert counts[("galaxy", ANSIBLE)] == 112_000
        assert counts[("gitlab", ANSIBLE)] == 64_000
        assert counts[("github+gbq", ANSIBLE)] == 1_100_000
        assert counts[("github+gbq", GENERIC)] == 2_200_000

    def test_usage_tags(self):
        assert {s.usage for s in TABLE1_SOURCES} == {"PT", "FT"}
        galaxy = next(s for s in TABLE1_SOURCES if s.source == "galaxy")
        assert galaxy.usage == "FT"

    def test_scaled_count(self):
        assert scaled_count(112_000, 0.001) == 112
        assert scaled_count(10, 0.0001) == 1  # floor of 1


class TestRepositoryFilter:
    def test_name_match(self):
        assert is_ansible_repository("ansible-deploy", "stuff")

    def test_description_match(self):
        assert is_ansible_repository("infra", "Ansible roles for infra")

    def test_case_insensitive(self):
        assert is_ansible_repository("ANSIBLE-x", "")

    def test_negative(self):
        assert not is_ansible_repository("terraform-config", "IaC modules")


class TestExtraction:
    def test_extension_filter(self):
        raw = [
            RawFile("repo/a.yml", "a: 1\n", "ansible-x", "", "github"),
            RawFile("repo/README.md", "# readme", "ansible-x", "", "github"),
            RawFile("repo/b.yaml", "b: 2\n", "ansible-x", "", "github"),
        ]
        corpus = extract_documents(raw, ANSIBLE)
        assert len(corpus) == 2

    def test_validity_filter(self):
        raw = [
            RawFile("r/a.yml", "a: [unclosed\n", "ansible-x", "", "github"),
            RawFile("r/b.yml", "ok: 1\n", "ansible-x", "", "github"),
            RawFile("r/c.yml", "x: &anchor 1\n", "ansible-x", "", "github"),
        ]
        corpus = extract_documents(raw, ANSIBLE)
        assert [d.content for d in corpus] == ["ok: 1\n"]

    def test_repo_filter(self):
        raw = [
            RawFile("r/a.yml", "a: 1\n", "terraform-x", "nothing", "github"),
            RawFile("r/b.yml", "b: 1\n", "x", "Ansible playbooks", "github"),
        ]
        corpus = extract_documents(raw, ANSIBLE, require_ansible_repo=True)
        assert len(corpus) == 1


class TestSimulators:
    def test_git_simulator_produces_requested_volume(self):
        files = GitSourceSimulator("github", SeededRng(0)).crawl(40)
        yaml_files = [f for f in files if f.path.endswith((".yml", ".yaml"))]
        assert len(yaml_files) >= 40

    def test_git_simulator_includes_noise(self):
        files = GitSourceSimulator("github", SeededRng(1)).crawl(150)
        contents = [f.content for f in files]
        assert len(set(contents)) < len(contents)  # duplicates exist
        assert any(not yamlio.is_valid(c) for c in contents)  # invalid YAML exists
        assert any(f.path.endswith(".md") for f in files)  # non-YAML exists

    def test_bigquery_mix(self):
        files = BigQuerySimulator(SeededRng(2)).crawl(n_ansible=5, n_generic=10)
        assert len(files) == 15

    def test_galaxy_simulator_clean(self):
        files = GalaxySimulator(SeededRng(3)).crawl(30)
        assert len(files) == 30
        assert all(yamlio.is_valid(f.content) for f in files)
        assert all(f.kind in ("playbook", "tasks") for f in files)


class TestCorpusBuilders:
    def test_galaxy_corpus(self):
        corpus = build_galaxy_corpus(SeededRng(4), scale=0.0005)
        assert len(corpus) >= 40
        assert all(d.yaml_type == ANSIBLE for d in corpus)
        assert set(corpus.counts_by_kind()) <= {"playbook", "tasks"}

    def test_ansible_pretraining_sources(self):
        corpus = build_ansible_pretraining_corpus(SeededRng(5), scale=0.00005)
        sources = set(corpus.counts_by_source())
        assert sources <= {"github", "gitlab"}
        assert len(sources) == 2

    def test_generic_pretraining(self):
        corpus = build_generic_pretraining_corpus(SeededRng(6), scale=0.00005)
        assert all(d.yaml_type == GENERIC for d in corpus)

    def test_pile_mostly_prose(self):
        corpus = build_pile_corpus(SeededRng(7), n_documents=300)
        counts = Counter(document.yaml_type for document in corpus)
        assert counts.get("natural", 0) > counts.get("code", 0) > counts.get(ANSIBLE, 0)

    def test_deterministic(self):
        a = build_galaxy_corpus(SeededRng(8), scale=0.0003)
        b = build_galaxy_corpus(SeededRng(8), scale=0.0003)
        assert [d.content for d in a] == [d.content for d in b]

    def test_pretraining_corpora_deduplicated(self):
        corpus = build_ansible_pretraining_corpus(SeededRng(9), scale=0.0001)
        contents = [d.content for d in corpus]
        assert len(contents) == len(set(contents))
