"""Simulated data sources and the extraction pipeline over them.

Mirrors the paper's dataset-construction section: "We use data extraction
logic specific to each data source, while querying their respective API
endpoints to extract YAML files and relevant associated metadata.  For
Google BigQuery, we downloaded every file with a valid YAML extension
('.yml', '.yaml').  For GitHub and GitLab, we considered every repository
containing 'Ansible' either in the name or the description."

Each source simulator produces a stream of *raw files* (path + content +
repository metadata), including realistic noise: exact duplicates, files
that are not valid YAML, files using YAML features outside the supported
subset, and non-YAML files that the extension filter must drop.  The
extraction pipeline then applies the paper's filters and tags the survivors.

Paper-scale file counts (Table 1) are reproduced through a ``scale``
parameter: ``count = max(1, round(paper_count * scale))``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import yamlio
from repro.dataset import textgen
from repro.dataset.corpus import ANSIBLE, CODE, Corpus, Document, GENERIC, NATURAL
from repro.dataset.dedup import dedup_documents
from repro.dataset.generic_yaml import generic_yaml_value
from repro.dataset.synthesis import AnsibleSynthesizer, GALAXY_STYLE, GITHUB_STYLE
from repro.utils.rng import SeededRng


@dataclass(frozen=True)
class SourceSpec:
    """One row of the paper's Table 1."""

    source: str
    paper_file_count: int
    yaml_type: str
    usage: str  # "PT" or "FT"


# The paper's Table 1, verbatim.
TABLE1_SOURCES: tuple[SourceSpec, ...] = (
    SourceSpec("galaxy", 112_000, ANSIBLE, "FT"),
    SourceSpec("gitlab", 64_000, ANSIBLE, "PT"),
    SourceSpec("github+gbq", 1_100_000, ANSIBLE, "PT"),
    SourceSpec("github+gbq", 2_200_000, GENERIC, "PT"),
)


def scaled_count(paper_count: int, scale: float) -> int:
    """Scale a paper file count down to laptop size (at least 1)."""
    return max(1, round(paper_count * scale))


@dataclass(frozen=True)
class RawFile:
    """A file as returned by a (simulated) source API."""

    path: str
    content: str
    repository: str
    repository_description: str
    source: str
    kind: str = ""


# ---------------------------------------------------------------------------
# Raw-file simulators
# ---------------------------------------------------------------------------

_NOISE_INVALID_YAML = "tasks:\n  - name: broken\n   apt: {name: [unclosed\n"
_NOISE_ANCHORS = "defaults: &defaults\n  state: present\ntask:\n  <<: *defaults\n"
_REPO_WORDS = ("infra", "deploy", "config", "ops", "platform", "site", "cloud")


def _ansible_repo_name(rng: SeededRng) -> tuple[str, str]:
    """Repository (name, description); most mention Ansible, some only in
    the description — both must be picked up by the filter."""
    word = rng.choice(_REPO_WORDS)
    if rng.bernoulli(0.7):
        return f"ansible-{word}-{rng.randint(1, 999)}", f"{word} automation"
    return f"{word}-{rng.randint(1, 999)}", f"Ansible roles for {word}"


class GitSourceSimulator:
    """GitHub- or GitLab-style source: repositories with metadata, crawled
    via a repository-name/description filter."""

    def __init__(self, source: str, rng: SeededRng, style=GITHUB_STYLE):
        self.source = source
        self.rng = rng
        self.synthesizer = AnsibleSynthesizer(rng.child("ansible"), style)

    def crawl(self, n_ansible_files: int) -> list[RawFile]:
        """Produce raw files from repositories matching the Ansible filter.

        Includes ~6% exact duplicates, ~4% invalid YAML, ~2% files using
        unsupported YAML features, and ~5% non-YAML files.
        """
        files: list[RawFile] = []
        produced = 0
        repo_index = 0
        while produced < n_ansible_files:
            repo, description = _ansible_repo_name(self.rng)
            repo_index += 1
            files_in_repo = self.rng.randint(1, 6)
            for file_index in range(files_in_repo):
                if produced >= n_ansible_files:
                    break
                roll = self.rng.random()
                if roll < 0.04:
                    content = _NOISE_INVALID_YAML
                    kind = "invalid"
                elif roll < 0.06:
                    content = _NOISE_ANCHORS
                    kind = "anchors"
                elif roll < 0.11:
                    files.append(
                        RawFile(
                            path=f"{repo}/README.md",
                            content="# " + repo + "\n" + textgen.natural_paragraph(self.rng),
                            repository=repo,
                            repository_description=description,
                            source=self.source,
                        )
                    )
                    continue
                elif roll < 0.17 and files:
                    # exact duplicate of an earlier file (forks, vendoring)
                    original = self.rng.choice(files)
                    files.append(
                        RawFile(
                            path=f"{repo}/vendored/{file_index}.yml",
                            content=original.content,
                            repository=repo,
                            repository_description=description,
                            source=self.source,
                            kind=original.kind,
                        )
                    )
                    produced += 1
                    continue
                else:
                    generated = self.synthesizer.file()
                    content = yamlio.dumps(generated.data)
                    kind = generated.kind
                extension = self.rng.choice((".yml", ".yml", ".yaml"))
                files.append(
                    RawFile(
                        path=f"{repo}/{'playbooks' if kind == 'playbook' else 'roles/main/tasks'}/{file_index}{extension}",
                        content=content,
                        repository=repo,
                        repository_description=description,
                        source=self.source,
                        kind=kind,
                    )
                )
                produced += 1
        return files


class BigQuerySimulator:
    """BigQuery-style source: every file with a YAML extension, mixed
    Ansible and generic content."""

    def __init__(self, rng: SeededRng):
        self.rng = rng
        self.synthesizer = AnsibleSynthesizer(rng.child("ansible"), GITHUB_STYLE)

    def crawl(self, n_ansible: int, n_generic: int) -> list[RawFile]:
        files: list[RawFile] = []
        for index in range(n_ansible):
            generated = self.synthesizer.file()
            files.append(
                RawFile(
                    path=f"gbq/ansible/{index}.yml",
                    content=yamlio.dumps(generated.data),
                    repository="bigquery-dump",
                    repository_description="public dataset",
                    source="bigquery",
                    kind=generated.kind,
                )
            )
        for index in range(n_generic):
            roll = self.rng.random()
            if roll < 0.03:
                content = _NOISE_INVALID_YAML
                kind = "invalid"
            else:
                content = yamlio.dumps(generic_yaml_value(self.rng))
                kind = "generic"
            files.append(
                RawFile(
                    path=f"gbq/generic/{index}{self.rng.choice(('.yml', '.yaml'))}",
                    content=content,
                    repository="bigquery-dump",
                    repository_description="public dataset",
                    source="bigquery",
                    kind=kind,
                )
            )
        return self.rng.shuffled(files)


class GalaxySimulator:
    """Ansible Galaxy: community-vetted roles and collections — cleaner
    style, task lists and small playbooks."""

    def __init__(self, rng: SeededRng):
        self.rng = rng
        self.synthesizer = AnsibleSynthesizer(rng.child("ansible"), GALAXY_STYLE)

    def crawl(self, n_files: int) -> list[RawFile]:
        files: list[RawFile] = []
        for index in range(n_files):
            generated = self.synthesizer.file()
            namespace = f"community{self.rng.randint(1, 40)}"
            role = f"{generated.scenario}_{self.rng.randint(1, 500)}"
            subpath = "playbooks/site.yml" if generated.kind == "playbook" else "tasks/main.yml"
            files.append(
                RawFile(
                    path=f"{namespace}/{role}/{subpath}",
                    content=yamlio.dumps(generated.data),
                    repository=f"{namespace}.{role}",
                    repository_description="galaxy role",
                    source="galaxy",
                    kind=generated.kind,
                )
            )
        return files


# ---------------------------------------------------------------------------
# Extraction pipeline
# ---------------------------------------------------------------------------

_YAML_EXTENSIONS = (".yml", ".yaml")


def is_ansible_repository(name: str, description: str) -> bool:
    """The paper's repository filter: 'Ansible' in the name or description."""
    return "ansible" in name.lower() or "ansible" in description.lower()


def extract_documents(raw_files: list[RawFile], yaml_type: str, require_ansible_repo: bool = False) -> Corpus:
    """Apply the extraction filters and tag survivors as Documents.

    Filters: YAML extension, repository filter (for git sources), and YAML
    validity under the engine's subset.  Classification tags preserve the
    playbook/tasks distinction.
    """
    corpus = Corpus(name=f"extracted-{yaml_type}")
    for index, raw in enumerate(raw_files):
        if not raw.path.endswith(_YAML_EXTENSIONS):
            continue
        if require_ansible_repo and not is_ansible_repository(raw.repository, raw.repository_description):
            continue
        if not yamlio.is_valid(raw.content):
            continue
        corpus.add(
            Document(
                identifier=f"{raw.source}/{raw.path}#{index}",
                source=raw.source,
                yaml_type=yaml_type,
                content=raw.content,
                kind=raw.kind,
            )
        )
    return corpus


# ---------------------------------------------------------------------------
# Corpus builders (the public entry points)
# ---------------------------------------------------------------------------

def build_galaxy_corpus(rng: SeededRng, scale: float = 0.002) -> Corpus:
    """The fine-tuning corpus (Table 1 row: Galaxy, 112K, Ansible, FT)."""
    n_files = scaled_count(112_000, scale)
    raw = GalaxySimulator(rng.child("galaxy")).crawl(n_files)
    corpus = extract_documents(raw, ANSIBLE)
    corpus.name = "galaxy"
    return dedup_documents(corpus)


def build_ansible_pretraining_corpus(rng: SeededRng, scale: float = 0.0005) -> Corpus:
    """Ansible-YAML pretraining mix: GitLab + GitHub + BigQuery rows."""
    gitlab_files = GitSourceSimulator("gitlab", rng.child("gitlab")).crawl(scaled_count(64_000, scale))
    github_files = GitSourceSimulator("github", rng.child("github")).crawl(scaled_count(1_100_000, scale))
    gitlab = extract_documents(gitlab_files, ANSIBLE, require_ansible_repo=True)
    github = extract_documents(github_files, ANSIBLE, require_ansible_repo=True)
    merged = gitlab.merged_with(github, name="ansible-pretraining")
    return dedup_documents(merged)


def build_generic_pretraining_corpus(rng: SeededRng, scale: float = 0.0005) -> Corpus:
    """Generic-YAML pretraining mix (GitHub + BigQuery, 2.2M row)."""
    raw = BigQuerySimulator(rng.child("bigquery")).crawl(
        n_ansible=0, n_generic=scaled_count(2_200_000, scale)
    )
    corpus = extract_documents(raw, GENERIC)
    corpus.name = "generic-pretraining"
    return dedup_documents(corpus)


def build_pile_corpus(rng: SeededRng, n_documents: int = 400) -> Corpus:
    """The Pile stand-in: mostly prose, a sliver of code and YAML.

    The paper notes the Pile holds only ~25K Ansible and ~600K generic YAML
    files among hundreds of millions of documents; the mix here keeps YAML
    similarly rare (~1% Ansible, ~4% generic).
    """
    child = rng.child("pile")
    synthesizer = AnsibleSynthesizer(child.child("ansible"), GITHUB_STYLE)
    corpus = Corpus(name="pile")
    for index in range(n_documents):
        roll = child.random()
        if roll < 0.01:
            content = yamlio.dumps(synthesizer.file().data)
            yaml_type, kind = ANSIBLE, "ansible"
        elif roll < 0.05:
            content = yamlio.dumps(generic_yaml_value(child))
            yaml_type, kind = GENERIC, "generic"
        elif roll < 0.25:
            content = textgen.code_snippet(child)
            yaml_type, kind = CODE, "code"
        else:
            content = textgen.natural_paragraph(child)
            yaml_type, kind = NATURAL, "prose"
        corpus.add(Document(f"pile/{index}", "pile", yaml_type, content, kind))
    return corpus


def build_bigquery_code_corpus(rng: SeededRng, n_documents: int = 300) -> Corpus:
    """BigQuery multi-language code stand-in."""
    child = rng.child("bigquery-code")
    corpus = Corpus(name="bigquery-code")
    for index in range(n_documents):
        corpus.add(Document(f"bq-code/{index}", "bigquery", CODE, textgen.code_snippet(child), "code"))
    return corpus


def build_bigpython_corpus(rng: SeededRng, n_documents: int = 200) -> Corpus:
    """BigPython stand-in: Python only."""
    child = rng.child("bigpython")
    corpus = Corpus(name="bigpython")
    for index in range(n_documents):
        corpus.add(Document(f"bigpython/{index}", "bigpython", CODE, textgen.python_snippet(child), "python"))
    return corpus
