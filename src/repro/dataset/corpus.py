"""Corpus containers: documents with provenance, plus summary statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import EmptyCorpusError
from repro.utils.text import stable_hash

ANSIBLE = "ansible"
GENERIC = "generic"
NATURAL = "natural"
CODE = "code"


@dataclass(frozen=True)
class Document:
    """One corpus file.

    Attributes:
        identifier: unique id, conventionally ``source/path``.
        source: data source name (``galaxy``, ``github``, ``gitlab``,
            ``bigquery``, ``pile``, ...).
        yaml_type: content family — :data:`ANSIBLE`, :data:`GENERIC`,
            :data:`NATURAL` or :data:`CODE`.
        content: the raw text.
        kind: finer tag for Ansible files (``playbook`` / ``tasks``) or the
            generator name for others; preserves "the interplay between
            Ansible roles, collections, tasks and playbooks".
    """

    identifier: str
    source: str
    yaml_type: str
    content: str
    kind: str = ""

    @property
    def content_hash(self) -> str:
        return stable_hash(self.content)


@dataclass
class Corpus:
    """An ordered collection of documents with provenance-aware stats."""

    name: str
    documents: list[Document] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def add(self, document: Document) -> None:
        self.documents.append(document)

    def extend(self, documents: list[Document]) -> None:
        self.documents.extend(documents)

    def texts(self) -> list[str]:
        return [document.content for document in self.documents]

    def merged_with(self, other: "Corpus", name: str | None = None) -> "Corpus":
        return Corpus(
            name=name or f"{self.name}+{other.name}",
            documents=[*self.documents, *other.documents],
        )

    def require_nonempty(self) -> "Corpus":
        if not self.documents:
            raise EmptyCorpusError(f"corpus {self.name!r} is empty")
        return self

    # -- statistics -----------------------------------------------------------

    def counts_by_source(self) -> dict[str, int]:
        return dict(Counter(document.source for document in self.documents))

    def counts_by_kind(self) -> dict[str, int]:
        return dict(Counter(document.kind for document in self.documents if document.kind))
