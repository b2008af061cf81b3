"""Corpus statistics and block synthesis, kept beside their tests.

The paper reports pretraining volume in tokens; :func:`corpus_stats` does
the same accounting for a corpus.  :func:`task_list_with_block` wraps a
synthesized task list's middle in ``block`` / ``rescue`` / ``always`` — the
paper's named future-work item — to feed the data model and the schema.
No experiment runs either, so both live here rather than in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import ansible, yamlio
from repro.dataset.corpus import Corpus
from repro.dataset.synthesis import SCENARIOS, AnsibleSynthesizer, GeneratedFile
from repro.tokenizer.bpe import BpeTokenizer
from repro.utils.rng import SeededRng
from repro.utils.tables import format_table


@dataclass(frozen=True)
class CorpusStats:
    """Aggregate statistics for one corpus."""

    name: str
    files: int
    characters: int
    tokens: int
    mean_tokens_per_file: float

    @property
    def compression_ratio(self) -> float:
        """Characters per token (the tokenizer's effectiveness)."""
        return self.characters / self.tokens if self.tokens else 0.0


def corpus_stats(corpus: Corpus, tokenizer: BpeTokenizer, sample_limit: int | None = None) -> CorpusStats:
    """Stats, optionally measured on the first ``sample_limit`` files and
    extrapolated linearly."""
    documents = corpus.documents
    measured = documents if sample_limit is None else documents[:sample_limit]
    characters_measured = sum(len(document.content) for document in measured)
    tokens_measured = sum(
        len(tokenizer.encode(document.content, allow_special=False)) for document in measured
    )
    total_characters = sum(len(document.content) for document in documents)
    if measured and len(measured) < len(documents):
        tokens = int(tokens_measured * total_characters / max(1, characters_measured))
    else:
        tokens = tokens_measured
    return CorpusStats(
        name=corpus.name,
        files=len(documents),
        characters=total_characters,
        tokens=tokens,
        mean_tokens_per_file=tokens / len(documents) if documents else 0.0,
    )


def stats_by_source(corpus: Corpus, tokenizer: BpeTokenizer, sample_limit: int = 200) -> list[CorpusStats]:
    """Per-source stats rows, ordered by descending token count."""
    rows = [
        corpus_stats(
            Corpus(corpus.name, [document for document in corpus if document.source == source]),
            tokenizer,
            sample_limit,
        )
        for source in sorted(corpus.counts_by_source())
    ]
    return sorted(rows, key=lambda stats: -stats.tokens)


def render_stats_table(rows: list[CorpusStats]) -> str:
    return format_table(
        ["Corpus", "Files", "Characters", "Tokens", "Tokens/File", "Chars/Token"],
        [
            [
                stats.name,
                stats.files,
                stats.characters,
                stats.tokens,
                round(stats.mean_tokens_per_file, 1),
                round(stats.compression_ratio, 2),
            ]
            for stats in rows
        ],
        title="Corpus statistics",
    )


def task_list_with_block(synthesizer: AnsibleSynthesizer) -> GeneratedFile:
    """A role task list whose middle is a block with a ``rescue`` section
    (and sometimes ``always``), the canonical error-handling idiom."""
    rng, style = synthesizer.rng, synthesizer.style
    scenario = rng.choice(tuple(SCENARIOS))
    drafts = synthesizer._draft_sequence(scenario, max(3, min(5, len(SCENARIOS[scenario]))))
    head, *body = [draft.to_data(rng, style) for draft in drafts]
    block_entry: dict[str, object] = {
        "name": f"Apply {scenario.replace('_', ' ')} steps",
        "block": body,
        "rescue": [
            {
                "name": "Report failure",
                "ansible.builtin.debug": {"msg": f"{scenario} failed on {{{{ inventory_hostname }}}}"},
            }
        ],
    }
    if rng.bernoulli(0.4):
        block_entry["always"] = [
            {"name": "Record completion time", "ansible.builtin.set_fact": {"last_run": "{{ now() }}"}}
        ]
    return GeneratedFile(kind="tasks", scenario=scenario, data=[head, block_entry])


class TestCorpusStats:
    def test_full_count(self, galaxy_corpus, tiny_tokenizer):
        stats = corpus_stats(galaxy_corpus, tiny_tokenizer)
        assert stats.files == len(galaxy_corpus)
        assert stats.characters == sum(len(text) for text in galaxy_corpus.texts())
        assert stats.tokens > 0
        assert stats.compression_ratio > 1.0  # BPE compresses

    def test_sampled_extrapolation_close(self, galaxy_corpus, tiny_tokenizer):
        exact = corpus_stats(galaxy_corpus, tiny_tokenizer)
        sampled = corpus_stats(galaxy_corpus, tiny_tokenizer, sample_limit=len(galaxy_corpus) // 2)
        assert abs(sampled.tokens - exact.tokens) / exact.tokens < 0.25

    def test_stats_by_source_sorted(self, galaxy_corpus, tiny_tokenizer):
        rows = stats_by_source(galaxy_corpus, tiny_tokenizer)
        tokens = [row.tokens for row in rows]
        assert tokens == sorted(tokens, reverse=True)

    def test_render_table(self, galaxy_corpus, tiny_tokenizer):
        rows = [corpus_stats(galaxy_corpus, tiny_tokenizer, sample_limit=20)]
        table = render_stats_table(rows)
        assert "Tokens" in table and "Chars/Token" in table

    def test_empty_corpus(self, tiny_tokenizer):
        from repro.dataset.corpus import Corpus

        stats = corpus_stats(Corpus("empty"), tiny_tokenizer)
        assert stats.files == 0 and stats.tokens == 0
        assert stats.compression_ratio == 0.0


class TestBlockSynthesis:
    """The paper's future-work item: Ansible Blocks."""

    def test_block_structure(self):
        synthesizer = AnsibleSynthesizer(SeededRng(3))
        generated = task_list_with_block(synthesizer)
        assert generated.kind == "tasks"
        head, block_entry = generated.data
        assert "block" in block_entry
        assert "rescue" in block_entry
        assert "block" not in head

    def test_block_is_valid_yaml_and_schema(self):
        synthesizer = AnsibleSynthesizer(SeededRng(4))
        for _ in range(10):
            generated = task_list_with_block(synthesizer)
            text = yamlio.dumps(generated.data)
            data = yamlio.loads(text)
            # Lenient: blocks themselves are fine; strict may flag style noise.
            violations = ansible.validate(data, level=ansible.LENIENT)
            block_violations = [v for v in violations if "block" in v.rule]
            assert block_violations == []

    def test_block_flat_tasks(self):
        synthesizer = AnsibleSynthesizer(SeededRng(5))
        generated = task_list_with_block(synthesizer)
        task_list = ansible.TaskList.from_data(generated.data)
        names = [task.name for task in task_list.flat_tasks()]
        assert "Report failure" in names
        assert len(names) >= 3

    def test_deterministic(self):
        a = task_list_with_block(AnsibleSynthesizer(SeededRng(6)))
        b = task_list_with_block(AnsibleSynthesizer(SeededRng(6)))
        assert a.data == b.data
