"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro import yamlio
from repro.cli import build_parser, main
from repro.engine import InferenceEngine
from repro.model import save_checkpoint
from repro.model.lm import WisdomModel
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory, tiny_tokenizer, tiny_config):
    model = WisdomModel("cli-model", tiny_tokenizer, DecoderLM(tiny_config, numpy_rng(0)))
    path = tmp_path_factory.mktemp("cli") / "model"
    save_checkpoint(model, path)
    return str(path)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for command in ("train", "generate", "evaluate", "serve", "score", "synthesize", "obs", "profile"):
            args = None
            try:
                args = parser.parse_args([command, "--help"])
            except SystemExit as exit_info:
                assert exit_info.code == 0
            assert args is None

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestGenerate:
    def test_generate_prints_prompt_and_completion(self, checkpoint_dir, capsys):
        code = main(["generate", "--model", checkpoint_dir, "--prompt", "Install nginx", "--max-new-tokens", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("- name: Install nginx\n")

    def test_generate_accepts_full_name_line(self, checkpoint_dir, capsys):
        main(["generate", "--model", checkpoint_dir, "--prompt", "- name: do it", "--max-new-tokens", "4"])
        out = capsys.readouterr().out
        assert out.startswith("- name: do it\n")


class TestScore:
    def test_score_outputs_json(self, tmp_path, capsys):
        reference = tmp_path / "ref.yml"
        prediction = tmp_path / "pred.yml"
        text = "- name: t\n  ansible.builtin.debug:\n    msg: hi\n"
        reference.write_text(text)
        prediction.write_text(text)
        code = main(["score", "--reference", str(reference), "--prediction", str(prediction)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["exact_match"] is True
        assert result["bleu"] == 100.0
        assert result["schema_correct"] is True


class TestSynthesize:
    def test_synthesize_emits_valid_yaml(self, capsys):
        code = main(["synthesize", "--count", "2", "--kind", "tasks", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        documents = yamlio.parse_all(out)
        assert len(documents) == 2
        assert all(isinstance(document, list) for document in documents)

    def test_synthesize_playbook(self, capsys):
        main(["synthesize", "--kind", "playbook", "--seed", "2"])
        out = capsys.readouterr().out
        document = yamlio.loads(out)
        assert "hosts" in document[0]


class TestObs:
    @pytest.fixture()
    def span_dump(self, tmp_path):
        from repro.obs import Tracer

        tracer = Tracer()
        with tracer.span("engine.request", request_id=0):
            with tracer.span("engine.decode"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(path)
        return str(path)

    def test_spans_render_as_tree(self, span_dump, capsys):
        code = main(["obs", "--spans", span_dump])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("engine.request")
        assert lines[1].startswith("  engine.decode")

    def test_spans_json_output(self, span_dump, capsys):
        code = main(["obs", "--spans", span_dump, "--json"])
        assert code == 0
        spans = json.loads(capsys.readouterr().out)
        assert [span["name"] for span in spans] == ["engine.decode", "engine.request"]

    def test_url_fetches_metrics_snapshot(self, tiny_tokenizer, tiny_network, capsys):
        from repro.model.lm import WisdomModel
        from repro.serving.service import PredictionService, RestServer

        model = WisdomModel("cli-obs", tiny_tokenizer, tiny_network)
        service = PredictionService(InferenceEngine.from_model(model, max_batch_size=2))
        with RestServer(service) as server:
            service.predict("- name: install nginx\n", max_new_tokens=3)
            code = main(["obs", "--url", server.url])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving.requests" in out
        assert "tracing: enabled=False" in out

    def test_url_and_spans_mutually_exclusive(self, span_dump):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "--url", "http://x", "--spans", span_dump])

    def test_corrupt_span_line_warns_but_renders(self, span_dump, capsys):
        with open(span_dump, "a", encoding="utf-8") as handle:
            handle.write('{"truncated')
        code = main(["obs", "--spans", span_dump])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("engine.request")
        assert "skipped 1 corrupt line(s)" in captured.err


class TestProfile:
    BASE = ["profile", "--size", "350M", "--context", "16", "--vocab", "64",
            "--batch", "1", "--seq", "8"]

    def test_forward_mode_prints_hot_op_table(self, capsys):
        code = main(self.BASE + ["--mode", "forward"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Hot ops" in out
        assert "Linear.forward" in out
        assert "GFLOP/s" in out

    def test_backward_mode_includes_backward_ops(self, capsys):
        code = main(self.BASE + ["--mode", "backward"])
        assert code == 0
        assert "Linear.backward" in capsys.readouterr().out

    def test_generate_mode_writes_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(self.BASE + ["--mode", "generate", "--new-tokens", "4",
                                 "--trace", str(trace)])
        assert code == 0
        payload = json.loads(trace.read_text())
        intervals = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert intervals
        names = {e["name"] for e in intervals}
        assert any(name.startswith("Linear.") for name in names)
        assert "engine.request" in names

    def test_json_snapshot(self, capsys):
        code = main(self.BASE + ["--mode", "forward", "--json"])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["total_calls"] > 0
        assert snapshot["total_flops"] > 0
        assert any(op["name"] == "Linear.forward" for op in snapshot["ops"])
