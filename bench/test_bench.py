"""Smoke tests of the benchmark itself.  Run with ``python -m pytest bench/``;
deliberately outside tier-1 ``testpaths`` (each workload runs end to end)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench.fleet import SPEC  # noqa: E402
from bench.loadgen import Oracle  # noqa: E402
from bench.workloads import NOMINAL_SECONDS, WORKLOADS, schedule  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: 2% of the frozen op counts: a handful of ops per pass.
SMOKE_SECONDS = 0.02 * NOMINAL_SECONDS
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def smoke(request) -> dict:
    """The timed and the traced run of one workload, at smoke scale."""
    runs = {}
    for trace in (0, 1):
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", request.param]
            + ["--seed", "3", "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
            capture_output=True,
            text=True,
            timeout=170,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        runs[trace] = done.stdout
    return {"name": request.param, "runs": runs}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_exactly_the_manifest_metrics(smoke, trace, section):
    lines = smoke["runs"][trace].strip().splitlines()
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in MANIFEST[section]}
    assert {name: entry["unit"] for name, entry in report["metrics"].items()} == declared
    for name, unit in declared.items():
        assert NAME.fullmatch(name)
        # ... and printed by name with its unit in the human-readable part too.
        assert any(line.startswith(name + " ") and line.endswith(" " + unit) for line in lines)


def test_span_trees_are_well_formed(smoke):
    path = ROOT / "bench" / "_out" / f"trace_{smoke['name']}.jsonl"
    spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    by_id = {span["id"]: span for span in spans}
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is None:
            assert span["name"].startswith("serving.http."), "only client spans are roots"
        else:
            parent = by_id[span["parent"]]
            assert span["op"] == parent["op"]
            assert parent["start_us"] - 0.2 <= span["start_us"]
            assert span["end_us"] <= parent["end_us"] + 0.2
            children[span["parent"]].append(span)

    def self_us(span) -> float:
        return span["end_us"] - span["start_us"] - sum(
            child["end_us"] - child["start_us"] for child in children[span["id"]]
        )

    def subtree_self_us(span) -> float:
        return self_us(span) + sum(subtree_self_us(child) for child in children[span["id"]])

    assert min(self_us(span) for span in spans) >= -0.5
    roots = [span for span in spans if span["parent"] is None]
    assert roots
    for root in roots:
        assert subtree_self_us(root) == pytest.approx(root["end_us"] - root["start_us"], abs=1.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_is_a_pure_function_of_name_and_seed(name):
    workload = WORKLOADS[name]
    assert schedule(workload, 5, SMOKE_SECONDS * 5) == schedule(workload, 5, SMOKE_SECONDS * 5)
    assert schedule(workload, 5, SMOKE_SECONDS * 5) != schedule(workload, 6, SMOKE_SECONDS * 5)


def test_no_keystroke_buffer_is_left_truncated():
    tokenizer = Oracle().tokenizer
    workload = WORKLOADS["keystroke_session"]
    limit = SPEC.n_positions - workload.max_new_tokens
    for seed in range(3):
        for call in schedule(workload, seed):
            for buffer in call.prompts:
                assert len(tokenizer.encode(buffer)) <= limit


def test_oracle_accepts_either_side_of_a_float32_tie_and_nothing_else():
    from repro.nn.sampling import generate_greedy

    from bench.loadgen import Result
    from bench.workloads import Call

    oracle = Oracle()
    # Step 17 of this prompt's greedy decode has its two best logits 5e-8 apart.
    prompt = "- name: Enable grafana number 1854\n"
    prompt_ids = oracle.tokenizer.encode(prompt)
    greedy = oracle.tokenizer.decode(generate_greedy(oracle.model, prompt_ids, 24).token_ids)
    variants = oracle._tie_variants(prompt_ids, 24)
    assert greedy in variants and len(variants) == 2
    for completion in variants:
        served = Result(Call("predict", (prompt,)), payload={"completion": completion})
        assert oracle.check(served, 24) == (None, int(completion != greedy))
    wrong = Result(Call("predict", (prompt,)), payload={"completion": greedy[:-1] + "~"})
    assert oracle.check(wrong, 24)[0] is not None


def test_an_op_is_timed_by_its_least_disturbed_send():
    from bench.loadgen import Phase, Result, end_to_end
    from bench.workloads import Call

    calls = [Call("create", ("a",)), Call("extend", ("ab",)), Call("close")]

    def one_pass(*seconds, failed=()):
        results = [Result(call, latency_s=s, ttft_s=s) for call, s in zip(calls, seconds)]
        for index in failed:
            results[index].error = "boom"
        return Phase(results, wall_s=sum(seconds))

    passes = [
        one_pass(0.004, 0.008, 0.001),
        one_pass(0.002, 0.001, 0.003, failed=[1]),  # a failed send's timing does not count
        one_pass(0.003, 0.006, 0.002),
    ]
    metrics = end_to_end(passes, WORKLOADS["keystroke_session"])
    # create 2 ms, extend 6 ms; close (1 ms) counts toward throughput only.
    assert metrics["latency_p50_ms"] == pytest.approx(4.0)
    assert metrics["ttft_p95_ms"] == pytest.approx(5.8)
    assert metrics["tokens_per_s"] == pytest.approx(2 * 8 / 0.009)


def test_a_failed_op_fails_the_run(capsys):
    from bench import run
    from bench.loadgen import Phase, Result
    from bench.workloads import Call

    good = Result(Call("predict", ("a",)), payload={"completion": "b"})
    bad = Result(Call("predict", ("c",)), error="boom")
    phase = Phase([good, bad], wall_s=1.0)
    problems = run._describe("timed phase", phase)
    assert problems == ["timed phase: 1 of 2 ops failed"]
    assert run._finish({"m": 1.0}, {"m": "ms"}, phase, problems) == 1
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["correct"] is False and report["attempted"] == 2 and report["failed"] == 1
    with pytest.raises(SystemExit, match="no op succeeded"):
        run._describe("timed phase", Phase([bad], wall_s=1.0))


def test_manifest_matches_the_presets():
    assert MANIFEST["run_seconds"] == NOMINAL_SECONDS
    declared = {workload["name"]: workload["why"] for workload in MANIFEST["workloads"]}
    assert declared == {name: workload.why for name, workload in WORKLOADS.items()}
