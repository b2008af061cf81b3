"""Command-line interface.

Mirrors the workflows a user of the released system would run::

    python -m repro.cli train --out /tmp/wisdom --seed 7
    python -m repro.cli generate --model /tmp/wisdom --prompt "Install nginx"
    python -m repro.cli evaluate --model /tmp/wisdom --samples 20
    python -m repro.cli serve --model /tmp/wisdom --port 8181
    python -m repro.cli score --reference ref.yml --prediction pred.yml
    python -m repro.cli obs --url http://127.0.0.1:8181
    python -m repro.cli obs --spans /tmp/trace.jsonl
    python -m repro.cli profile --size 350M --mode generate --trace /tmp/prof.json
    python -m repro.cli chaos --seed 1 --verify
    python -m repro.cli fleet chaos --seed 1 --verify
    python -m repro.cli slo --seed 1

Every subcommand is a thin shell over the library API; all heavy lifting
stays importable and testable — the chaos storms are
:func:`repro.engine.chaos.run_engine_chaos` and
:func:`repro.fleet.run_fleet_chaos`, and CI fails on an engine class named
in this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.utils.rng import SeededRng


def _cmd_train(args: argparse.Namespace) -> int:
    from repro import quickstart_model
    from repro.model import save_checkpoint

    print(f"training (seed={args.seed}, galaxy_scale={args.galaxy_scale}, epochs={args.epochs})")
    model, dataset = quickstart_model(
        seed=args.seed, galaxy_scale=args.galaxy_scale, finetune_epochs=args.epochs
    )
    path = save_checkpoint(model, args.out)
    print(f"checkpoint written to {path}")
    print(f"dataset sizes: {dataset.sizes()}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.model import load_checkpoint

    model = load_checkpoint(args.model)
    prompt = args.prompt
    if not prompt.startswith("- name:"):
        prompt = f"- name: {prompt}"
    if not prompt.endswith("\n"):
        prompt += "\n"
    completion = model.complete(prompt, max_new_tokens=args.max_new_tokens)
    sys.stdout.write(prompt + completion)
    if not completion.endswith("\n"):
        sys.stdout.write("\n")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.dataset import build_finetune_dataset, build_galaxy_corpus, split_corpus
    from repro.eval import evaluate
    from repro.metrics import EvalReport
    from repro.model import load_checkpoint
    from repro.utils.tables import format_table

    model = load_checkpoint(args.model)
    rng = SeededRng(args.seed)
    galaxy = build_galaxy_corpus(rng.child("galaxy"), scale=args.galaxy_scale)
    splits = split_corpus(galaxy, rng.child("split"))
    dataset = build_finetune_dataset(splits.train, splits.validation, splits.test)
    report = evaluate(model, dataset.test, max_samples=args.samples)
    print(format_table(list(EvalReport.ROW_HEADERS), [report.as_row()], title="Evaluation"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.model import load_checkpoint
    from repro.serving import PredictionService, RestServer

    model = load_checkpoint(args.model)
    service = PredictionService(model.engine(), max_new_tokens=args.max_new_tokens)
    server = RestServer(service, host=args.host, port=args.port).start()
    print(f"serving {model.name} at {server.url} (ctrl-c to stop)")
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    from repro.metrics import ansible_aware, exact_match, is_schema_correct, sentence_bleu

    reference = Path(args.reference).read_text()
    prediction = Path(args.prediction).read_text()
    result = {
        "exact_match": exact_match(reference, prediction),
        "bleu": round(sentence_bleu(reference, prediction), 2),
        "ansible_aware": round(ansible_aware(reference, prediction), 2),
        "schema_correct": is_schema_correct(prediction),
    }
    print(json.dumps(result, indent=2))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import read_spans_jsonl
    from repro.obs.report import format_metrics_snapshot, format_span_tree

    if args.url:
        from repro.serving.client import PredictionClient

        payload = PredictionClient(args.url).metrics()
        if args.json:
            print(json.dumps(payload, indent=2))
            return 0
        print(format_metrics_snapshot(payload.get("metrics", {})))
        tracing = payload.get("tracing", {})
        print()
        print(
            f"tracing: enabled={tracing.get('enabled')} "
            f"buffered={tracing.get('spans_buffered')} "
            f"recorded={tracing.get('spans_recorded')}"
        )
        engine = payload.get("engine")
        if engine:
            print()
            print(json.dumps({"engine": engine}, indent=2))
        return 0
    spans, skipped = read_spans_jsonl(args.spans)
    if skipped:
        print(f"warning: skipped {skipped} corrupt line(s) in {args.spans}", file=sys.stderr)
    if args.json:
        print(json.dumps([span.to_dict() for span in spans], indent=2))
        return 0
    print(format_span_tree(spans))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.engine import InferenceEngine
    from repro.model.config import SIZE_PRESETS, transformer_config
    from repro.nn.parameter import numpy_rng
    from repro.nn.transformer import DecoderLM
    from repro.obs import Observability, OpProfiler, Tracer
    from repro.obs.export import export_chrome_trace
    from repro.obs.report import format_op_table

    config = transformer_config(args.vocab, SIZE_PRESETS[args.size], args.context)
    network = DecoderLM(config, numpy_rng(args.seed))
    profiler = OpProfiler(track_memory=args.track_memory).attach(network)
    tracer = Tracer(capacity=8192)
    rng = np.random.default_rng(args.seed)
    seq = min(args.seq, config.n_positions - 1)
    ids = rng.integers(0, config.vocab_size, size=(args.batch, seq)).astype(np.int64)
    if args.track_memory:
        profiler.start_memory_tracking()
    if args.mode == "forward":
        network.forward(ids, training=False)
    elif args.mode == "backward":
        targets = np.roll(ids, -1, axis=1)
        targets[:, -1] = -1
        network.loss_and_backward(ids, targets)
    else:  # generate: the batch decoded through the engine that serves
        engine = InferenceEngine(network, obs=Observability(tracer=tracer))
        engine.generate_batch(ids.tolist(), max_new_tokens=args.new_tokens)
    if args.track_memory:
        profiler.stop_memory_tracking()
    stats = profiler.stats()
    if args.json:
        print(json.dumps(profiler.snapshot(), indent=2))
    else:
        title = f"Hot ops: {args.size} / context {args.context} / {args.mode} (batch {args.batch})"
        print(format_op_table(stats, top=args.top, title=title))
        total_flops = sum(stat.flops for stat in stats)
        total_self = sum(stat.self_s for stat in stats)
        print()
        print(
            f"total: {total_flops / 1e9:.3f} GFLOP in {total_self * 1e3:.1f}ms self time "
            f"({total_flops / total_self / 1e9:.2f} GFLOP/s)"
            if total_self > 0
            else f"total: {total_flops / 1e9:.3f} GFLOP"
        )
        print(f"tensor high-water mark: {profiler.alloc_high_water_bytes / 1e6:.2f} MB (analytic)")
        if profiler.tracemalloc_peak_bytes:
            print(f"process peak (tracemalloc): {profiler.tracemalloc_peak_bytes / 1e6:.2f} MB")
    if args.trace:
        written = export_chrome_trace(args.trace, spans=tracer.spans(), op_events=profiler.events())
        print(f"chrome trace ({written} events) written to {args.trace}", file=sys.stderr)
    profiler.detach()
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro import yamlio
    from repro.dataset import AnsibleSynthesizer

    synthesizer = AnsibleSynthesizer(SeededRng(args.seed))
    for _ in range(args.count):
        generated = synthesizer.playbook() if args.kind == "playbook" else synthesizer.task_list()
        sys.stdout.write(yamlio.dumps(generated.data))
    return 0


def _chaos_exit(args: argparse.Namespace, result: dict, rerun) -> int:
    """The tail of both chaos commands, over the result shape the two
    harnesses share: write the log, report violated invariants on stderr
    (never in the log: replay files stay as recorded) and, under
    ``--verify``, ``rerun()`` the seed and require the same log — and the
    same merged trace, when the run made one — byte for byte."""
    log = result["log"]
    if args.out:
        Path(args.out).write_text(log, encoding="utf-8")
        print(f"{len(log.splitlines())} events written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(log)
    for violation in result["violations"]:
        print(f"INVARIANT VIOLATED: {violation}", file=sys.stderr)
    status = 1 if result["violations"] else 0
    if args.verify:
        replay = rerun()
        if (replay["log"], replay.get("chrome_trace_json")) == (
            log,
            result.get("chrome_trace_json"),
        ):
            print("replay: byte-identical", file=sys.stderr)
        else:
            print("replay: DIVERGED", file=sys.stderr)
            status = 1
    return status


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded engine chaos: a shell over
    :func:`repro.engine.chaos.run_engine_chaos`, which owns the storm and
    the verdict.  Exit status and ``--verify`` as for ``repro fleet chaos``."""
    from repro.engine.chaos import run_engine_chaos

    kwargs = dict(
        seed=args.seed,
        requests=args.requests,
        max_batch=args.max_batch,
        alloc_fault_rate=args.alloc_fault_rate,
        decode_fault_rate=args.decode_fault_rate,
        slow_step_rate=args.slow_step_rate,
        speculative_k=args.speculative_k,
        stream=args.stream,
    )
    return _chaos_exit(args, run_engine_chaos(**kwargs), lambda: run_engine_chaos(**kwargs))


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    """Front N replica processes with one prefix-affinity router endpoint."""
    from repro.fleet import FleetRouter, ProcessWorker, WorkerSpec
    from repro.serving import RestServer

    spec = WorkerSpec(
        seed=args.seed,
        checkpoint=args.model,
        max_new_tokens=args.max_new_tokens,
        max_queue_depth=args.max_queue_depth,
    )
    print(f"spawning {args.workers} replica(s)...")
    workers = [ProcessWorker(f"w{index}", spec).start() for index in range(args.workers)]
    router = FleetRouter(
        workers,
        policy=args.policy,
        heartbeat_timeout_s=args.heartbeat_timeout_s,
        spawner=lambda worker_id: ProcessWorker(worker_id, spec).start(),
    )
    router.start_heartbeats(interval_s=args.heartbeat_timeout_s / 2.0)
    server = RestServer(router, host=args.host, port=args.port).start()
    replicas = ", ".join(f"{worker.worker_id}={worker.url}" for worker in workers)
    print(f"fleet router ({args.policy}) at {server.url} over [{replicas}] (ctrl-c to stop)")
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        router.stop()
    return 0


def _cmd_fleet_chaos(args: argparse.Namespace) -> int:
    """Seeded fleet-scale chaos: kill a replica mid-decode, log everything.

    The fleet sibling of ``repro chaos``: N in-process replicas behind the
    prefix-affinity router, a fake clock, and a seeded fault schedule that
    crashes one replica while its batcher holds live rows.  Exit status is
    0 only when the run upholds the invariants (all four-outcome, zero KV
    bytes leaked, no orphaned session, every replica's books balanced);
    ``--verify`` additionally reruns the seed and diffs the two logs and
    merged traces byte-for-byte.  ``--trace-out`` writes the merged
    multi-process Chrome trace (router + every polled replica, flow arrows
    across the process boundary) for ``chrome://tracing`` / Perfetto.
    """
    from repro.fleet import run_fleet_chaos

    kwargs = dict(
        seed=args.seed,
        n_workers=args.workers,
        n_requests=args.requests,
        kill_decode_call=args.kill_decode_call if args.kill_decode_call >= 0 else None,
        profile=args.profile,
        tracing=bool(args.trace_out) or args.verify,
        stream=args.stream,
    )
    result = run_fleet_chaos(**kwargs)
    if args.trace_out:
        from repro.obs.distributed import write_fleet_chrome_trace

        written = write_fleet_chrome_trace(args.trace_out, result["chrome_trace"])
        print(f"merged chrome trace ({written} spans) written to {args.trace_out}", file=sys.stderr)
    return _chaos_exit(args, result, lambda: run_fleet_chaos(**kwargs))


def _cmd_slo(args: argparse.Namespace) -> int:
    """Evaluate burn-rate SLOs over a seeded fleet chaos run.

    Feeds every request of a :func:`repro.fleet.run_fleet_chaos` run into
    an :class:`repro.obs.slo.SloMonitor` and prints the verdict table —
    per-SLO compliance against target, plus multi-window burn-rate alerts.
    Deterministic: the same seed prints the same report byte-for-byte
    (``--json`` emits the canonical sorted-key serialization).  Exit
    status is 0 when every SLO is met and nothing is alerting, 1 when an
    SLO is violated or burning.
    """
    from repro.fleet import run_fleet_chaos

    result = run_fleet_chaos(
        seed=args.seed,
        n_workers=args.workers,
        n_requests=args.requests,
        profile=args.profile,
    )
    report = result["slo"]
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"SLO report (seed={args.seed}, {report['total_observed']} requests)")
        for slo in report["slos"]:
            windows = " ".join(
                f"burn[{window['long_s']:.0f}s/{window['short_s']:.0f}s]="
                f"{window['burn_long']:.2f}/{window['burn_short']:.2f}"
                f"{'!' if window['alerting'] else ''}"
                for window in slo["burn_windows"]
            )
            verdict = "MET" if slo["met"] else "VIOLATED"
            alert = " ALERTING" if slo["alerting"] else ""
            print(
                f"  {slo['name']:<12} {slo['signal']:<8} "
                f"compliance={slo['compliance']:.4f} target={slo['target']:.4f} "
                f"{verdict}{alert}  {windows}"
            )
        print(f"all_met={report['all_met']} any_alerting={report['any_alerting']}")
    return 0 if report["all_met"] and not report["any_alerting"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.split("\n")[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser("train", help="pretrain + finetune a Wisdom model")
    train.add_argument("--out", required=True, help="checkpoint output directory")
    train.add_argument("--seed", type=int, default=7)
    train.add_argument("--galaxy-scale", type=float, default=0.001, dest="galaxy_scale")
    train.add_argument("--epochs", type=int, default=8)
    train.set_defaults(handler=_cmd_train)

    generate = subparsers.add_parser("generate", help="complete a natural-language prompt")
    generate.add_argument("--model", required=True, help="checkpoint directory")
    generate.add_argument("--prompt", required=True)
    generate.add_argument("--max-new-tokens", type=int, default=96, dest="max_new_tokens")
    generate.set_defaults(handler=_cmd_generate)

    evaluate_cmd = subparsers.add_parser("evaluate", help="score a model on a fresh test split")
    evaluate_cmd.add_argument("--model", required=True)
    evaluate_cmd.add_argument("--samples", type=int, default=20)
    evaluate_cmd.add_argument("--seed", type=int, default=7)
    evaluate_cmd.add_argument("--galaxy-scale", type=float, default=0.001, dest="galaxy_scale")
    evaluate_cmd.set_defaults(handler=_cmd_evaluate)

    serve = subparsers.add_parser("serve", help="start the REST prediction service")
    serve.add_argument("--model", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8181)
    serve.add_argument("--max-new-tokens", type=int, default=96, dest="max_new_tokens")
    serve.set_defaults(handler=_cmd_serve)

    score = subparsers.add_parser("score", help="score a prediction file against a reference")
    score.add_argument("--reference", required=True)
    score.add_argument("--prediction", required=True)
    score.set_defaults(handler=_cmd_score)

    obs = subparsers.add_parser("obs", help="pretty-print a /v1/metrics snapshot or a JSONL span dump")
    source = obs.add_mutually_exclusive_group(required=True)
    source.add_argument("--url", help="base URL of a running repro serve instance")
    source.add_argument("--spans", help="path to a Tracer.export_jsonl dump")
    obs.add_argument("--json", action="store_true", help="emit raw JSON instead of tables")
    obs.set_defaults(handler=_cmd_obs)

    profile = subparsers.add_parser(
        "profile",
        help="op-level FLOPs/roofline profile of a forward/backward or a short engine generation",
    )
    profile.add_argument("--size", choices=("350M", "2.7B", "6B"), default="350M")
    profile.add_argument(
        "--context", type=int, default=1024, help="paper-scale context window (512/1024/2048)"
    )
    profile.add_argument("--vocab", type=int, default=512, help="vocabulary size")
    profile.add_argument("--mode", choices=("forward", "backward", "generate"), default="generate")
    profile.add_argument("--batch", type=int, default=2)
    profile.add_argument("--seq", type=int, default=32, help="prompt/sequence length in tokens")
    profile.add_argument("--new-tokens", type=int, default=16, dest="new_tokens")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--top", type=int, default=12, help="rows in the hot-op table")
    profile.add_argument("--trace", help="write a Chrome trace-event JSON file here")
    profile.add_argument(
        "--track-memory", action="store_true", dest="track_memory",
        help="also sample tracemalloc for the true process peak",
    )
    profile.add_argument("--json", action="store_true", help="emit the raw profiler snapshot")
    profile.set_defaults(handler=_cmd_profile)

    synthesize = subparsers.add_parser("synthesize", help="emit synthetic Ansible YAML")
    synthesize.add_argument("--count", type=int, default=1)
    synthesize.add_argument("--kind", choices=("playbook", "tasks"), default="tasks")
    synthesize.add_argument("--seed", type=int, default=0)
    synthesize.set_defaults(handler=_cmd_synthesize)

    chaos = subparsers.add_parser(
        "chaos",
        help="replay a seeded fault schedule against the engine (JSONL event log)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--requests", type=int, default=12)
    chaos.add_argument("--out", help="write the JSONL event log here (default: stdout)")
    chaos.add_argument("--max-batch", type=int, default=4, dest="max_batch")
    chaos.add_argument(
        "--alloc-fault-rate", type=float, default=0.15, dest="alloc_fault_rate",
        help="per-call probability of an injected KV slab allocation failure",
    )
    chaos.add_argument(
        "--decode-fault-rate", type=float, default=0.1, dest="decode_fault_rate",
        help="per-step probability of a failed (retried) decode step",
    )
    chaos.add_argument(
        "--slow-step-rate", type=float, default=0.1, dest="slow_step_rate",
        help="per-step probability of a 250ms (fake-clock) slow decode step",
    )
    chaos.add_argument(
        "--speculative-k", type=int, default=0, dest="speculative_k",
        help="draft-then-verify with k drafted tokens per step (0 disables)",
    )
    chaos.add_argument(
        "--stream", action="store_true",
        help="drive the schedule through token streaming, abandoning a seeded "
        "fraction of streams mid-decode (the client-disconnect path)",
    )
    chaos.add_argument(
        "--verify", action="store_true",
        help="re-run the schedule and fail unless the replay is byte-identical",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    fleet = subparsers.add_parser(
        "fleet", help="multi-replica router: serve N replicas or run fleet-scale chaos"
    )
    fleet_modes = fleet.add_subparsers(dest="fleet_mode", required=True)

    fleet_serve = fleet_modes.add_parser(
        "serve", help="spawn N replica processes behind a prefix-affinity router"
    )
    fleet_serve.add_argument("--model", help="checkpoint directory (omit for random weights)")
    fleet_serve.add_argument("--workers", type=int, default=2)
    fleet_serve.add_argument("--policy", choices=("affinity", "round_robin"), default="affinity")
    fleet_serve.add_argument("--host", default="127.0.0.1")
    fleet_serve.add_argument("--port", type=int, default=8181)
    fleet_serve.add_argument("--seed", type=int, default=0)
    fleet_serve.add_argument("--max-new-tokens", type=int, default=96, dest="max_new_tokens")
    fleet_serve.add_argument("--max-queue-depth", type=int, default=8, dest="max_queue_depth")
    fleet_serve.add_argument(
        "--heartbeat-timeout-s", type=float, default=5.0, dest="heartbeat_timeout_s",
        help="declare a replica dead after this long without a heartbeat",
    )
    fleet_serve.set_defaults(handler=_cmd_fleet_serve)

    fleet_chaos = fleet_modes.add_parser(
        "chaos", help="seeded replica-kill chaos run against an in-process fleet"
    )
    fleet_chaos.add_argument("--seed", type=int, default=0)
    fleet_chaos.add_argument("--workers", type=int, default=3)
    fleet_chaos.add_argument("--requests", type=int, default=24)
    fleet_chaos.add_argument(
        "--profile", choices=("shared_prefix", "uniform", "keystroke", "mixed"),
        default="shared_prefix", help="request-mix load profile",
    )
    fleet_chaos.add_argument(
        "--kill-decode-call", type=int, default=30, dest="kill_decode_call",
        help="global decode-step call at which a replica crashes (-1 disables)",
    )
    fleet_chaos.add_argument(
        "--stream", action="store_true",
        help="streamed run shape: SSE-style token streams with seeded client "
        "disconnects plus keystroke-session create/extend exchanges",
    )
    fleet_chaos.add_argument("--out", help="write the JSONL event log here (default: stdout)")
    fleet_chaos.add_argument(
        "--trace-out", dest="trace_out",
        help="write the merged multi-process Chrome trace (Perfetto) here",
    )
    fleet_chaos.add_argument(
        "--verify", action="store_true",
        help="rerun the seed and diff log + merged trace byte-for-byte",
    )
    fleet_chaos.set_defaults(handler=_cmd_fleet_chaos)

    slo = subparsers.add_parser(
        "slo", help="evaluate burn-rate SLOs over a seeded fleet chaos run"
    )
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument("--workers", type=int, default=3)
    slo.add_argument("--requests", type=int, default=24)
    slo.add_argument(
        "--profile", choices=("shared_prefix", "uniform", "keystroke", "mixed"),
        default="shared_prefix", help="request-mix load profile",
    )
    slo.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    slo.set_defaults(handler=_cmd_slo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
