"""The Wisdom demo/plugin flow (paper §Demo/Plugin).

Starts the REST prediction service over a trained model's inference engine,
talks to it with the HTTP client, and replays the editor interaction the
paper describes: the user types ``- name: install nginx on RHEL``, hits
enter, the plugin opens a server-side keystroke session, and tab accepts
the suggestion.

Run::

    python examples/serving_demo.py
"""

from __future__ import annotations

from repro import quickstart_model
from repro.serving import EditorSession, PredictionClient, PredictionService, RestServer, TAB


def main() -> None:
    print("training a small model first (this takes a minute or two)...")
    model, _ = quickstart_model(seed=7, galaxy_scale=0.001, finetune_epochs=6)

    service = PredictionService(model.engine(), cache_capacity=64, max_new_tokens=64)
    with RestServer(service) as server:
        print(f"\nREST service listening at {server.url}")
        client = PredictionClient(server.url)
        print("health:", client.health())

        prompt = "- name: Install nginx\n"
        result = client.predict(prompt)
        print(f"\nPOST /v1/completions latency={result['latency_ms']:.1f}ms cached={result['cached']}")
        result = client.predict(prompt)
        print(f"repeat request        latency={result['latency_ms']:.1f}ms cached={result['cached']}")

        print("\n-- editor plugin simulation --")
        session = EditorSession(backend=client)
        session.type_text("- name: Install nginx")
        suggestion = session.press_enter()
        print(f"suggestion arrived in {suggestion.latency_ms:.1f}ms:")
        print(suggestion.text)
        session.press(TAB)
        print("buffer after tab-accept:")
        print(session.buffer)
        session.close()
        print("server stats:", client.stats())


if __name__ == "__main__":
    main()
