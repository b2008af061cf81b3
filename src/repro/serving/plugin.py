"""Editor-plugin simulation.

Reproduces the paper's VS Code plugin flow: "when a user writes the prompt
for the task, example '- name: install nginx on RHEL', and hits enter, we
invoke the API to carry out the prediction and then take the results and
paste it back on the editor.  The user can either hit tab and accept the
suggestion, or escape key to reject the suggestion."

:class:`EditorSession` models the buffer + keystroke protocol against any
prediction backend — in-process service, fleet router, worker or HTTP
client; all speak the session API (DESIGN.md "Request surface").  Every
enter after the first *extends* the server-side keystroke session: the
buffer the plugin re-sends is almost entirely the previous prompt plus
the accepted completion, so the server gathers the session's pinned path
in its prefix store and prefills only the delta instead of the whole
file — the pattern the prefix store was built for.  A session evicted
server-side is re-created transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServingError, SessionNotFoundError

TAB = "tab"
ESCAPE = "escape"


@dataclass
class Suggestion:
    """A pending inline suggestion shown to the user."""

    text: str
    latency_ms: float
    cached: bool
    #: Tokens served from the server's prefix store (0 = cold/stateless).
    reused_tokens: int = 0


@dataclass
class EditorSession:
    """A minimal Ansible-file editing session with AI suggestions.

    Attributes:
        backend: anything speaking the session API
            (``session_create`` / ``session_extend`` / ``session_close``):
            a :class:`PredictionService`, a fleet router or worker, or a
            :class:`PredictionClient`.  Suggestions ride a server-side
            keystroke session.
        buffer: current file content.
        accepted / rejected: per-session acceptance accounting.
    """

    backend: object
    buffer: str = ""
    accepted: int = 0
    rejected: int = 0
    session_id: str | None = field(default=None)
    prefilled_tokens: int = 0  # cumulative server-side prefill work
    reused_tokens: int = 0  # cumulative prefix-store reuse
    _pending: Suggestion | None = field(default=None, repr=False)

    def type_text(self, text: str) -> None:
        """User types raw text (no trigger)."""
        self.buffer += text

    def _complete(self) -> dict:
        """One completion of the full buffer through the server-side session.

        A lost session (evicted / dropped server-side) degrades to a fresh
        create — one cold prefill, never an error surfaced to the editor.
        """
        if self.session_id is None:
            result = self.backend.session_create(self.buffer)
        else:
            try:
                result = self.backend.session_extend(self.session_id, self.buffer)
            except SessionNotFoundError:
                result = self.backend.session_create(self.buffer)
        self.session_id = result["session_id"]
        self.prefilled_tokens += result.get("prefilled", 0)
        self.reused_tokens += result.get("reused_tokens", 0)
        return result

    def press_enter(self) -> Suggestion:
        """User hits enter after a ``- name:`` prompt line: trigger the API.

        The whole buffer is the model context; the returned suggestion is
        held pending until tab/escape.
        """
        if self._pending is not None:
            raise ServingError("a suggestion is already pending; press tab or escape")
        if not self.buffer.rstrip("\n").split("\n")[-1].lstrip().startswith("- name:"):
            raise ServingError("enter pressed on a line that is not a '- name:' prompt")
        self.buffer += "\n"
        result = self._complete()
        self._pending = Suggestion(
            text=result["completion"],
            latency_ms=result.get("latency_ms", 0.0),
            cached=result.get("cached", False),
            reused_tokens=result.get("reused_tokens", 0),
        )
        return self._pending

    def press(self, key: str) -> str:
        """Resolve the pending suggestion with tab (accept) or escape."""
        if self._pending is None:
            raise ServingError("no pending suggestion")
        if key not in (TAB, ESCAPE):
            raise ServingError(f"unknown key {key!r}; use 'tab' or 'escape'")
        suggestion = self._pending
        self._pending = None
        if key == TAB:
            self.buffer += suggestion.text
            if not self.buffer.endswith("\n"):
                self.buffer += "\n"
            self.accepted += 1
        else:
            self.rejected += 1
        return self.buffer

    def close(self) -> None:
        """Release the server-side session, if any (end of editing)."""
        if self.session_id is not None:
            self.backend.session_close(self.session_id)
        self.session_id = None
