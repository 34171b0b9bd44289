"""Loopback stand-in for a chat-completion endpoint.

Run as ``python3 perfbench/stub.py --delay 0.02``. It binds 127.0.0.1 on a
free port, prints the port on stdout and serves until its stdin closes.
Every completion reply waits ``--delay`` seconds first.

The benchmark drives it over three routes:

- ``POST /plan`` resets the counters and installs the next batch's plan:
  the generation prompt, the generation replies in order, and the request
  indices that get a 503 instead (``gen_503``, ``translate_503``).
- ``POST /v1/chat/completions`` answers a generation prompt with the next
  planned reply, and any other prompt ``"<prefix>: <command>"`` with
  :func:`translation_for` of the command. The first request for
  :data:`PROBE_COMMAND` after a plan gets a 200 whose body is not JSON.
- ``GET /stats`` returns the counts since the last plan, and ``waited_s``:
  the wall time during which at least one reply was being delayed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PROBE_COMMAND = "echo perfbench-probe"


def translation_for(command: str) -> str:
    """The English line the stub returns for ``command`` (first line only)."""
    digest = hashlib.sha1(command.encode("utf-8")).hexdigest()[:10]
    return f"Describe what `{command}` does (ref {digest})"


class _State:
    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.lock = threading.Lock()
        self.reset({})

    def reset(self, plan: dict) -> None:
        self.gen_prompt = plan.get("gen_prompt", "")
        self.gen_replies = list(plan.get("gen_replies", ()))
        self.gen_503 = set(plan.get("gen_503", ()))
        self.translate_503 = set(plan.get("translate_503", ()))
        self.gen_requests = 0
        self.gen_served = 0
        self.translate_requests = 0
        self.replies = 0
        self.errors = 0
        self.probe_seen = False
        self.waits: list[tuple[float, float]] = []

    def waited(self) -> float:
        """Wall seconds during which at least one reply was being delayed."""
        total, covered_to = 0.0, float("-inf")
        for start, end in sorted(self.waits):
            if end > covered_to:
                total += end - max(start, covered_to)
                covered_to = end
        return total

    def answer(self, prompt: str) -> tuple[int, str, bool]:
        """(status, body text, body is JSON) for one completion request."""
        with self.lock:
            self.replies += 1
            if prompt == self.gen_prompt:
                index = self.gen_requests
                self.gen_requests += 1
                if index in self.gen_503:
                    self.errors += 1
                    return 503, "busy", False
                content = self.gen_replies[self.gen_served % len(self.gen_replies)]
                self.gen_served += 1
            else:
                command = prompt.split(": ", 1)[-1]
                if command == PROBE_COMMAND and not self.probe_seen:
                    self.probe_seen = True
                    return 200, "upstream hiccup: not a JSON body", False
                index = self.translate_requests
                self.translate_requests += 1
                if index in self.translate_503:
                    self.errors += 1
                    return 503, "busy", False
                content = f"\n  {translation_for(command)}  \nSecond line is ignored.\n"
        body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        return 200, json.dumps(body), True


def _handler(state: _State) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args: object) -> None:
            pass

        def _send(self, status: int, text: str, is_json: bool) -> None:
            data = text.encode("utf-8")
            self.send_response(status)
            self.send_header(
                "Content-Type", "application/json" if is_json else "text/plain"
            )
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:
            if self.path != "/stats":
                self._send(404, "no such route", False)
                return
            with state.lock:
                stats = {
                    "replies": state.replies,
                    "errors": state.errors,
                    "waited_s": state.waited(),
                }
            self._send(200, json.dumps(stats), True)

        def do_POST(self) -> None:
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if self.path == "/plan":
                with state.lock:
                    state.reset(body)
                self._send(200, "{}", True)
                return
            prompt = body["messages"][-1]["content"]
            start = time.monotonic()
            time.sleep(state.delay)
            with state.lock:
                state.waits.append((start, time.monotonic()))
            self._send(*state.answer(prompt))

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay", type=float, required=True)
    args = parser.parse_args()

    server = ThreadingHTTPServer(("127.0.0.1", 0), _handler(_State(args.delay)))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    sys.stdin.read()  # returns when the benchmark closes our stdin
    server.shutdown()
    thread.join()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
