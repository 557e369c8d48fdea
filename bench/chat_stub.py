"""Local OpenAI-compatible chat stub for the ttt-chat workload.

Run as a script it serves chat completions on 127.0.0.1 at a free port,
prints ``PORT <n>`` on its first stdout line and exits when its stdin
closes, so it never outlives the process that started it. Import
``StubProcess`` to start and stop it as a child process.

Every response is a deterministic function of the request body, after a
fixed service delay:

- agent calls (``"logprobs": true``) return 8 to 16 tokens, each with the
  top-5 logprobs. The distribution is sharp when the agent, named by the
  ``model`` field ``agent-<id>``, is an expert for the query's ``[tag:...]``
  and flat otherwise, so entropy-supervised routing has a signal to learn;
- agents number their steps: a reply says ``step <s>``, one past the
  highest step among the responses in its context;
- summarizer decisions (the system prompt offers ``[CONTINUE]``) reply
  ``[FINAL] ...`` from step 3 on, and at step 2 for one body hash in four;
  ``[CONTINUE]`` otherwise;
- forced summaries reply a plain answer.

Each response goes out in one write on a socket with Nagle's algorithm off.
Written as a status line plus headers and then a body, a keep-alive
response waits on the client's delayed ACK (about 40 ms on Linux), and the
workload would measure TCP instead of agentroute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import select
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SERVICE_DELAY_S = 0.004
START_TIMEOUT_S = 20.0
TOP_LOGPROBS = 5
CHAT_PATH = "/v1/chat/completions"

_AGENT_MODEL = re.compile(r"agent-(\d+)$")
_TAG = re.compile(r"\[tag:([^\]]+)\]")
_STEP = re.compile(r"\bstep (\d+)\b")


def agent_model_ref(agent_id: int) -> str:
    """The ``model`` value that names agent ``agent_id`` to the stub."""
    return f"agent-{agent_id}"


def _top_logprobs(sharpness: float) -> list[float]:
    # Geometric top-5 distribution holding 97% of the mass; the rest is tail.
    weights = [math.exp(-sharpness * rank) for rank in range(TOP_LOGPROBS)]
    total = sum(weights)
    return [math.log(0.97 * w / total) for w in weights]


def _agent_reply(request: dict, digest: bytes, experts: dict) -> dict:
    match = _AGENT_MODEL.match(request["model"])
    if match is None:
        raise ValueError(f"unknown agent model {request['model']!r}")
    agent_id = int(match.group(1))
    tag_match = _TAG.search(request["messages"][0]["content"])
    tag = tag_match.group(1) if tag_match else "default"
    base = 3.0 if agent_id in experts.get(tag, ()) else 0.4
    count = 8 + digest[0] % 9
    tokens = []
    content = []
    for index in range(count):
        token = digest[index + 1: index + 3].hex()
        sharpness = base + 0.05 * agent_id + 0.002 * digest[index + 16]
        tops = _top_logprobs(sharpness)
        tokens.append(token)
        content.append({
            "token": token,
            "logprob": tops[0],
            "top_logprobs": [{"token": f"{token}/{rank}", "logprob": lp}
                             for rank, lp in enumerate(tops)],
        })
    text = f"agent {agent_id} step {_step(request) + 1} [{tag}] finding: " + " ".join(tokens)
    return _completion(request["model"], text, count, {"content": content})


def _step(request: dict) -> int:
    """Highest step named in the non-system messages, 0 when none is."""
    text = "\n".join(m["content"] for m in request["messages"][1:])
    return max((int(s) for s in _STEP.findall(text)), default=0)


def _summarizer_reply(request: dict, digest: bytes) -> dict:
    system = request["messages"][0]["content"]
    answer = f"answer {digest[:6].hex()}"
    if "[CONTINUE]" in system:
        step = _step(request)
        final = step >= 3 or (step == 2 and digest[0] % 4 == 0)
        text = f"[FINAL] {answer}" if final else "[CONTINUE]"
    else:
        text = answer
    return _completion(request["model"], text, len(text.split()), None)


def _completion(model: str, text: str, tokens: int, logprobs) -> dict:
    return {
        "object": "chat.completion",
        "model": model,
        "choices": [{"index": 0,
                     "message": {"role": "assistant", "content": text},
                     "logprobs": logprobs,
                     "finish_reason": "stop"}],
        "usage": {"completion_tokens": tokens},
    }


def reply(body: bytes, experts: dict) -> dict:
    """The completion the stub returns for one request body."""
    request = json.loads(body)
    digest = hashlib.sha256(body).digest()
    if request.get("logprobs"):
        return _agent_reply(request, digest, experts)
    return _summarizer_reply(request, digest)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    experts: dict = {}

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        time.sleep(SERVICE_DELAY_S)
        status = "200 OK"
        if self.path != CHAT_PATH:
            status, doc = "404 Not Found", {"error": f"no route {self.path}"}
        else:
            try:
                doc = reply(body, self.experts)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                status, doc = "400 Bad Request", {"error": str(exc)}
        payload = json.dumps(doc).encode()
        head = (f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n").encode()
        self.wfile.write(head + payload)

    def log_message(self, *args):
        pass


def serve(experts: dict) -> None:
    handler = type("Handler", (_Handler,), {"experts": experts})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(f"PORT {server.server_port}", flush=True)

    def stop_on_stdin_eof():
        sys.stdin.buffer.read()
        server.shutdown()

    threading.Thread(target=stop_on_stdin_eof, daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()


class StubProcess:
    """The stub as a child process; a context manager that always stops it.

    ``experts`` maps each tag to the agent ids that answer it sharply.
    """

    def __init__(self, experts: dict):
        self.experts = {tag: sorted(int(a) for a in ids) for tag, ids in experts.items()}
        self.proc = None
        self.url = None

    def __enter__(self) -> "StubProcess":
        return self.start()

    def start(self) -> "StubProcess":
        """Start the child and wait for its port; stops it on failure."""
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--experts", json.dumps(self.experts)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("PORT "):
                raise RuntimeError(f"chat stub did not report a port (got {line!r})")
            self.url = f"http://127.0.0.1:{int(line.split()[1])}{CHAT_PATH}"
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            proc.stdin.close()
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experts", required=True,
                        help='JSON object mapping tag to expert agent ids, e.g. {"alpha": [2, 5]}')
    args = parser.parse_args(argv)
    serve(json.loads(args.experts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
