import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest


class _Handler(BaseHTTPRequestHandler):
    """Serves canned JSON responses; the test installs a callable that maps
    (path, request body) to (status, payload)."""

    respond = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        status, payload = type(self).respond(self.path, body, dict(self.headers))
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    """Start a local HTTP server around a (path, body, headers) -> (status,
    payload) callable; yields a factory returning the base URL."""
    servers = []

    def start(respond):
        handler = type("Handler", (_Handler,), {"respond": staticmethod(respond)})
        server = HTTPServer(("127.0.0.1", 0), handler)
        # shutdown() waits for serve_forever's next poll; at the default
        # 0.5 s interval that wait dominated each test's run time.
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.01}, daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}"

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
