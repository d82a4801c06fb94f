"""The benchmark's own origin: a stdlib HTTP/1.1 range server for one file.

    python3 benchmarks/e2e/origin.py ARCHIVE DELAY_MS

Every request sleeps ``DELAY_MS`` first — the stated, emulated round-trip
time of ``remote-cold-scan`` (loopback has none).  Prints its URL, then
serves until terminated.
"""

from __future__ import annotations

import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


class RangeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, as HttpByteSource expects
    # Head and body leave in one write on a no-delay socket: split writes
    # meet the client's delayed ACK and add a 40 ms stall that no origin has.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        blob: bytes = self.server.blob
        time.sleep(self.server.delay_s)
        header = self.headers.get("Range", "")
        try:
            first, last = header.split("=", 1)[1].split("-", 1)
            start = int(first)
            end = min(int(last) if last else len(blob) - 1, len(blob) - 1)
        except (IndexError, ValueError):
            self._reply(400, b"this origin only serves single byte ranges", {})
            return
        if start >= len(blob):
            self._reply(416, b"", {"Content-Range": f"bytes */{len(blob)}"})
            return
        self._reply(206, blob[start:end + 1],
                    {"Content-Range": f"bytes {start}-{end}/{len(blob)}",
                     "ETag": '"e2e-origin"'})

    def _reply(self, code: int, body: bytes, headers: dict) -> None:
        lines = [f"HTTP/1.1 {code} {self.responses[code][0]}",
                 f"Content-Length: {len(body)}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        self.wfile.write("\r\n".join(lines).encode() + b"\r\n\r\n" + body)

    def log_message(self, fmt, *args) -> None:
        pass


def main(argv) -> int:
    path, delay_ms = Path(argv[0]), float(argv[1])
    server = ThreadingHTTPServer(("127.0.0.1", 0), RangeHandler)
    server.daemon_threads = True
    server.blob = path.read_bytes()
    server.delay_s = delay_ms / 1e3
    host, port = server.server_address[:2]
    print(f"http://{host}:{port}/{path.name}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
