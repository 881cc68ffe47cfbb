"""Shared asyncio HTTP/1.1 plumbing for the service and cluster layers.

The single-node service server (:mod:`repro.service.server`) and the
cluster coordinator (:mod:`repro.cluster.coordinator`) speak the same
deliberately small dialect of HTTP — one connection per request
(``Connection: close``), JSON bodies, an ephemeral default port — so the
request parser, response writer and threaded test harness live here once
instead of twice.

* :class:`BaseHttpServer` — ``asyncio.start_server`` lifecycle, request
  parsing, response rendering and the last-ditch 500 handler; subclasses
  implement :meth:`BaseHttpServer._route`.
* :class:`ThreadedHttpServer` — runs any :class:`BaseHttpServer` on a
  background daemon thread with a cross-thread :meth:`call` bridge; the
  harness tests, benchmarks and notebooks use to drive a server without
  blocking.
* :func:`http_fetch` — a minimal async HTTP client (the coordinator's
  upstream half): one request, ``Connection: close``, returns status,
  headers and body.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import Future
from typing import Dict, Optional, Set, Tuple

#: Largest request body accepted (a job spec is ~200 bytes).
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def read_request(reader: asyncio.StreamReader
                       ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request: ``(METHOD, target, headers, body)`` or None."""
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    try:
        method, path, _ = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        return None
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ValueError("request body too large (%d bytes)" % length)
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


def render_response(status: int, payload,
                    content_type: str = "application/json",
                    extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    """One full HTTP/1.1 response (``Connection: close``) as bytes."""
    if isinstance(payload, (dict, list)):
        body = (json.dumps(payload, indent=2) + "\n").encode()
    elif isinstance(payload, str):
        body = payload.encode()
    else:
        body = payload
    lines = [
        "HTTP/1.1 %d %s" % (status, _STATUS_TEXT.get(status, "Unknown")),
        "Content-Type: %s" % content_type,
        "Content-Length: %d" % len(body),
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append("%s: %s" % (name, value))
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


class BaseHttpServer:
    """Listener lifecycle + request/response plumbing; no routes.

    Subclasses implement ``async _route(method, target, headers, body,
    writer)`` and may override :meth:`on_start`/:meth:`on_stop` for
    their background machinery (dispatchers, probe loops).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: Connection handler tasks still running; :meth:`stop` ends them.
        self._connections: Set[asyncio.Task] = set()

    # --- lifecycle ----------------------------------------------------------

    async def on_start(self) -> None:
        """Hook: runs before the listener binds."""

    async def on_stop(self) -> None:
        """Hook: runs after the listener closes."""

    async def start(self) -> None:
        await self.on_start()
        self._server = await asyncio.start_server(
            self._accept, self.host, self._requested_port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener, end open connections, then :meth:`on_stop`.

        A handler still reading a half-sent request (or streaming events)
        is cancelled and awaited here, so no task outlives the loop.
        """
        if self._server is not None:
            self._server.close()
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        await self.on_stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # --- plumbing -----------------------------------------------------------

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Run each connection as a task this server holds until it ends."""
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            await self._route(method, path, headers, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # last-ditch: never kill the acceptor
            try:
                self._respond(writer, 500, {"error": "%s: %s"
                                            % (type(exc).__name__, exc)})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _route(self, method: str, target: str,
                     headers: Dict[str, str], body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        raise NotImplementedError

    def _respond(self, writer: asyncio.StreamWriter, status: int,
                 payload, content_type: str = "application/json",
                 extra_headers: Optional[Dict[str, str]] = None) -> None:
        writer.write(render_response(status, payload, content_type,
                                     extra_headers))

    def _respond_retry_after(self, writer: asyncio.StreamWriter,
                             status: int, error: str, retry_after_s: float,
                             **extra) -> None:
        """A 429/503 refusal: the wait goes in the body and, in whole
        seconds (at least one), in the ``Retry-After`` header."""
        self._respond(
            writer, status,
            dict({"error": error, "retry_after_s": retry_after_s}, **extra),
            extra_headers={"Retry-After": "%d" % max(1, round(retry_after_s))})


async def http_fetch(host: str, port: int, method: str, path: str,
                     body: Optional[bytes] = None,
                     headers: Optional[Dict[str, str]] = None,
                     timeout: float = 30.0
                     ) -> Tuple[int, Dict[str, str], bytes]:
    """One upstream request; returns ``(status, headers, body)``.

    The coordinator's client half.  ``Connection: close`` end to end:
    the response body is read to the content-length when one is sent,
    to EOF otherwise (SSE streams).  ``timeout`` bounds the whole
    exchange; connection errors propagate as ``OSError`` so callers can
    feed circuit breakers.
    """

    async def exchange() -> Tuple[int, Dict[str, str], bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(render_request(method, path, body, headers))
            await writer.drain()
            status, response_headers = await read_response_head(reader)
            length = response_headers.get("content-length")
            try:
                if length is not None:
                    data = await reader.readexactly(int(length))
                else:
                    data = await reader.read()
            except asyncio.IncompleteReadError as exc:
                # A truncated body is a transport fault, not a payload:
                # surface it as OSError (IncompleteReadError is an
                # EOFError) so breaker-feeding callers catch it.
                raise OSError(
                    "truncated upstream response (%d of %s body bytes)"
                    % (len(exc.partial), length)) from exc
            return status, response_headers, data
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.wait_for(exchange(), timeout)


def render_request(method: str, path: str, body: Optional[bytes] = None,
                   headers: Optional[Dict[str, str]] = None) -> bytes:
    """One full HTTP/1.1 request (``Connection: close``) as bytes."""
    lines = ["%s %s HTTP/1.1" % (method, path),
             "Connection: close"]
    for name, value in (headers or {}).items():
        lines.append("%s: %s" % (name, value))
    if body:
        lines.append("Content-Type: application/json")
        lines.append("Content-Length: %d" % len(body))
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + (body or b"")


async def read_response_head(reader: asyncio.StreamReader
                             ) -> Tuple[int, Dict[str, str]]:
    """Parse an upstream status line + headers (body left unread)."""
    status_line = await reader.readline()
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise OSError("malformed upstream status line %r" % status_line)
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


class ThreadedHttpServer:
    """Run a :class:`BaseHttpServer` on a background daemon thread.

    Subclasses implement :meth:`_build` to construct the server on the
    loop thread.  The caller gets the bound port and a :meth:`call`
    bridge that executes a function *on the loop thread* (how tests
    pause a scheduler or read coordinator state without races).
    """

    def __init__(self, **server_kwargs):
        self._kwargs = server_kwargs
        self.server: Optional[BaseHttpServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._shutdown: Optional[asyncio.Event] = None

    thread_name = "repro-http"

    def _build(self) -> BaseHttpServer:
        raise NotImplementedError

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def __enter__(self) -> "ThreadedHttpServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self, timeout: float = 30.0) -> "ThreadedHttpServer":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=self.thread_name)
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server failed to start within %gs" % timeout)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") \
                from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.server = self._build()

        async def main() -> None:
            self._shutdown = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            await self._shutdown.wait()
            await self.server.stop()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def call(self, fn, *args, timeout: float = 30.0):
        """Run ``fn(*args)`` on the event-loop thread; return its value."""
        assert self._loop is not None
        future: Future = Future()

        def invoke() -> None:
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)

        self._loop.call_soon_threadsafe(invoke)
        return future.result(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive() and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join(timeout)
