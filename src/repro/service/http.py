"""Shared asyncio HTTP/1.1 plumbing for the service and cluster layers.

The single-node service server (:mod:`repro.service.server`) and the
cluster coordinator (:mod:`repro.cluster.coordinator`) speak the same
deliberately small dialect of HTTP — persistent (keep-alive)
connections, JSON bodies framed by ``Content-Length``, event streams
framed by ``Transfer-Encoding: chunked``, an ephemeral default port —
so the request parser, response writer, upstream connection pool and
threaded test harness live here once instead of twice.

* :class:`BaseHttpServer` — ``asyncio.start_server`` lifecycle, request
  parsing, response rendering and the last-ditch 500 handler; each
  connection serves requests one after another until the client sends
  ``Connection: close``, a route ends it (a relayed stream whose
  upstream was cut), or it sits idle for :data:`IDLE_TIMEOUT_S`.
  Subclasses implement :meth:`BaseHttpServer._route`.
* :class:`ThreadedHttpServer` — runs any :class:`BaseHttpServer` on a
  background daemon thread with a cross-thread :meth:`call` bridge; the
  harness tests, benchmarks and notebooks use to drive a server without
  blocking.
* :class:`UpstreamPool` — the coordinator's client half: a few idle
  keep-alive connections to one upstream, reused request after request,
  whole responses (:meth:`UpstreamPool.fetch`) and streams
  (:meth:`UpstreamPool.request`) alike.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from concurrent.futures import Future
from typing import Dict, List, Optional, Set, Tuple

#: Largest request body accepted (a job spec is ~200 bytes).
MAX_BODY_BYTES = 1 << 20

#: Seconds a server keeps an idle keep-alive connection open while it
#: waits for the next request.
IDLE_TIMEOUT_S = 30.0

#: Idle connections an :class:`UpstreamPool` keeps for reuse.
POOL_SIZE = 4

#: One open connection: the asyncio stream pair.
Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def read_request(reader: asyncio.StreamReader
                       ) -> Optional[Tuple[str, str, Dict[str, str], bytes,
                                           bool]]:
    """Parse one request: ``(METHOD, target, headers, body, keep_alive)``.

    None at a clean end of the connection.  ``keep_alive`` is False when
    the client sent ``Connection: close`` or speaks HTTP/1.0.
    """
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    try:
        method, path, version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        return None
    headers = await _read_headers(reader)
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ValueError("request body too large (%d bytes)" % length)
    body = await reader.readexactly(length) if length else b""
    keep_alive = (version.strip().upper() == "HTTP/1.1"
                  and "close" not in headers.get("connection", "").lower())
    return method.upper(), path, headers, body, keep_alive


async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    """Header lines up to the blank line; EOF before it is a truncation."""
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            return headers
        if not line.endswith(b"\n"):
            raise asyncio.IncompleteReadError(line, None)
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def render_response(status: int, payload,
                    content_type: str = "application/json",
                    extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    """One full HTTP/1.1 response, framed by ``Content-Length``, as bytes.

    Dicts and lists are sent as compact JSON.
    """
    if isinstance(payload, (dict, list)):
        body = (json.dumps(payload) + "\n").encode()
    elif isinstance(payload, str):
        body = payload.encode()
    else:
        body = payload
    return _render_head(status, content_type,
                        "Content-Length: %d" % len(body),
                        extra_headers) + body


def render_stream_head(content_type: str,
                       extra_headers: Optional[Dict[str, str]] = None
                       ) -> bytes:
    """The head of a 200 response whose body follows in chunks.

    Send each piece of the body as :func:`render_chunk` and end it with
    :data:`LAST_CHUNK`; the connection then serves the next request.
    """
    return _render_head(200, content_type, "Transfer-Encoding: chunked",
                        extra_headers)


def render_chunk(data: bytes) -> bytes:
    """One non-empty chunk of a chunked body."""
    return b"%x\r\n%s\r\n" % (len(data), data)


#: The zero-length chunk that ends a chunked body (no trailers).
LAST_CHUNK = b"0\r\n\r\n"


def _render_head(status: int, content_type: str, framing: str,
                 extra_headers: Optional[Dict[str, str]]) -> bytes:
    lines = [
        "HTTP/1.1 %d %s" % (status, _STATUS_TEXT.get(status, "Unknown")),
        "Content-Type: %s" % content_type,
        framing,
    ]
    for name, value in (extra_headers or {}).items():
        lines.append("%s: %s" % (name, value))
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def end_connection(writer: asyncio.StreamWriter) -> None:
    """Close a served connection so that its client sees it end.

    A worker process forked while the connection was open (the
    supervisor's process pool) holds a copy of its socket, and close()
    alone sends no FIN while a copy is open: the client would keep
    sending on a pooled connection nobody reads.  Shutting the socket's
    write side down first ends it for every copy.
    """
    sock = writer.get_extra_info("socket")
    if (sock is not None and not writer.is_closing()
            and not writer.transport.get_write_buffer_size()):
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
    writer.close()


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
        """Serve requests on one connection until it should close.

        That is when the client asks for it, when a route closes the
        connection (the coordinator does when the upstream half of an
        event stream it relays is cut), after a failed request, or when
        no request starts within :data:`IDLE_TIMEOUT_S`.  Every response
        is framed, by ``Content-Length`` or as chunks, so a finished
        event stream leaves the connection ready for the next request.
        """
        loop = asyncio.get_running_loop()
        try:
            while True:
                idle = loop.call_later(IDLE_TIMEOUT_S, end_connection,
                                       writer)
                try:
                    request = await read_request(reader)
                finally:
                    idle.cancel()
                if request is None:
                    return
                method, path, headers, body, keep_alive = request
                await self._route(method, path, headers, body, writer)
                if not keep_alive or writer.is_closing():
                    return
                await writer.drain()
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
                end_connection(writer)
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


class _StaleConnection(OSError):
    """A reused connection failed before any byte of the response."""


class UpstreamPool:
    """Keep-alive HTTP/1.1 connections to one upstream ``(host, port)``.

    :meth:`fetch` (a whole response) and :meth:`request` (a response
    read as it arrives, such as an event stream) send each request on an
    idle pooled connection when a live one is there, on a new connection
    otherwise.  The rules:

    * A reused connection that fails before any byte of the response
      arrives (the peer closed it while it sat idle) is retried once, on
      a new connection.  Nothing else is retried: not a failure on a new
      connection, not one after part of a response arrived.
    * A connection goes back to the pool only after its response was
      read to the end, all ``Content-Length`` bytes or the last chunk,
      and did not say ``Connection: close``.  A timeout, a cancellation,
      a transport error, a truncated body or a cut chunk closes it.
    * Connections are kept only while the pool is open (:meth:`open`
      until :meth:`close`), at most :data:`POOL_SIZE` of them; a closed
      pool closes each connection after its one exchange.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._idle: List[Connection] = []
        self._open = False

    @property
    def idle(self) -> int:
        """Connections waiting for reuse."""
        return len(self._idle)

    def open(self) -> None:
        """Start keeping connections for reuse."""
        self._open = True

    async def close(self) -> None:
        """Stop keeping connections and close the idle ones."""
        self._open = False
        idle, self._idle = self._idle, []
        for _, writer in idle:
            writer.close()
        for _, writer in idle:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def fetch(self, method: str, path: str,
                    body: Optional[bytes] = None,
                    headers: Optional[Dict[str, str]] = None,
                    timeout: float = 30.0
                    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request; returns ``(status, headers, body)``.

        ``timeout`` bounds the whole exchange, a stale-connection retry
        included.  Transport failures (a truncated body too) raise
        ``OSError`` so callers can feed circuit breakers.
        """
        return await asyncio.wait_for(
            self._fetch(method, path, body, headers), timeout)

    async def _fetch(self, method: str, path: str, body: Optional[bytes],
                     headers: Optional[Dict[str, str]]
                     ) -> Tuple[int, Dict[str, str], bytes]:
        response = await self.request(method, path, body, headers)
        try:
            return response.status, response.headers, await response.read()
        finally:
            response.release()

    async def request(self, method: str, path: str,
                      body: Optional[bytes] = None,
                      headers: Optional[Dict[str, str]] = None
                      ) -> "UpstreamResponse":
        """Send one request; return its response once the head arrived.

        The caller reads the body and then calls
        :meth:`UpstreamResponse.release`, in a ``finally``.  Transport
        failures raise ``OSError``; nothing bounds the wait.
        """
        request = render_request(method, path, body, headers)
        conn = self._checkout()
        if conn is not None:
            try:
                return await self._start(conn, request, reused=True)
            except _StaleConnection:
                pass  # closed while idle: once more, on a new connection
        conn = await asyncio.open_connection(self.host, self.port)
        return await self._start(conn, request, reused=False)

    def _checkout(self) -> Optional[Connection]:
        """The most recently used idle connection the peer has not closed."""
        while self._idle:
            reader, writer = self._idle.pop()
            if not (reader.at_eof() or reader.exception() is not None
                    or writer.is_closing()):
                return reader, writer
            writer.close()
        return None

    async def _start(self, conn: Connection, request: bytes,
                     reused: bool) -> "UpstreamResponse":
        """Send ``request`` on ``conn`` and read the response head;
        closes ``conn`` on any failure."""
        reader, writer = conn
        try:
            try:
                writer.write(request)
                await writer.drain()
                first = await reader.read(1)
            except ConnectionError:
                if reused:
                    raise _StaleConnection("idle connection was closed")
                raise
            if not first:
                raise (_StaleConnection if reused else OSError)(
                    "upstream closed the connection before responding")
            status, headers = await read_response_head(reader, first)
        except BaseException:
            writer.close()
            raise
        return UpstreamResponse(self, conn, status, headers)

    def _release(self, conn: Connection, reusable: bool) -> None:
        if reusable and self._open and len(self._idle) < POOL_SIZE:
            self._idle.append(conn)
        else:
            conn[1].close()


class UpstreamResponse:
    """A response from an :class:`UpstreamPool` whose head has arrived.

    The body is read on demand, whole (:meth:`read`) or chunk by chunk
    (:meth:`next_chunk`).  A cut or malformed chunk, a short body, or a
    body framed by neither ``Content-Length`` nor chunked encoding raises
    ``OSError`` (a transport fault, so breaker-feeding callers catch it).
    """

    def __init__(self, pool: UpstreamPool, conn: Connection, status: int,
                 headers: Dict[str, str]):
        self.status = status
        self.headers = headers
        self.chunked = "chunked" in headers.get("transfer-encoding",
                                                "").lower()
        #: True once the body was read to its end.
        self.complete = False
        self._pool = pool
        self._conn = conn

    async def next_chunk(self) -> Optional[bytes]:
        """The next chunk of a chunked body; None after the last one."""
        reader = self._conn[0]
        try:
            line = await reader.readline()
            if not line.endswith(b"\n"):
                raise ValueError("cut chunk size line")
            size = int(line.split(b";", 1)[0], 16)
            data = await reader.readexactly(size + 2)
        except (ValueError, asyncio.IncompleteReadError) as exc:
            raise OSError("cut chunk in upstream response") from exc
        if not data.endswith(b"\r\n"):
            raise OSError("malformed chunk in upstream response")
        if not size:
            self.complete = True
            return None
        return data[:-2]

    async def read(self) -> bytes:
        """The rest of the body."""
        if self.chunked:
            pieces = []
            piece = await self.next_chunk()
            while piece is not None:
                pieces.append(piece)
                piece = await self.next_chunk()
            return b"".join(pieces)
        length = self.headers.get("content-length")
        if length is None:
            raise OSError("upstream response is framed by neither "
                          "Content-Length nor chunked encoding")
        try:
            data = await self._conn[0].readexactly(int(length))
        except asyncio.IncompleteReadError as exc:
            # IncompleteReadError is an EOFError, not an OSError.
            raise OSError(
                "truncated upstream response (%d of %s body bytes)"
                % (len(exc.partial), length)) from exc
        self.complete = True
        return data

    def release(self) -> None:
        """Give the connection back to the pool if the body was read to
        its end and the upstream did not ask to close; close it
        otherwise."""
        self._pool._release(self._conn, self.complete and "close" not in
                            self.headers.get("connection", "").lower())


def render_request(method: str, path: str, body: Optional[bytes] = None,
                   headers: Optional[Dict[str, str]] = None) -> bytes:
    """One full HTTP/1.1 request as bytes."""
    lines = ["%s %s HTTP/1.1" % (method, path)]
    for name, value in (headers or {}).items():
        lines.append("%s: %s" % (name, value))
    if body:
        lines.append("Content-Type: application/json")
        lines.append("Content-Length: %d" % len(body))
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + (body or b"")


async def read_response_head(reader: asyncio.StreamReader, first: bytes
                             ) -> Tuple[int, Dict[str, str]]:
    """Parse an upstream status line + headers (body left unread).

    ``first`` holds bytes of the status line already read.  A head cut
    short by the peer raises ``OSError``.
    """
    status_line = first + await reader.readline()
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise OSError("malformed upstream status line %r" % status_line)
    try:
        headers = await _read_headers(reader)
    except asyncio.IncompleteReadError as exc:
        raise OSError("truncated upstream response head") from exc
    return int(parts[1]), headers


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
