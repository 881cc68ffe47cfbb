"""The service path's one HTTP/1.1 codec, and the servers and pool on it.

The service server (:mod:`repro.service.server`), the cluster
coordinator (:mod:`repro.cluster.coordinator`) and the blocking
:class:`~repro.service.client.ServiceClient` speak one small dialect:
keep-alive connections, JSON bodies framed by ``Content-Length``, event
streams framed as chunks, one server-sent event per chunk.

* The codec is sans-IO: :class:`HttpParser` turns the bytes a hop
  received into heads, body pieces and :data:`END`, and the ``render_*``
  functions, :func:`split_events` and :data:`LAST_CHUNK` do the rest; no
  socket is touched.  The parser rules on an end of stream: no byte of
  a response on a reused connection is :class:`_StaleConnection`, which
  both client transports retry once on a new connection; any other end
  before the message is complete is a :class:`TruncatedResponse`.  A
  message that breaks the framing rules is a :class:`BadMessage`, which
  a server answers with its ``status`` (400 or 413) before it closes.
* :class:`BaseHttpServer` feeds each connection into a parser and routes
  one request after another until the client sends ``Connection:
  close``, a route ends it, or it sits idle for :data:`IDLE_TIMEOUT_S`.
* :class:`ThreadedHttpServer` runs one on a background thread, with a
  cross-thread :meth:`~ThreadedHttpServer.call` bridge for tests.
* :class:`UpstreamPool` is the coordinator's client half: a few idle
  keep-alive connections to one upstream.
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import threading
from concurrent.futures import Future
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

#: Largest request body accepted (a job spec is ~200 bytes).
MAX_BODY_BYTES = 1 << 20

#: Seconds a server keeps an idle keep-alive connection open while it
#: waits for the next request.
IDLE_TIMEOUT_S = 30.0

#: Idle connections an :class:`UpstreamPool` keeps for reuse.
POOL_SIZE = 4

#: One open connection: the asyncio stream pair.
Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]

#: Bytes a transport asks its socket or stream for at a time.
READ_SIZE = 65536

#: Longest head the parser waits for.
_MAX_HEAD_BYTES = 65536

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class TruncatedResponse(ConnectionError):
    """A message cut short: the stream ended inside it (or, on a new
    connection, before a response began)."""


class _StaleConnection(ConnectionError):
    """A reused connection ended before any byte of the response."""


class BadMessage(OSError):
    """A message that breaks the framing rules; ``status`` is a server's
    answer to such a request."""

    def __init__(self, reason: str, status: int = 400):
        super().__init__(reason)
        self.status = status


class Head(NamedTuple):
    """A parsed head; ``method``/``target`` are empty in a response and
    ``status`` is 0 in a request.  Header names are lower-case."""

    method: str
    target: str
    status: int
    headers: Dict[str, str]
    keep_alive: bool
    chunked: bool


#: :meth:`HttpParser.next_event`: feed more bytes first.
NEED_DATA = object()
#: :meth:`HttpParser.next_event`: the message is complete.
END = object()

_HEAD_END = re.compile(rb"\r?\n\r?\n")
# Bounded, so no number a peer sends can take long to convert.
_DIGITS = re.compile(r"[0-9]{1,18}")
_HEX = re.compile(rb"[0-9A-Fa-f]{1,16}")
_HEAD, _LENGTH, _CHUNK, _DONE = range(4)


class HttpParser:
    """Requests (``request=True``) or responses, from bytes as they arrive.

    :meth:`feed` takes every byte the peer sends, ``b""`` at the end of
    the stream; :meth:`next_event` returns what they complete: a
    :class:`Head`, a body piece (the whole ``Content-Length`` body, or
    one chunk), :data:`END` or :data:`NEED_DATA`.  A request parser then
    reads the next request, and returns None if the stream ends before
    one begins.  A request body over :data:`MAX_BODY_BYTES` (413) or
    framed by ``Transfer-Encoding`` is a :class:`BadMessage`, as is a
    response framed by neither length nor chunks.
    """

    def __init__(self, request: bool = False, reused: bool = False):
        self._request = request
        self._kind = "request" if request else "response"
        self._reused = reused
        self._buffer = bytearray()
        self._eof = False
        self._state = _HEAD
        self._length = 0
        #: A byte of the current message arrived.
        self._started = False
        self._keep_alive = False
        self._complete = False

    @property
    def reusable(self) -> bool:
        """The message ended, its connection may carry the next one and
        no byte beyond it arrived."""
        return self._complete and self._keep_alive and not self._buffer

    def feed(self, data: bytes) -> None:
        if data:
            self._buffer += data
            self._started = True
        else:
            self._eof = True

    def next_event(self):
        buf = self._buffer
        if self._state == _HEAD:
            end = _HEAD_END.search(buf)
            if end is None:
                if len(buf) > _MAX_HEAD_BYTES:
                    raise BadMessage("head over %d bytes" % _MAX_HEAD_BYTES)
                return self._starved("head")
            head = self._parse_head(bytes(buf[:end.start()]))
            del buf[:end.end()]
            return head
        if self._state == _LENGTH:
            if len(buf) < self._length:
                return self._starved("body")
            piece = bytes(buf[:self._length])
            del buf[:self._length]
            self._state = _DONE
            return piece
        if self._state == _CHUNK:
            line_end = buf.find(b"\r\n")
            if line_end < 0:
                return self._starved("chunk")
            size = bytes(buf[:line_end]).split(b";", 1)[0].strip()
            if not _HEX.fullmatch(size):
                raise BadMessage("malformed chunk size %r" % size)
            start = line_end + 2
            end = start + int(size, 16)
            if len(buf) < end + 2:
                return self._starved("chunk")
            if buf[end:end + 2] != b"\r\n":
                raise BadMessage("chunk not followed by CRLF")
            piece = bytes(buf[start:end])
            del buf[:end + 2]
            if piece:
                return piece
        # The last chunk, or the end of a Content-Length body.
        self._state = _HEAD
        self._started = bool(buf)
        self._complete = True
        return END

    def _starved(self, part: str):
        if not self._eof:
            return NEED_DATA
        if self._started:
            raise TruncatedResponse("truncated %s: cut short inside its %s"
                                    % (self._kind, part))
        if self._request:
            return None
        if self._reused:
            raise _StaleConnection("the peer closed an idle connection")
        raise TruncatedResponse("the peer closed the connection before "
                                "responding")

    def _parse_head(self, raw: bytes) -> Head:
        start, *lines = raw.decode("latin-1").split("\n")
        parts = start.split()
        if self._request:
            if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                raise BadMessage("malformed request line %r" % start)
            method, target, version = parts
            status = 0
        elif (len(parts) < 2 or not parts[0].startswith("HTTP/")
              or not (len(parts[1]) == 3 and _DIGITS.fullmatch(parts[1]))):
            raise BadMessage("malformed status line %r" % start)
        else:
            method = target = ""
            version, status = parts[0], int(parts[1])
        headers: Dict[str, str] = {}
        for line in lines:
            name, colon, value = line.partition(":")
            if not colon or not name.strip():
                raise BadMessage("malformed header line %r" % line)
            headers[name.strip().lower()] = value.strip()
        self._keep_alive = (version == "HTTP/1.1" and "close" not in
                            headers.get("connection", "").lower())
        self._complete = False
        coding = headers.get("transfer-encoding")
        length = headers.get("content-length", "0" if self._request else None)
        if coding is not None:
            if self._request or coding.lower() != "chunked":
                raise BadMessage("%s framed by Transfer-Encoding %r"
                                 % (self._kind, coding))
            self._state = _CHUNK
        elif length is None:
            raise BadMessage("response framed by neither Content-Length "
                             "nor chunked encoding")
        elif not _DIGITS.fullmatch(length):
            raise BadMessage("%s Content-Length %r is not a byte count"
                             % (self._kind, length))
        elif self._request and int(length) > MAX_BODY_BYTES:
            raise BadMessage("request body too large (%s bytes)" % length,
                             status=413)
        else:
            self._length = int(length)
            self._state = _LENGTH if self._length else _DONE
        return Head(method.upper(), target, status, headers,
                    self._keep_alive, coding is not None)


class SseEvent(NamedTuple):
    """One server-sent event; ``id`` is None without a numeric ``id:``."""

    id: Optional[int]
    event: Optional[str]
    data: str


def split_events(data: bytes) -> Tuple[List[SseEvent], bytes]:
    """The complete events in an event-stream ``data``, and the bytes
    after the last of them (feed those back with the next piece).  A
    block without a ``data:`` field is not an event."""
    *blocks, rest = data.split(b"\n\n")
    events = []
    for block in blocks:
        fields: Dict[str, str] = {}
        for line in block.decode("utf-8", "replace").split("\n"):
            name, _, value = line.partition(":")
            fields[name.strip()] = value.strip()
        if "data" in fields:
            events.append(SseEvent(parse_event_id(fields.get("id", "")),
                                   fields.get("event"), fields["data"]))
    return events, rest


def parse_event_id(text: str) -> Optional[int]:
    """An event ID (``id:`` or ``Last-Event-ID``) if it is a number."""
    return int(text) if _DIGITS.fullmatch(text) else None


async def next_event(reader: asyncio.StreamReader, parser: HttpParser):
    """``parser``'s next event other than :data:`NEED_DATA`, reading
    ``reader`` as it needs bytes."""
    while True:
        event = parser.next_event()
        if event is not NEED_DATA:
            return event
        try:
            data = await reader.read(READ_SIZE)
        except ConnectionError:
            data = b""
        parser.feed(data)


async def read_body(reader: asyncio.StreamReader, parser: HttpParser
                    ) -> bytes:
    """The rest of the current message's body."""
    pieces = []
    while True:
        event = await next_event(reader, parser)
        if event is END:
            return b"".join(pieces)
        pieces.append(event)


def _render(start: str, headers: Dict[str, str], body: bytes = b"") -> bytes:
    lines = [start] + ["%s: %s" % header for header in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def render_request(method: str, path: str, body: Optional[bytes] = None,
                   headers: Optional[Dict[str, str]] = None) -> bytes:
    """One full HTTP/1.1 request as bytes; a body is sent as JSON."""
    headers = dict(headers or {})
    if body:
        headers.update({"Content-Type": "application/json",
                        "Content-Length": len(body)})
    return _render("%s %s HTTP/1.1" % (method, path), headers, body or b"")


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
                        {"Content-Length": len(body)}, extra_headers, body)


def render_stream_head(content_type: str,
                       extra_headers: Optional[Dict[str, str]] = None
                       ) -> bytes:
    """The head of a 200 response whose body follows as
    :func:`render_chunk` pieces ended by :data:`LAST_CHUNK`."""
    return _render_head(200, content_type, {"Transfer-Encoding": "chunked"},
                        extra_headers)


def render_chunk(data: bytes) -> bytes:
    """One non-empty chunk of a chunked body."""
    return b"%x\r\n%s\r\n" % (len(data), data)


#: The zero-length chunk that ends a chunked body (no trailers).
LAST_CHUNK = b"0\r\n\r\n"


def render_sse(event_id: int, event: str, data: str) -> bytes:
    """One server-sent event: its ``id:``, ``event:`` and one-line
    ``data:`` fields."""
    return ("id: %d\nevent: %s\ndata: %s\n\n"
            % (event_id, event, data)).encode()


def _render_head(status: int, content_type: str, framing: Dict[str, object],
                 extra_headers: Optional[Dict[str, str]],
                 body: bytes = b"") -> bytes:
    return _render(
        "HTTP/1.1 %d %s" % (status, _STATUS_TEXT.get(status, "Unknown")),
        {"Content-Type": content_type, **framing, **(extra_headers or {})},
        body)


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
        """Serve requests on one connection until the client asks to
        close, a route closes it (the coordinator does when the upstream
        half of a relayed event stream is cut), a request fails or is
        malformed, or none starts within :data:`IDLE_TIMEOUT_S`."""
        loop = asyncio.get_running_loop()
        parser = HttpParser(request=True)
        try:
            while True:
                idle = loop.call_later(IDLE_TIMEOUT_S, end_connection,
                                       writer)
                try:
                    head = await next_event(reader, parser)
                    body = b"" if head is None else await read_body(reader,
                                                                    parser)
                except BadMessage as exc:
                    self._respond(writer, exc.status, {"error": str(exc)})
                    return
                finally:
                    idle.cancel()
                if head is None:
                    return
                await self._route(head.method, head.target, head.headers,
                                  body, writer)
                if not head.keep_alive or writer.is_closing():
                    return
                await writer.drain()
        except ConnectionError:
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


class UpstreamPool:
    """Keep-alive HTTP/1.1 connections to one upstream ``(host, port)``.

    :meth:`fetch` (a whole response) and :meth:`request` (a response
    read as it arrives, such as an event stream) send each request on an
    idle pooled connection when a live one is there, on a new one
    otherwise; a reused connection that ends before any byte of the
    response is retried once, and nothing else is.  A connection goes
    back to the pool only when its response was read to the end and did
    not say ``Connection: close`` (a timeout, a cancellation or a cut
    closes it), and only while the pool is open (:meth:`open` until
    :meth:`close`), at most :data:`POOL_SIZE` of them.
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
        """One request; returns ``(status, headers, body)``.  ``timeout``
        bounds the whole exchange, a stale-connection retry included;
        transport failures raise ``OSError`` (breakers count them)."""
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
        The caller reads the body, then calls
        :meth:`UpstreamResponse.release` in a ``finally``."""
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
        parser = HttpParser(reused=reused)
        try:
            writer.write(request)
            try:
                await writer.drain()
            except ConnectionError:
                pass  # the parser tells a stale connection from a cut one
            head = await next_event(reader, parser)
        except BaseException:
            writer.close()
            raise
        return UpstreamResponse(self, conn, parser, head)

    def _release(self, conn: Connection, reusable: bool) -> None:
        if reusable and self._open and len(self._idle) < POOL_SIZE:
            self._idle.append(conn)
        else:
            conn[1].close()


class UpstreamResponse:
    """A response from an :class:`UpstreamPool` whose head has arrived;
    its body is read whole (:meth:`read`) or piece by piece
    (:meth:`next_chunk`), and a cut or malformed one raises ``OSError``."""

    def __init__(self, pool: UpstreamPool, conn: Connection,
                 parser: HttpParser, head: Head):
        self.status = head.status
        self.headers = head.headers
        self.chunked = head.chunked
        self._pool = pool
        self._conn = conn
        self._parser = parser

    async def next_chunk(self) -> Optional[bytes]:
        """The next chunk of a chunked body (a ``Content-Length`` body
        is one piece); None after the last one."""
        piece = await next_event(self._conn[0], self._parser)
        return None if piece is END else piece

    async def read(self) -> bytes:
        """The rest of the body."""
        return await read_body(self._conn[0], self._parser)

    def release(self) -> None:
        """Give the connection back to the pool if the body was read to
        its end and the upstream did not ask to close; close it
        otherwise."""
        self._pool._release(self._conn, self._parser.reusable)


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
