"""The sans-IO HTTP/1.1 codec every service hop feeds its bytes into.

A transport hands :class:`~repro.service.http.HttpParser` whatever its
socket returned, so the parsed messages must not depend on where the
bytes were split: each canned transcript is fed whole and then split in
two at every position, and every split must give the same events.  A
stream that ends early must never pass for a complete message: every
strict prefix followed by the end of the stream raises
:class:`~repro.service.http.TruncatedResponse`, or reports a stale
connection (a reused response connection, or a request connection the
client closed between requests).  The renderers and the parser
round-trip, and a framing the parser cannot trust is a
:class:`~repro.service.http.BadMessage`: an ``OSError`` with the status a
server answers it with.
"""

import asyncio
import json

import pytest

from repro.service.http import (
    END,
    LAST_CHUNK,
    NEED_DATA,
    BadMessage,
    Head,
    HttpParser,
    SseEvent,
    TruncatedResponse,
    UpstreamPool,
    _StaleConnection,
    render_chunk,
    render_request,
    render_response,
    render_sse,
    render_stream_head,
    split_events,
)

SSE_BODY = (render_sse(0, "queued", '{"event": "queued"}')
            + b"event: progress\ndata: {\"done\": 1}\n\n"
            + b": a comment, not an event\n\n"
            + render_sse(7, "done", '{"event": "done"}'))

SSE_EVENTS = [SseEvent(0, "queued", '{"event": "queued"}'),
              SseEvent(None, "progress", '{"done": 1}'),
              SseEvent(7, "done", '{"event": "done"}')]

#: name -> (parser arguments, transcript, messages in it).
TRANSCRIPTS = {
    "request-head": (
        {"request": True},
        b"GET /jobs/abc/events HTTP/1.1\r\nX-Client: pytest\r\n"
        b"Last-Event-ID: 3\r\n\r\n", 1),
    "request-body": (
        {"request": True},
        render_request("POST", "/jobs", b'{"spec": {}}', {"X-Client": "a"}),
        1),
    "pipelined-requests": (
        {"request": True},
        render_request("POST", "/jobs", b"{}")
        + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 2),
    "response-length": (
        {}, render_response(200, {"status": "ok", "queue_depth": 0}), 1),
    "response-chunked-extension": (
        {},
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\n\r\n", 1),
    "response-sse": (
        {},
        render_stream_head("text/event-stream", {"Cache-Control": "no-cache"})
        + render_chunk(SSE_BODY[:40]) + render_chunk(SSE_BODY[40:])
        + LAST_CHUNK, 1),
}


def drain(parser, messages):
    """Every event ``parser`` has ready, up to ``messages`` ENDs; Heads
    as tuples, END as the string "END"."""
    events = []
    while events.count("END") < messages:
        event = parser.next_event()
        if event is NEED_DATA or event is None:
            break
        events.append("END" if event is END else event)
    return events


def parse(transcript, split=None, messages=1, **kwargs):
    """Feed ``transcript`` whole, or in two pieces cut at ``split``;
    the events and the parser."""
    parser = HttpParser(**kwargs)
    events = []
    pieces = ([transcript] if split is None
              else [transcript[:split], transcript[split:]])
    for piece in filter(None, pieces):  # b"" is the end of the stream
        parser.feed(piece)
        events += drain(parser, messages - events.count("END"))
    return events, parser


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_every_split_gives_the_same_messages(name):
    kwargs, transcript, messages = TRANSCRIPTS[name]
    whole, _ = parse(transcript, messages=messages, **kwargs)
    assert whole.count("END") == messages
    assert isinstance(whole[0], Head)
    for split in range(len(transcript) + 1):
        assert parse(transcript, split, messages, **kwargs)[0] == whole, split


@pytest.mark.parametrize("reused", [False, True])
@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_every_strict_prefix_then_eof_is_never_complete(name, reused):
    kwargs, transcript, messages = TRANSCRIPTS[name]
    request = kwargs.get("request", False)
    for end in range(len(transcript)):
        parser = HttpParser(request=request, reused=reused)
        parser.feed(transcript[:end])
        parser.feed(b"")
        try:
            events = drain(parser, messages)
        except _StaleConnection:
            assert end == 0 and reused and not request
            continue
        except TruncatedResponse as exc:
            assert "cut short" in str(exc) or end == 0, (end, exc)
            continue
        # Only a request connection may end cleanly, and only between
        # requests: the client closed it.
        assert request and parser.next_event() is None, end
        assert events.count("END") < messages, end


def test_head_fields():
    (head, body, end), _ = parse(TRANSCRIPTS["request-body"][1], request=True)
    assert head == Head("POST", "/jobs", 0,
                        {"x-client": "a", "content-type": "application/json",
                         "content-length": "12"}, True, False)
    assert (body, end) == (b'{"spec": {}}', "END")
    events, _ = parse(TRANSCRIPTS["pipelined-requests"][1], messages=2,
                      request=True)
    assert events[1:3] == [b"{}", "END"] and events[4] == "END"
    assert events[3][:3] == ("GET", "/healthz", 0)
    assert not events[3].keep_alive


def test_bare_lf_heads_are_accepted():
    events, _ = parse(b"GET /healthz HTTP/1.1\nX-Client: a\n\n", request=True)
    assert events[0].headers == {"x-client": "a"} and events[1:] == ["END"]


def test_response_round_trip():
    payload = {"id": "sim-1", "digest": "ab" * 32}
    events, parser = parse(render_response(
        429, payload, extra_headers={"Retry-After": "2"}))
    head, body, end = events
    assert (head.status, head.headers["retry-after"], end) == (429, "2", "END")
    assert json.loads(body) == payload
    assert parser.reusable


def test_chunked_round_trip_and_extension():
    events, parser = parse(TRANSCRIPTS["response-chunked-extension"][1])
    assert events[0].chunked
    assert events[1:] == [b"hello", b" world", "END"]
    assert parser.reusable


def test_sse_round_trip_through_the_chunks():
    events, _ = parse(TRANSCRIPTS["response-sse"][1])
    body = b"".join(events[1:-1])
    assert split_events(body) == (SSE_EVENTS, b"")


def test_sse_split_at_every_position():
    for split in range(len(SSE_BODY) + 1):
        first, rest = split_events(SSE_BODY[:split])
        second, rest = split_events(rest + SSE_BODY[split:])
        assert (first + second, rest) == (SSE_EVENTS, b""), split


def test_render_sse_round_trip():
    assert split_events(render_sse(12, "done", '{"a": 1}')) == \
        ([SseEvent(12, "done", '{"a": 1}')], b"")


def test_connection_close_and_extra_bytes_are_not_reusable():
    closing = render_response(200, {}, extra_headers={"Connection": "close"})
    assert not parse(closing)[1].reusable
    assert not parse(render_response(200, {}) + b"HTTP/1.1")[1].reusable
    parser = HttpParser()
    parser.feed(render_response(200, {})[:-1])
    drain(parser, 1)
    assert not parser.reusable


BAD_REQUESTS = {
    "oversized": (b"Content-Length: %d\r\n" % (2 << 20), 413),
    "negative-length": (b"Content-Length: -5\r\n", 400),
    "non-numeric-length": (b"Content-Length: abc\r\n", 400),
    "huge-length": (b"Content-Length: %s\r\n" % (b"9" * 5000), 400),
    "chunked": (b"Transfer-Encoding: chunked\r\n", 400),
    "header-without-colon": (b"X-Client pytest\r\n", 400),
}


@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_bad_request_framing_names_its_status(case):
    header, status = BAD_REQUESTS[case]
    parser = HttpParser(request=True)
    parser.feed(b"POST /jobs HTTP/1.1\r\n" + header + b"\r\n")
    with pytest.raises(BadMessage) as excinfo:
        parser.next_event()
    assert excinfo.value.status == status


@pytest.mark.parametrize("line", [b"GET /\r\n", b"GET / HTTP/1.1 x\r\n",
                                  b"\r\n"])
def test_malformed_request_line_is_400(line):
    parser = HttpParser(request=True)
    parser.feed(line + b"Host: x\r\n\r\n")
    with pytest.raises(BadMessage) as excinfo:
        parser.next_event()
    assert excinfo.value.status == 400


@pytest.mark.parametrize("response", [
    b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nunframed",
    b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%s\r\n"
    % (b"f" * 17),
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabc\r\n",
])
def test_malformed_response_is_a_transport_error(response):
    parser = HttpParser()
    parser.feed(response)
    with pytest.raises(OSError) as excinfo:
        drain(parser, 1)
    assert isinstance(excinfo.value, BadMessage)
    assert not isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize("length", [b"-5", b"abc"])
def test_pool_reports_a_bad_length_as_oserror(length):
    async def exchange():
        async def answer(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n"
                         % length)
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(answer, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(OSError, match="Content-Length"):
                await UpstreamPool("127.0.0.1", port).fetch("GET", "/healthz",
                                                            timeout=10)
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(exchange())
