"""Fuzzed ``serve.proto.RequestParser``: segmentation and corruption.

The event loop feeds the parser whatever bytes each socket read
returns, so the parser sits on the server's trust boundary and must not
care how the kernel cut the stream.  Two bounded hypothesis properties
pin that:

1. any segmentation of one valid pipelined stream — a GET, a POST with
   ``Content-Length``, a chunked POST with an extension and a trailer,
   and an HTTP/1.0 keep-alive GET — yields the same requests as feeding
   it whole;
2. byte flips, truncations, inserted garbage and inserted header-like
   token soup raise only :class:`ProtocolError` (with a status the
   transport maps: 400, 413, 431 or 501), whatever the segmentation.
"""

from hypothesis import given, settings, strategies as st

from repro.serve.proto import ParsedRequest, ProtocolError, RequestParser

BODY = b'{"chart": "volume"}'
STREAM = (
    b"GET /api/runs?limit=2 HTTP/1.1\r\nHost: x\r\n"
    b"Accept: application/json\r\n\r\n"
    b"POST /api/insights HTTP/1.1\r\nHost: x\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s"
    b"POST /api/runs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
    b"Expect: 100-continue\r\n\r\n"
    b"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n"
    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
) % (len(BODY), BODY)

#: what a protocol error may carry: the statuses the module documents
STATUSES = {400, 413, 431, 501}


def _fields(requests: list[ParsedRequest]) -> list[tuple]:
    return [(r.method, r.target, r.version, r.headers, r.body, r.keep_alive)
            for r in requests]


def _segments(blob: bytes, cuts: list[int]) -> list[bytes]:
    bounds = [0, *sorted(min(c, len(blob)) for c in cuts), len(blob)]
    return [blob[a:b] for a, b in zip(bounds, bounds[1:])]


WHOLE = _fields(RequestParser().feed(STREAM))


def test_the_stream_holds_every_request_kind():
    """Vacuity guard for property 1."""
    assert [(m, t, b) for m, t, _, _, b, _ in WHOLE] == [
        ("GET", "/api/runs?limit=2", b""),
        ("POST", "/api/insights", BODY),
        ("POST", "/api/runs", b"hello world"),
        ("GET", "/healthz", b""),
    ]
    assert WHOLE[3][2] == "HTTP/1.0" and WHOLE[3][5]


def test_one_byte_at_a_time():
    parser = RequestParser()
    out = []
    for i in range(len(STREAM)):
        out += parser.feed(STREAM[i:i + 1])
    assert _fields(out) == WHOLE
    assert not parser.mid_request


@settings(max_examples=300, deadline=None)
@given(cuts=st.lists(st.integers(0, len(STREAM)), max_size=40))
def test_any_segmentation_yields_the_same_requests(cuts):
    parser = RequestParser()
    out = []
    for segment in _segments(STREAM, cuts):
        out += parser.feed(segment)
    assert _fields(out) == WHOLE
    assert not parser.mid_request


# -- corruption -------------------------------------------------------------------

_LIMITS = st.sampled_from([{}, {"max_head_bytes": 128, "max_body_bytes": 16}])
_TOKENS = st.sampled_from([
    b"\r\n", b"\r\n\r\n", b":", b" ", b";", b"GET", b"POST", b"HTTP/1.1",
    b"HTTP/2", b"Content-Length:", b"Transfer-Encoding:", b"chunked",
    b"gzip", b"Expect: 100-continue", b"0", b"5", b"-1", b"0x10", b"1e3",
    b"f" * 40, b"9" * 5000, b"\xff", b"\x00", b"\t"])
_SOUP = st.lists(_TOKENS, max_size=12).map(b"".join)


def _feed_only_protocol_errors(blob: bytes, cuts: list[int],
                               limits: dict) -> None:
    parser = RequestParser(**limits)
    try:
        for segment in _segments(blob, cuts):
            for req in parser.feed(segment):
                assert isinstance(req, ParsedRequest)
                assert isinstance(req.keep_alive, bool)
            assert isinstance(parser.expects_continue, bool)
    except ProtocolError as err:
        assert err.status in STATUSES


@settings(max_examples=400, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, len(STREAM) - 1),
                                st.integers(1, 255)), min_size=1, max_size=6),
       cut=st.integers(0, len(STREAM)),
       cuts=st.lists(st.integers(0, len(STREAM)), max_size=8),
       limits=_LIMITS)
def test_byte_flips_and_truncations_raise_only_protocol_errors(
        flips, cut, cuts, limits):
    blob = bytearray(STREAM)
    for at, mask in flips:
        blob[at] ^= mask
    _feed_only_protocol_errors(bytes(blob[:cut]), cuts, limits)


@settings(max_examples=400, deadline=None)
@given(inserts=st.lists(st.tuples(st.integers(0, len(STREAM)),
                                  st.binary(max_size=64) | _SOUP),
                        min_size=1, max_size=4),
       cuts=st.lists(st.integers(0, len(STREAM) + 256), max_size=8),
       limits=_LIMITS)
def test_inserted_garbage_raises_only_protocol_errors(inserts, cuts, limits):
    blob = STREAM
    for at, junk in sorted(inserts, reverse=True):
        blob = blob[:at] + junk + blob[at:]
    _feed_only_protocol_errors(blob, cuts, limits)


@settings(max_examples=200, deadline=None)
@given(blob=st.binary(max_size=512), limits=_LIMITS)
def test_pure_garbage_raises_only_protocol_errors(blob, limits):
    _feed_only_protocol_errors(blob, [], limits)
