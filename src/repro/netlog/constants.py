"""Constants mirroring Chrome's NetLog event vocabulary.

Chrome's network logging system ("NetLog") records every event on the
browser's network stack as a JSON object carrying an integer event ``type``,
a ``source`` (the entity that generated the event, identified by a serially
assigned id plus a source type), a ``phase`` (``BEGIN``/``END``/``NONE``) and
a timestamp.  The paper (section 3.1) keys its analysis off exactly these
four fields, so we reproduce the relevant subset of Chrome v84's vocabulary
here.  The integer values follow Chrome's ``net/log/net_log_event_type_list.h``
ordering loosely; what matters for interoperability is the *name* table that
Chrome embeds in the log's ``constants`` header, which our writer emits and
our parser consults.
"""

from __future__ import annotations

import enum


class EventPhase(enum.IntEnum):
    """Phase of a network event, as defined by Chrome's NetLog."""

    NONE = 0
    BEGIN = 1
    END = 2


class SourceType(enum.IntEnum):
    """The kind of entity that generated an event.

    Chrome assigns every logical network operation a *source* with a serial
    id and one of these types.  The paper filters browser-internal traffic
    (e.g. DNS probes Chrome makes for its own purposes) by source type; we
    keep the distinction for the same reason.
    """

    NONE = 0
    URL_REQUEST = 1
    SOCKET = 2
    HOST_RESOLVER_IMPL_JOB = 3
    HTTP_STREAM_JOB = 4
    WEB_SOCKET = 5
    CONNECT_JOB = 6
    # A simulated RTCPeerConnection: one ICE gathering session per
    # WebRTC-bearing page, owning candidate and STUN-check events.
    PEER_CONNECTION = 7
    # Chrome-internal sources that do not originate from web content.  The
    # detector must ignore these (section 3.1: "the Chrome browser itself
    # also generates network traffic, which we filter out based on the
    # network event source").
    BROWSER_INTERNAL = 100


class EventType(enum.IntEnum):
    """Network event types relevant to request monitoring."""

    REQUEST_ALIVE = 1
    URL_REQUEST_START_JOB = 2
    URL_REQUEST_REDIRECTED = 3
    HTTP_TRANSACTION_SEND_REQUEST = 10
    HTTP_TRANSACTION_READ_HEADERS = 11
    HOST_RESOLVER_IMPL_REQUEST = 20
    TCP_CONNECT = 30
    TCP_CONNECT_ATTEMPT = 31
    SSL_CONNECT = 32
    SOCKET_ERROR = 33
    WEB_SOCKET_SEND_HANDSHAKE_REQUEST = 40
    WEB_SOCKET_READ_HANDSHAKE_RESPONSE = 41
    # Emitted once per page navigation by our simulated browser; real Chrome
    # conveys the same information through URL_REQUEST events on the main
    # frame.  Kept distinct so analyses can anchor "page fetched" timestamps.
    PAGE_LOAD_COMMITTED = 90
    CANCELLED = 91
    # WebRTC / ICE channel (100-range).  Real Chrome logs ICE through
    # webrtc_event_log rather than NetLog; the simulation folds the subset
    # the leak analysis needs into the same checksummed stream so one
    # archive carries the whole visit.
    ICE_GATHERING = 100
    ICE_CANDIDATE_GATHERED = 101
    STUN_BINDING_REQUEST = 102
    STUN_BINDING_RESPONSE = 103
    MDNS_CANDIDATE_REGISTERED = 104


#: Name tables, in the shape Chrome embeds under the log's ``constants`` key.
EVENT_TYPE_NAMES: dict[int, str] = {e.value: e.name for e in EventType}
SOURCE_TYPE_NAMES: dict[int, str] = {s.value: s.name for s in SourceType}
PHASE_NAMES: dict[int, str] = {p.value: p.name for p in EventPhase}

EVENT_TYPES_BY_NAME: dict[str, EventType] = {e.name: e for e in EventType}
SOURCE_TYPES_BY_NAME: dict[str, SourceType] = {s.name: s for s in SourceType}

#: Code→member tables for the decoders: one dict lookup per field instead
#: of an enum constructor and its try/except per record.  A code that
#: misses its table is unknown to this vocabulary.
EVENT_TYPE_OF: dict[int, EventType] = {int(e): e for e in EventType}
SOURCE_TYPE_OF: dict[int, SourceType] = {int(s): s for s in SourceType}
PHASE_OF: dict[int, EventPhase] = {int(p): p for p in EventPhase}


#: Schemes a URL request may carry, as they appear in NetLog params.
SUPPORTED_SCHEMES = ("http", "https", "ws", "wss")

#: Default ports per scheme, used when a URL omits an explicit port.
DEFAULT_PORTS: dict[str, int] = {"http": 80, "https": 443, "ws": 80, "wss": 443}
