"""Fixed-length 56-byte discovery message codec.

Frame layout (all big-endian):

    offset  size  field
    ------  ----  ---------------------------------------------
         0     8  node identifier (unsigned 64-bit)
         8     8  latitude, degrees (IEEE 754 double)
        16     8  longitude, degrees (IEEE 754 double)
        24     8  coordination radius, meters (IEEE 754 double)
        32    16  address (IPv6; IPv4 stored v4-mapped ::ffff:a.b.c.d)
        48     8  timestamp, ms since Unix epoch (unsigned 64-bit)

Every frame is exactly 56 bytes regardless of address family.
"""

import math
import struct
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv6Address

FRAME_LEN = 56

_HEADER = struct.Struct(">Qddd")
_TS = struct.Struct(">Q")


class FrameLengthError(ValueError):
    """Frame is not exactly 56 bytes."""


class FieldRangeError(ValueError):
    """Decoded field is out of its valid range (corrupt or hostile frame)."""


@dataclass(frozen=True, slots=True)
class DiscoveryItem:
    node_id: int
    latitude: float
    longitude: float
    radius: float
    address: IPv4Address | IPv6Address
    timestamp_ms: int

    def __post_init__(self):
        if not 0 <= self.node_id < 1 << 64:
            raise ValueError(f"node_id out of 64-bit range: {self.node_id}")
        if not 0 <= self.timestamp_ms < 1 << 64:
            raise ValueError(f"timestamp out of 64-bit range: {self.timestamp_ms}")
        check_ranges(self.latitude, self.longitude, self.radius)


def check_ranges(lat, lon, radius):
    """Raise FieldRangeError unless the coordinates and radius are valid."""
    if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
        raise FieldRangeError(f"latitude out of range: {lat!r}")
    if not (math.isfinite(lon) and -180.0 <= lon < 180.0):
        raise FieldRangeError(f"longitude out of range: {lon!r}")
    if not (math.isfinite(radius) and radius >= 0.0):
        raise FieldRangeError(f"radius out of range: {radius!r}")


def encode(item: DiscoveryItem) -> bytes:
    addr = item.address
    if isinstance(addr, IPv4Address):
        addr = IPv6Address(0xFFFF00000000 | int(addr))  # v4-mapped
    frame = (
        _HEADER.pack(item.node_id, item.latitude, item.longitude, item.radius)
        + addr.packed
        + _TS.pack(item.timestamp_ms)
    )
    assert len(frame) == FRAME_LEN
    return frame


def decode(frame: bytes) -> DiscoveryItem:
    if len(frame) != FRAME_LEN:
        raise FrameLengthError(f"expected {FRAME_LEN} bytes, got {len(frame)}")
    node_id, lat, lon, radius = _HEADER.unpack(frame[:32])
    address: IPv4Address | IPv6Address = IPv6Address(frame[32:48])
    mapped = address.ipv4_mapped
    if mapped is not None:
        address = mapped
    (ts,) = _TS.unpack(frame[48:56])
    return DiscoveryItem(node_id, lat, lon, radius, address, ts)
