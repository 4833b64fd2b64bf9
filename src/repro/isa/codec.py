"""Compact binary trace codec (the ``TraceCodec``).

Serializes a trace into its flat-array columnar form and back.  Since the
column-native refactor, the codec is a thin framing layer around
:class:`~repro.isa.coltrace.ColumnTrace`: the in-memory representation and
the wire representation share one layout, so encoding is one ``tobytes()``
per column and decoding is one ``frombytes()`` per column -- **no**
``DynInst`` object graph is built on either side.

Why not pickle?  A pickled 30K-instruction trace is ~2 MB of per-object
overhead that both sides pay again on every transfer; the columnar form is
~25% smaller (and several times smaller than a decoded object graph),
versioned, checksummed (so an on-disk trace cache can detect torn or stale
entries), and its layout is owned by this module rather than by whatever
``pickle`` decides to emit for a frozen dataclass.

Wire layout (all little-endian)::

    b"SVWT" | u32 version | u32 header_len | header JSON | column bytes...

The JSON header records the trace name, instruction count, a CRC32 of the
column payload, and the ordered ``(column, typecode, item_count)`` table
the decoder slices the payload with.  Columns are :mod:`array` typecodes;
the variable-length register-source lists are stored as a flattened value
column plus an offsets column, the standard CSR trick.  Derived
per-instruction metadata (kind, latency, issue class) is not on the wire:
the decoded trace re-derives it from the op column.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array

from repro.isa.coltrace import INST_COLUMNS, ColumnTrace, narrowest_array
from repro.isa.inst import memory_signature

MAGIC = b"SVWT"

#: Bump on any change to the wire layout **or** to trace identity; cache
#: filenames embed this number, so bumping it turns stale on-disk entries
#: into plain regenerations.  Version 2 is the epoch-v2 fingerprint break:
#: the byte layout is unchanged from version 1, but v1-era cache entries
#: hold traces the numpy generator no longer reproduces, and their keys
#: (profile fingerprint + budget) would collide across the break.
#: Version 3 stops writing the derived ``meta_*`` columns.  Version 4 drops
#: the per-branch address-set columns (``wp_seq``/``wp_offsets``/``wp_flat``).
#: The decoder reads only this version.
CODEC_VERSION = 4

_HEADER_FMT = "<4sII"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


class TraceCodecError(ValueError):
    """Raised when a buffer is not a decodable encoded trace."""


def encode_trace(trace: ColumnTrace) -> bytes:
    """Serialize ``trace`` to bytes; the instruction columns are written
    as-is."""
    columns: dict[str, array] = {
        name: getattr(trace, name) for name, _, _ in INST_COLUMNS
    }
    columns["src_offsets"] = trace.src_offsets
    columns["src_flat"] = trace.src_flat

    # The initial memory image.  Its iteration order is preserved
    # bit-for-bit: nothing downstream should depend on it, but
    # "decode(encode(t)) is indistinguishable from t" is a far easier
    # invariant to test than "order never matters".
    columns["mem_addr"] = narrowest_array(trace.initial_memory.keys(), "I", "Q")
    columns["mem_value"] = array("Q", trace.initial_memory.values())

    table = [[name, col.typecode, len(col)] for name, col in columns.items()]
    payload = b"".join(col.tobytes() for col in columns.values())
    header = json.dumps(
        {
            "name": trace.name,
            "n_insts": len(trace),
            "crc32": zlib.crc32(payload),
            "columns": table,
        },
        separators=(",", ":"),
    ).encode()
    return b"".join(
        (struct.pack(_HEADER_FMT, MAGIC, CODEC_VERSION, len(header)), header, payload)
    )


def _read_header(buf) -> tuple[dict, memoryview]:
    view = memoryview(buf)
    if len(view) < _HEADER_SIZE:
        raise TraceCodecError("buffer too short for trace header")
    magic, version, header_len = struct.unpack_from(_HEADER_FMT, view)
    if magic != MAGIC:
        raise TraceCodecError(f"bad magic {magic!r}")
    if version != CODEC_VERSION:
        raise TraceCodecError(f"unsupported trace codec version {version}")
    if len(view) < _HEADER_SIZE + header_len:
        raise TraceCodecError("buffer truncated inside header")
    try:
        header = json.loads(bytes(view[_HEADER_SIZE : _HEADER_SIZE + header_len]))
    except ValueError as exc:
        raise TraceCodecError(f"corrupt trace header: {exc}") from exc
    # A JSON-valid but schema-incomplete header must fail as a codec error
    # (treated as a cache miss by callers), never as a stray KeyError.
    if not isinstance(header, dict):
        raise TraceCodecError("trace header is not an object")
    missing = {"name", "n_insts", "crc32", "columns"} - header.keys()
    if missing:
        raise TraceCodecError(f"trace header missing {sorted(missing)}")
    if (
        not isinstance(header["name"], str)
        or not isinstance(header["n_insts"], int)
        or header["n_insts"] < 0
        or not isinstance(header["crc32"], int)
        or not isinstance(header["columns"], list)
    ):
        raise TraceCodecError("trace header field types are invalid")
    return header, view[_HEADER_SIZE + header_len :]


def _checked_payload(header: dict, payload: memoryview) -> memoryview:
    """The column bytes, bounded by the column table and checksummed.

    The column table fixes the payload's length: a shorter buffer is
    truncated, and only the counted bytes are checksummed and returned.
    """
    try:
        total = 0
        for _, typecode, count in header["columns"]:
            if not isinstance(count, int) or count < 0:
                raise ValueError(f"bad column count {count!r}")
            total += count * array(typecode).itemsize
    except (ValueError, TypeError) as exc:
        raise TraceCodecError(f"corrupt column table: {exc}") from exc
    if len(payload) < total:
        raise TraceCodecError("buffer truncated inside columns")
    payload = payload[:total]
    if zlib.crc32(payload) != header["crc32"]:
        raise TraceCodecError("trace payload checksum mismatch")
    return payload


def verify_encoded(buf) -> None:
    """Validate an encoded trace without materializing it.

    Checks the magic/version/header schema, the column-table arithmetic,
    and the payload checksum -- everything :func:`decode_trace` would
    reject -- at a fraction of its cost (no column construction).  Raises
    :class:`TraceCodecError` on any problem.  This is what lets an on-disk
    trace cache trust an entry it is about to hand to workers by reference.
    """
    header, payload = _read_header(buf)
    _checked_payload(header, payload)


def _read_columns(header: dict, payload: memoryview) -> dict[str, array]:
    payload = _checked_payload(header, payload)
    columns: dict[str, array] = {}
    offset = 0
    for name, typecode, count in header["columns"]:
        col = array(typecode)
        nbytes = count * col.itemsize
        col.frombytes(payload[offset : offset + nbytes])
        columns[name] = col
        offset += nbytes
    return columns


def decode_trace(buf) -> ColumnTrace:
    """Rebuild a :class:`ColumnTrace` from :func:`encode_trace` output.

    ``buf`` is any bytes-like object -- a ``bytes`` string, a
    ``memoryview`` or an ``mmap``; columns are copied out of it, so the
    underlying buffer may be released once this returns.  No ``DynInst``
    list is built; consumers that need the object view pay for it lazily
    via :attr:`ColumnTrace.insts`.
    """
    header, payload = _read_header(buf)
    columns = _read_columns(header, payload)
    try:
        return _build_column_trace(header, columns)
    except TraceCodecError:
        raise
    except (KeyError, IndexError, ValueError, OverflowError) as exc:
        # Any malformation the targeted checks above miss (absent aux
        # columns, short offset tables, ...) is still a codec error --
        # cache layers treat it as a miss, it must never escape as a
        # stray KeyError/IndexError.
        raise TraceCodecError(f"malformed trace columns: {exc!r}") from exc


def _build_column_trace(header: dict, columns: dict[str, array]) -> ColumnTrace:
    n = header["n_insts"]
    for name, _, _ in INST_COLUMNS:
        col = columns.get(name)
        if col is None:
            raise TraceCodecError(f"missing column {name!r}")
        if len(col) != n:
            raise TraceCodecError("instruction column length mismatch")
    if "src_offsets" not in columns or "src_flat" not in columns:
        raise TraceCodecError("missing register-source columns")

    initial_memory = dict(zip(columns["mem_addr"], columns["mem_value"]))
    return ColumnTrace(
        name=header["name"], columns=columns, initial_memory=initial_memory
    )


def roundtrip_equal(a: ColumnTrace, b: ColumnTrace) -> bool:
    """Structural equality of two traces (used by tests and cache checks)."""
    return (
        a.name == b.name
        and a.insts == b.insts
        and a.initial_memory == b.initial_memory
        and [memory_signature(i) if i.is_mem else None for i in a.insts]
        == [memory_signature(i) if i.is_mem else None for i in b.insts]
    )
