"""Canonical Huffman coding of integer symbol streams.

This is the "Huffman encoding" stage of AE-SZ / SZ2.1 (Algorithm 1, line 17).
Symbols are the non-negative linear-scale quantization codes.  Both directions
are vectorized with NumPy: the encoder extracts every payload bit in one
``repeat``-based pass over the concatenated codes (O(total_bits) work, chunked
to bound scratch; the bit-serial packer it replaced is the test oracle in
``tests/reference_codecs.py``, proven byte-identical), and the decoder uses
a lane-wise table-driven kernel (see below) instead of a per-symbol Python
loop.

Stream format v2 (current, produced by :meth:`HuffmanCodec.encode`)::

    [magic:4s = b"HUF2"]
    [n_distinct:u32][n_total:u64][max_symbol:u64][n_lanes:u32]
    [lane_chunk:u32][sym_width:u8]
    [distinct symbols: u{sym_width*8} * n_distinct]   (ascending)
    [code lengths:     u8 * n_distinct]
    [lane bit lengths: u32 * n_lanes]
    [n_payload_bits:u64][payload bytes]               (MSB-first bit packing)

The payload is a single contiguous bitstream of canonical codes, identical to
what v1 produced; the lane table additionally records the bit length of every
``lane_chunk``-symbol segment so the decoder can start decoding all lanes in
parallel.  Symbols are stored with the smallest unsigned width that holds
``max_symbol`` (1/2/4/8 bytes), so alphabets with symbols >= 2**32 — which
crashed the v1 encoder — are representable by design.  A degenerate
single-symbol stream stores no lane table (``n_lanes == 0``) and a payload of
``n_total`` zero bits.

Stream format v1 (legacy, still decoded)::

    [n_distinct:u32][n_total:u64][max_symbol:u32]
    [distinct symbols:u32 * n_distinct][code lengths:u8 * n_distinct]
    [n_payload_bits:u64][payload bytes]

Version detection keys on the 4-byte magic; a v1 stream would only be
misread as v2 if it contained exactly 0x32465548 distinct symbols (~844M),
far beyond what the v1 u32 symbol table could usefully hold.

Decoder kernel
--------------
Canonical codes sorted by (length, symbol) are monotone when left-justified
to ``max_len`` bits, so decoding a ``max_len``-bit window ``W`` reduces to a
``searchsorted`` of ``W`` against the left-justified one-past-the-end code of
every length, followed by an index offset — no tree walk.  The decoder keeps
one bit cursor per lane and decodes one symbol per lane per step, gathering
each lane's next 64-bit window from a precomputed big-endian window array.
All malformed input (truncated headers/tables/payloads, impossible code-length
tables, misaligned lane boundaries) raises ``ValueError``.
"""

from __future__ import annotations

import heapq
import struct
from typing import List, Tuple

import numpy as np

_MAGIC_V2 = b"HUF2"
_HEADER_V1 = struct.Struct("<IQI")
_HEADER_V2 = struct.Struct("<IQQIIB")
_BITS_HEADER = struct.Struct("<Q")

MAX_CODE_LENGTH = 63

# Longest code the vectorized kernel can handle: a max_len-bit window gathered
# from a u64 may be misaligned by up to 7 bits, so max_len + 7 <= 64.
_MAX_VECTOR_CODE_LENGTH = 57

# Lane sizing: target symbols per lane and a cap on the lane table size.
_LANE_SYMBOLS = 128
_MAX_LANES = 8192

_INT64_MAX = np.iinfo(np.int64).max

# Chunk size (in payload bits) for the vectorized bit packer: bounds the
# per-chunk scratch (a few int64/uint64 temporaries of this length) while
# keeping the Python-level loop negligible.
_PACK_CHUNK_BITS = 1 << 20


def _pack_codes(sym_codes: np.ndarray, sym_lens: np.ndarray) -> Tuple[bytes, int]:
    """Concatenate per-symbol canonical codes MSB-first into packed bytes.

    Fully vectorized: every payload bit ``p`` belongs to symbol
    ``s = searchsorted(cumlens, p)`` at bit position ``p - start[s]`` within
    that symbol's code, so one ``repeat`` + shift extracts all bits at once.
    Processed in bounded chunks so scratch stays O(_PACK_CHUNK_BITS).
    Returns ``(payload_bytes, total_bits)``.
    """
    ends = np.cumsum(sym_lens)
    total_bits = int(ends[-1]) if ends.size else 0
    starts = ends - sym_lens
    bits = np.empty(total_bits, dtype=np.uint8)
    # Symbol index where each chunk of _PACK_CHUNK_BITS payload bits begins.
    cut_bits = np.arange(0, total_bits, _PACK_CHUNK_BITS, dtype=np.int64)
    cut_syms = np.searchsorted(ends, cut_bits, side="right")
    cut_syms = np.append(cut_syms, sym_lens.size)
    for c in range(cut_syms.size - 1):
        s0, s1 = int(cut_syms[c]), int(cut_syms[c + 1])
        lens = sym_lens[s0:s1]
        b0, b1 = int(starts[s0]), int(ends[s1 - 1])
        within = np.arange(b1 - b0, dtype=np.int64) - np.repeat(starts[s0:s1] - b0, lens)
        shift = (np.repeat(lens, lens) - 1 - within).astype(np.uint64)
        bits[b0:b1] = ((np.repeat(sym_codes[s0:s1], lens) >> shift)
                       & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits).tobytes(), total_bits


def huffman_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Compute Huffman code lengths for positive symbol ``counts``.

    Uses the classic heap construction; returns one length per entry of
    ``counts``.  A single-symbol alphabet gets length 1.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D array")
    if np.any(counts <= 0):
        raise ValueError("all counts must be positive")
    n = counts.size
    if n == 1:
        return np.array([1], dtype=np.int64)

    # Heap items: (count, tiebreak, node_id).  Internal nodes get ids >= n.
    heap: List[Tuple[int, int, int]] = [(int(c), i, i) for i, c in enumerate(counts)]
    heapq.heapify(heap)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    next_id = n
    tiebreak = n
    while len(heap) > 1:
        c1, _, id1 = heapq.heappop(heap)
        c2, _, id2 = heapq.heappop(heap)
        parent[id1] = next_id
        parent[id2] = next_id
        heapq.heappush(heap, (c1 + c2, tiebreak, next_id))
        next_id += 1
        tiebreak += 1

    # Leaf depths by vectorized pointer chasing: every leaf climbs one parent
    # link per iteration, so the loop runs tree-height times, not n times.
    node = np.arange(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    while True:
        par = parent[node]
        alive = par != -1
        if not alive.any():
            break
        node = np.where(alive, par, node)
        depth += alive
    if depth.max() > MAX_CODE_LENGTH:
        raise ValueError(f"Huffman code length exceeds {MAX_CODE_LENGTH} bits")
    return depth


def _canonical_codes(symbols: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assign canonical codes.

    Returns ``(sorted_symbols, sorted_lengths, codes, order)`` where ``order``
    is the (length, symbol)-lexsort permutation, so callers building
    per-symbol LUTs do not have to redo the sort.
    """
    order = np.lexsort((symbols, lengths))
    sym_sorted = symbols[order]
    len_sorted = lengths[order]
    max_len = int(len_sorted[-1])

    # next_code[l] = first canonical code of length l (Deutsch, RFC 1951).
    bl_count = np.bincount(len_sorted, minlength=max_len + 1).tolist()
    next_code = [0] * (max_len + 1)
    code = 0
    for length in range(1, max_len + 1):
        code = (code + bl_count[length - 1]) << 1
        next_code[length] = code
    next_code_arr = np.array(next_code, dtype=np.uint64)

    # Rank of each entry within its length run (entries are length-sorted).
    starts = np.searchsorted(len_sorted, np.arange(max_len + 1))
    rank = (np.arange(len_sorted.size) - starts[len_sorted]).astype(np.uint64)
    codes = next_code_arr[len_sorted] + rank
    return sym_sorted, len_sorted, codes, order


def _sym_width(max_symbol: int) -> int:
    if max_symbol < 1 << 8:
        return 1
    if max_symbol < 1 << 16:
        return 2
    if max_symbol < 1 << 32:
        return 4
    return 8


class _DecodeTables:
    """Canonical decode tables shared by the scalar and vectorized kernels."""

    __slots__ = ("sym_sorted", "max_len",
                 "first_code", "first_index", "count_by_len", "lj_limits")

    def __init__(self, distinct: np.ndarray, lengths: np.ndarray):
        if lengths.size != distinct.size or distinct.size < 2:
            raise ValueError("corrupt Huffman stream: bad symbol table")
        if lengths.min() < 1 or lengths.max() > MAX_CODE_LENGTH:
            raise ValueError("corrupt Huffman stream: invalid code length")
        # A Huffman tree is complete: the Kraft sum must be exactly one.
        kraft = sum(int(c) << (MAX_CODE_LENGTH - length)
                    for length, c in enumerate(np.bincount(lengths).tolist()) if length)
        if kraft != 1 << MAX_CODE_LENGTH:
            raise ValueError("corrupt Huffman stream: code lengths do not form "
                             "a complete prefix code")

        sym_sorted, len_sorted, codes, _ = _canonical_codes(distinct, lengths)
        max_len = int(len_sorted[-1])
        first_code = np.zeros(max_len + 1, dtype=np.uint64)
        first_index = np.zeros(max_len + 1, dtype=np.uint64)
        count_by_len = np.zeros(max_len + 1, dtype=np.int64)
        lj_limits = np.zeros(max_len + 1, dtype=np.uint64)
        starts = np.searchsorted(len_sorted, np.arange(max_len + 2))
        run = 0
        for length in range(1, max_len + 1):
            lo, hi = int(starts[length]), int(starts[length + 1])
            count_by_len[length] = hi - lo
            if hi > lo:
                first_code[length] = codes[lo]
                first_index[length] = lo
                run = (int(codes[hi - 1]) + 1) << (max_len - length)
            lj_limits[length] = run

        self.sym_sorted = sym_sorted
        self.max_len = max_len
        self.first_code = first_code
        self.first_index = first_index
        self.count_by_len = count_by_len
        self.lj_limits = lj_limits


# Above this payload size the whole-payload window precompute (8 bytes of u64
# per payload byte) is swapped for per-step 8-byte gathers at the lane cursors,
# capping the decoder's extra memory at O(n_lanes) instead of O(payload).
_WINDOW_PRECOMPUTE_LIMIT = 8 << 20


def _window_u64(payload: np.ndarray) -> np.ndarray:
    """Big-endian u64 read of ``payload[j:j+8]`` (zero padded) for every j."""
    n = payload.size + 1
    ext = np.concatenate([payload, np.zeros(8, dtype=np.uint8)])
    windows = np.zeros(n, dtype=np.uint64)
    for i in range(8):
        windows = (windows << np.uint64(8)) | ext[i:i + n].astype(np.uint64)
    return windows


def _decode_lanes(payload: np.ndarray, tables: _DecodeTables,
                  lane_starts: np.ndarray, lane_counts: np.ndarray,
                  lane_ends: np.ndarray, n_total: int) -> np.ndarray:
    """Vectorized lane decode: one symbol per lane per step."""
    max_len = tables.max_len
    lj = tables.lj_limits[1:]
    n_lanes = lane_starts.size
    steps = int(lane_counts.max())
    last_count = int(lane_counts[-1])

    # Pad the payload so cursors never index past the buffers: a lane cannot
    # advance more than MAX_CODE_LENGTH bits per step (corrupt streams
    # included — lane starts are bounded by the validated total bit count).
    pad = (MAX_CODE_LENGTH * steps) // 8 + 16
    padded = np.concatenate([payload, np.zeros(pad, dtype=np.uint8)])
    eight = np.uint64(8)
    if padded.size <= _WINDOW_PRECOMPUTE_LIMIT:
        windows = _window_u64(padded)

        def fetch(byte_idx: np.ndarray) -> np.ndarray:
            return windows[byte_idx]
    else:
        def fetch(byte_idx: np.ndarray) -> np.ndarray:
            w = padded[byte_idx].astype(np.uint64)
            for i in range(1, 8):
                w = (w << eight) | padded[byte_idx + np.uint64(i)]
            return w

    seven = np.uint64(7)
    three = np.uint64(3)
    base_shift = np.uint64(64 - max_len)
    width = np.uint64(max_len)
    mask = np.uint64((1 << max_len) - 1)

    # symbol_index = code + (first_index[len] - first_code[len]); one gather.
    offsets = tables.first_index.astype(np.int64) - tables.first_code.astype(np.int64)

    pos = lane_starts.astype(np.uint64)
    out = np.empty((steps, n_lanes), dtype=np.int64)
    last_lane_end = 0
    for t in range(steps):
        window = (fetch(pos >> three) >> (base_shift - (pos & seven))) & mask
        length = (np.searchsorted(lj, window, side="right") + 1).astype(np.uint64)
        code = (window >> (width - length)).astype(np.int64)
        out[t] = tables.sym_sorted[code + offsets[length]]
        pos += length
        if t + 1 == last_count:
            last_lane_end = int(pos[-1])

    if n_lanes > 1 and not np.array_equal(pos[:-1].astype(np.int64), lane_ends[:-1]):
        raise ValueError("corrupt Huffman stream: lane boundary mismatch")
    if last_lane_end != int(lane_ends[-1]):
        raise ValueError("corrupt Huffman stream: payload length mismatch")

    if n_lanes == 1:
        return out[:, 0][:n_total]
    full = out[:, :-1].T.ravel()
    return np.concatenate([full, out[:last_count, -1]])[:n_total]


def _decode_scalar(payload: np.ndarray, tables: _DecodeTables,
                   total_bits: int, n_total: int) -> np.ndarray:
    """Bit-serial canonical decode (legacy v1 streams and >57-bit codes)."""
    bits = np.unpackbits(payload)
    if bits.size < total_bits:
        raise ValueError("corrupt Huffman stream: truncated payload")
    bit_list = bits[:total_bits].tolist()
    sym_list = tables.sym_sorted.tolist()
    fc = tables.first_code.astype(np.int64).tolist()
    fi = tables.first_index.astype(np.int64).tolist()
    cbl = tables.count_by_len.tolist()
    max_len = tables.max_len

    out = np.empty(n_total, dtype=np.int64)
    bpos = 0
    for i in range(n_total):
        code = 0
        length = 0
        while True:
            if bpos >= total_bits:
                raise ValueError("corrupt Huffman stream: truncated payload")
            code = (code << 1) | bit_list[bpos]
            bpos += 1
            length += 1
            if length > max_len:
                raise ValueError("corrupt Huffman stream: code longer than table")
            if cbl[length] and fc[length] <= code < fc[length] + cbl[length]:
                out[i] = sym_list[fi[length] + code - fc[length]]
                break
    return out


def _require(data: bytes, pos: int, nbytes: int, what: str) -> None:
    if len(data) - pos < nbytes:
        raise ValueError(f"corrupt Huffman stream: truncated {what}")


def _validate_symbol_table(distinct: np.ndarray, max_symbol: int) -> None:
    """Reject tables that are not ascending non-negative ending at max_symbol.

    Catches corrupt table bytes (e.g. a u64 entry wrapping negative through
    the int64 cast) that would otherwise decode silently to wrong symbols.
    """
    if int(distinct[0]) < 0 or int(distinct[-1]) != max_symbol:
        raise ValueError("corrupt Huffman stream: symbol table out of range")
    if distinct.size > 1 and int(np.diff(distinct).min()) <= 0:
        raise ValueError("corrupt Huffman stream: symbol table not ascending")


class HuffmanCodec:
    """Self-contained canonical Huffman codec for non-negative integer arrays."""

    def encode(self, symbols: np.ndarray) -> bytes:
        symbols = np.ascontiguousarray(symbols)
        if symbols.size == 0:
            return _MAGIC_V2 + _HEADER_V2.pack(0, 0, 0, 0, 0, 1) + _BITS_HEADER.pack(0)
        if not np.issubdtype(symbols.dtype, np.integer):
            raise TypeError("HuffmanCodec encodes integer symbols only")
        flat = symbols.ravel()
        if np.issubdtype(flat.dtype, np.unsignedinteger) and int(flat.max()) > _INT64_MAX:
            raise ValueError(f"symbols must be <= {_INT64_MAX}")
        flat = flat.astype(np.int64)
        if flat.min() < 0:
            raise ValueError("symbols must be non-negative")

        distinct, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
        max_symbol = int(distinct[-1])
        width = _sym_width(max_symbol)

        if distinct.size == 1:
            # Degenerate stream: one length-1 code of all-zero bits.
            header = _HEADER_V2.pack(1, flat.size, max_symbol, 0, 0, width)
            table = distinct.astype(f"<u{width}").tobytes() + b"\x01"
            payload = np.zeros((flat.size + 7) // 8, dtype=np.uint8).tobytes()
            return _MAGIC_V2 + header + table + _BITS_HEADER.pack(flat.size) + payload

        lengths = huffman_code_lengths(counts)
        sym_sorted, len_sorted, codes, order = _canonical_codes(distinct, lengths)

        # Per-symbol code / length lookup in the order of ``distinct``.
        code_lut = np.zeros(distinct.size, dtype=np.uint64)
        len_lut = np.zeros(distinct.size, dtype=np.int64)
        code_lut[order] = codes
        len_lut[order] = len_sorted

        sym_codes = code_lut[inverse]
        sym_lens = len_lut[inverse]

        payload, total_bits = _pack_codes(sym_codes, sym_lens)

        # Lane sync table: bit length of every ``chunk``-symbol segment.
        chunk = max(_LANE_SYMBOLS, -(-flat.size // _MAX_LANES))
        lane_starts_idx = np.arange(0, flat.size, chunk)
        lane_bits = np.add.reduceat(sym_lens, lane_starts_idx)
        header = _HEADER_V2.pack(int(distinct.size), int(flat.size), max_symbol,
                                 int(lane_starts_idx.size), chunk, width)
        table = (distinct.astype(f"<u{width}").tobytes()
                 + len_lut.astype(np.uint8).tobytes()
                 + lane_bits.astype("<u4").tobytes())
        return _MAGIC_V2 + header + table + _BITS_HEADER.pack(total_bits) + payload

    def decode(self, data: bytes) -> np.ndarray:
        if data[:4] == _MAGIC_V2:
            return self._decode_v2(data)
        return self._decode_v1(data)

    # ------------------------------------------------------------------ v2
    def _decode_v2(self, data: bytes) -> np.ndarray:
        pos = len(_MAGIC_V2)
        _require(data, pos, _HEADER_V2.size, "header")
        n_distinct, n_total, max_symbol, n_lanes, chunk, width = _HEADER_V2.unpack_from(data, pos)
        pos += _HEADER_V2.size
        if n_distinct == 0:
            if n_total:
                raise ValueError("corrupt Huffman stream: empty table with symbols")
            return np.zeros(0, dtype=np.int64)
        if width not in (1, 2, 4, 8) or max_symbol > _INT64_MAX:
            raise ValueError("corrupt Huffman stream: bad symbol width")

        _require(data, pos, width * n_distinct, "symbol table")
        distinct = np.frombuffer(data, dtype=f"<u{width}", count=n_distinct,
                                 offset=pos).astype(np.int64)
        pos += width * n_distinct
        _validate_symbol_table(distinct, max_symbol)
        _require(data, pos, n_distinct, "length table")
        lengths = np.frombuffer(data, dtype=np.uint8, count=n_distinct,
                                offset=pos).astype(np.int64)
        pos += n_distinct
        _require(data, pos, 4 * n_lanes, "lane table")
        lane_bits = np.frombuffer(data, dtype="<u4", count=n_lanes, offset=pos).astype(np.int64)
        pos += 4 * n_lanes
        _require(data, pos, _BITS_HEADER.size, "bit count")
        (total_bits,) = _BITS_HEADER.unpack_from(data, pos)
        pos += _BITS_HEADER.size

        payload = np.frombuffer(data, dtype=np.uint8, offset=pos)
        if total_bits > 8 * payload.size:
            raise ValueError("corrupt Huffman stream: truncated payload")
        if n_total > total_bits:
            raise ValueError("corrupt Huffman stream: symbol count exceeds payload bits")

        if n_distinct == 1:
            if total_bits != n_total:
                raise ValueError("corrupt Huffman stream: degenerate stream bit count")
            return np.full(n_total, distinct[0], dtype=np.int64)

        if n_lanes == 0 or chunk == 0:
            raise ValueError("corrupt Huffman stream: missing lane table")
        if not (chunk * (n_lanes - 1) < n_total <= chunk * n_lanes):
            raise ValueError("corrupt Huffman stream: lane geometry mismatch")
        if int(lane_bits.sum()) != total_bits:
            raise ValueError("corrupt Huffman stream: lane bit lengths mismatch")

        tables = _DecodeTables(distinct, lengths)
        if tables.max_len > _MAX_VECTOR_CODE_LENGTH:
            return _decode_scalar(payload, tables, total_bits, n_total)

        lane_starts = np.concatenate(([0], np.cumsum(lane_bits)[:-1]))
        lane_ends = lane_starts + lane_bits
        lane_counts = np.full(n_lanes, chunk, dtype=np.int64)
        lane_counts[-1] = n_total - chunk * (n_lanes - 1)
        return _decode_lanes(payload, tables, lane_starts, lane_counts,
                             lane_ends, n_total)

    # ------------------------------------------------------------------ v1
    def _decode_v1(self, data: bytes) -> np.ndarray:
        _require(data, 0, _HEADER_V1.size, "header")
        n_distinct, n_total, _max_symbol = _HEADER_V1.unpack_from(data, 0)
        pos = _HEADER_V1.size
        if n_distinct == 0:
            if n_total:
                raise ValueError("corrupt Huffman stream: empty table with symbols")
            return np.zeros(0, dtype=np.int64)

        _require(data, pos, 4 * n_distinct, "symbol table")
        distinct = np.frombuffer(data, dtype=np.uint32, count=n_distinct,
                                 offset=pos).astype(np.int64)
        pos += 4 * n_distinct
        _validate_symbol_table(distinct, _max_symbol)
        _require(data, pos, n_distinct, "length table")
        lengths = np.frombuffer(data, dtype=np.uint8, count=n_distinct,
                                offset=pos).astype(np.int64)
        pos += n_distinct
        _require(data, pos, _BITS_HEADER.size, "bit count")
        (total_bits,) = _BITS_HEADER.unpack_from(data, pos)
        pos += _BITS_HEADER.size
        payload = np.frombuffer(data, dtype=np.uint8, offset=pos)
        if total_bits > 8 * payload.size:
            raise ValueError("corrupt Huffman stream: truncated payload")

        if n_distinct == 1:
            if total_bits != n_total:
                raise ValueError("corrupt Huffman stream: degenerate stream bit count")
            return np.full(n_total, distinct[0], dtype=np.int64)

        if n_total > total_bits:
            raise ValueError("corrupt Huffman stream: symbol count exceeds payload bits")
        tables = _DecodeTables(distinct, lengths)
        return _decode_scalar(payload, tables, total_bits, n_total)
