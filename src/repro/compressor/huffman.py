"""Canonical Huffman coder over integer quantization codes (§III-C-1).

Provides both an exact *size* computation (Σ freq·len — identical to the
size of a real encoding, used by the measurement harness at benchmark scale)
and a real bitstream encode/decode pair (used by round-trip tests and by the
lossless stage, which compresses the actual packed bitstream).

Everything on the compression path is vectorized or O(k log k) in the
alphabet size k:

* Histogram and symbol lookup. Quantization codes cluster around 0, so when
  the code span ``max - min + 1`` is at most a few times the stream length,
  ``np.bincount`` gives the histogram and a dense table over the span maps
  symbol → index. Otherwise (Lorenzo codes grow without bound with |x|/eb,
  so a tiny bound can leave a few far-apart symbols) the sorted path,
  ``np.unique`` and ``np.searchsorted``, is used. ``_dense_offsets`` makes
  this choice for both ``build`` and ``encode``.
* Build. A heap merges nodes ordered by (count, node id) and records each
  node's parent; code lengths are leaf depths, found in one sweep down from
  the root. Canonical codewords come from the first code of each length
  plus the symbol's rank within that length. Codewords are at most 64 bits.
* Encode. Codewords are packed MSB first into 64-bit words in one pass: a
  ``cumsum`` of lengths gives each bit offset, each codeword is shifted
  into the word it starts in (the part crossing the word boundary goes,
  left-aligned, into the next word), ``np.bitwise_or.reduceat`` merges the
  codewords of each word, and the big-endian words are cut to
  ``ceil(total_bits / 8)`` bytes.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["HuffmanCode", "build", "codebook_bytes"]


@dataclass
class HuffmanCode:
    """A built Huffman code over the distinct symbols of one code stream."""

    symbols: np.ndarray  # distinct int64 symbols, sorted
    counts: np.ndarray  # frequency of each symbol
    lengths: np.ndarray  # code length (bits) per symbol
    codes: np.ndarray  # canonical codeword (as uint64) per symbol

    @property
    def total_bits(self) -> int:
        """Exact payload size in bits of encoding the full stream."""
        return int((self.counts * self.lengths.astype(np.int64)).sum())

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def bitrate(self) -> float:
        """Average bits per encoded symbol."""
        return self.total_bits / max(1, self.n)

    def length_of(self, symbol: int) -> int:
        i = np.searchsorted(self.symbols, symbol)
        if i < len(self.symbols) and self.symbols[i] == symbol:
            return int(self.lengths[i])
        raise KeyError(symbol)

    # ------------------------------------------------------------------
    def encode(self, stream: np.ndarray) -> bytes:
        """Encode ``stream`` (must only contain known symbols) → packed bytes."""
        stream = np.asarray(stream, np.int64)
        if stream.size == 0:
            return b""
        lo = self.symbols[0]
        off = _dense_offsets(stream, lo, self.symbols[-1])
        if off is None:
            idx = np.searchsorted(self.symbols, stream)
        else:
            table = np.zeros(int(self.symbols[-1] - lo) + 1, np.int64)
            table[self.symbols - lo] = np.arange(len(self.symbols))
            # in place: each offset is read before its slot is overwritten
            idx = np.take(table, off, out=off, mode="clip")
        lens = self.lengths.astype(np.uint8).take(idx)
        words = self.codes.take(idx)  # codeword per symbol, aligned in place below
        # bit offset of each codeword, in the index buffer, which is free now
        starts = np.cumsum(lens, out=idx.view(np.int64))
        total_bits = int(starts[-1])
        starts -= lens
        # 64 - (end bit of each codeword counted from the start of the word
        # it starts in): in [-63, 63], negative when it crosses into the next
        shift = np.bitwise_and(starts, 63, out=np.empty(len(lens), np.int8), casting="unsafe")
        np.add(shift, lens, out=shift, casting="unsafe")
        np.subtract(64, shift, out=shift, casting="unsafe")
        # the low -shift bits of a crossing codeword spill into the next
        # word, left-aligned
        cross = np.flatnonzero(shift < 0)
        spill_to = (starts[cross] >> 6) + 1
        del starts, idx
        cross_shift = shift[cross].astype(np.int64)
        spill = words[cross] << (64 + cross_shift).astype(np.uint64)
        words[cross] >>= (-cross_shift).astype(np.uint64)
        # a word starts with codeword i + 1 exactly when codeword i reaches
        # its end; every word but the last holds at least one codeword start
        first = np.flatnonzero(shift[:-1] <= 0)
        first += 1
        shift[cross] = 0
        np.left_shift(words, shift.view(np.uint8), out=words)
        del shift
        out = np.zeros(-(-total_bits // 64), np.uint64)
        out[: len(first) + 1] = np.bitwise_or.reduceat(words, np.r_[0, first])
        out[spill_to] |= spill
        return out.astype(">u8", copy=False).tobytes()[: -(-total_bits // 8)]

    def decode(self, data: bytes, n: int) -> np.ndarray:
        """Decode ``n`` symbols from packed bytes (test-scale Python loop)."""
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        # canonical decode tables: first codeword / first symbol index per length
        out = np.empty(n, dtype=np.int64)
        order = np.argsort(self.lengths, kind="stable")
        by_len: dict[int, dict[int, int]] = {}
        for i in order:
            by_len.setdefault(int(self.lengths[i]), {})[int(self.codes[i])] = int(
                self.symbols[i]
            )
        pos = 0
        for j in range(n):
            code, ln = 0, 0
            while True:
                code = (code << 1) | int(bits[pos])
                pos += 1
                ln += 1
                tab = by_len.get(ln)
                if tab is not None and code in tab:
                    out[j] = tab[code]
                    break
                if ln > 64:
                    raise ValueError("corrupt Huffman stream")
        return out


def build(stream_or_counts, counts: np.ndarray | None = None) -> HuffmanCode:
    """Build a canonical Huffman code.

    Either ``build(stream)`` with the raw int64 code stream, or
    ``build(symbols, counts)`` with a precomputed histogram.
    Raises ``ValueError`` if a codeword would be longer than 64 bits.
    """
    if counts is None:
        symbols, cnts = _histogram(np.asarray(stream_or_counts, np.int64).ravel())
    else:
        symbols = np.asarray(stream_or_counts, np.int64)
        cnts = np.asarray(counts, np.int64)
        keep = cnts > 0
        symbols, cnts = symbols[keep], cnts[keep]
        order = np.argsort(symbols)
        symbols, cnts = symbols[order], cnts[order]
    k = len(symbols)
    if k == 0:
        return HuffmanCode(symbols, cnts, np.empty(0, np.int64), np.empty(0, np.uint64))
    if k == 1:
        return HuffmanCode(
            symbols, cnts, np.ones(1, np.int64), np.zeros(1, np.uint64)
        )
    lengths = _code_lengths(cnts)
    return HuffmanCode(symbols, cnts, lengths, _canonical_codes(symbols, lengths))


def _code_lengths(counts: np.ndarray) -> np.ndarray:
    """Code length per symbol: the depth of its leaf in the Huffman tree.

    The heap orders nodes by (count, node id); leaves are 0…k-1 and merged
    nodes are numbered k, k+1, … in creation order, so ties always go to the
    leaf, then to the older merged node. Each merge records the parent of
    the two nodes it pops; depths then follow in one sweep from the root
    (the last node) down, since every parent is created after its children.
    """
    k = len(counts)
    heap = list(zip(counts.tolist(), range(k)))
    heapq.heapify(heap)
    parent = [0] * (2 * k - 1)
    for node in range(k, 2 * k - 1):
        c1, a = heapq.heappop(heap)
        c2, b = heap[0]
        heapq.heapreplace(heap, (c1 + c2, node))
        parent[a] = parent[b] = node
    depth = [0] * (2 * k - 1)
    for node in range(2 * k - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return np.array(depth[:k], np.int64)


def _canonical_codes(symbols: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Canonical codewords: ordered by (length, symbol), each length's first
    code is ``(first[l-1] + count[l-1]) << 1`` and the rest count up."""
    max_len = int(lengths.max())
    if max_len > 64:
        raise ValueError(
            f"Huffman code needs {max_len}-bit codewords; at most 64 are supported"
        )
    per_len = np.bincount(lengths, minlength=max_len + 1)
    first = [0] * (max_len + 1)  # Python ints: no wrap-around before the check
    for ln in range(1, max_len + 1):
        first[ln] = (first[ln - 1] + int(per_len[ln - 1])) << 1
    order = np.lexsort((symbols, lengths))
    sorted_len = lengths[order]
    rank = np.arange(len(order)) - (np.cumsum(per_len) - per_len)[sorted_len]
    codes = np.empty(len(order), np.uint64)
    codes[order] = np.array(first, np.uint64)[sorted_len] + rank.astype(np.uint64)
    return codes


#: The dense histogram / symbol table is used when the code span
#: ``max - min + 1`` is at most this many times the stream length.
_DENSE_SPAN_PER_SYMBOL = 2


def _dense_offsets(stream: np.ndarray, lo, hi) -> np.ndarray | None:
    """``stream - lo`` as offsets into a dense table over ``[lo, hi]``, or
    ``None`` when that span is too wide for one and the caller must use the
    sorted (``np.unique`` / ``searchsorted``) path instead.

    Quantization codes cluster around 0, so the span is normally a small
    fraction of the stream length, but Lorenzo codes grow without bound as
    |x|/eb does, so a tiny error bound can give a few far-apart symbols.
    """
    if int(hi) - int(lo) + 1 > _DENSE_SPAN_PER_SYMBOL * stream.size:
        return None
    return stream - lo


def _histogram(stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct symbols of ``stream`` (sorted) and the count of each."""
    if stream.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    lo = stream.min()
    off = _dense_offsets(stream, lo, stream.max())
    if off is None:
        return np.unique(stream, return_counts=True)
    full = np.bincount(off)
    present = np.flatnonzero(full)
    return present + lo, full[present]


def codebook_bytes(n_symbols: int) -> int:
    """Serialized codebook size we charge to the compressed stream: 4-byte
    symbol + 1-byte code length per distinct symbol (canonical codes are
    reconstructible from lengths alone)."""
    return 5 * n_symbols
