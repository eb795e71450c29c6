"""Tests for the canonical Huffman coder (§III-C-1 substrate)."""
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor import huffman


# -- reference implementations ---------------------------------------------
# The straightforward coder the vectorized one replaced: a heap of member
# lists for the code lengths, a sequential canonical-code loop and one
# masked pass per output bit position. ``build``/``encode`` must match them
# bit for bit.


def ref_build(stream_or_counts, counts=None) -> huffman.HuffmanCode:
    if counts is None:
        symbols, cnts = np.unique(np.asarray(stream_or_counts, np.int64), return_counts=True)
    else:
        symbols = np.asarray(stream_or_counts, np.int64)
        cnts = np.asarray(counts, np.int64)
        keep = cnts > 0
        symbols, cnts = symbols[keep], cnts[keep]
        order = np.argsort(symbols)
        symbols, cnts = symbols[order], cnts[order]
    k = len(symbols)
    if k == 0:
        return huffman.HuffmanCode(symbols, cnts, np.empty(0, np.int64), np.empty(0, np.uint64))
    if k == 1:
        return huffman.HuffmanCode(symbols, cnts, np.ones(1, np.int64), np.zeros(1, np.uint64))
    heap = [(int(c), i, [i]) for i, c in enumerate(cnts)]
    heapq.heapify(heap)
    lengths = np.zeros(k, dtype=np.int64)
    tie = k
    while len(heap) > 1:
        c1, _, l1 = heapq.heappop(heap)
        c2, _, l2 = heapq.heappop(heap)
        for i in l1 + l2:
            lengths[i] += 1
        tie += 1
        heapq.heappush(heap, (c1 + c2, tie, l1 + l2))
    order = np.lexsort((symbols, lengths))
    codes = np.zeros(k, dtype=np.uint64)
    code = 0
    prev_len = 0
    for i in order:
        code <<= int(lengths[i]) - prev_len
        codes[i] = code
        code += 1
        prev_len = int(lengths[i])
    return huffman.HuffmanCode(symbols, cnts, lengths, codes)


def ref_encode(code: huffman.HuffmanCode, stream) -> bytes:
    idx = np.searchsorted(code.symbols, stream)
    lens = code.lengths[idx].astype(np.int64)
    ends = np.cumsum(lens)
    starts = ends - lens
    total = int(ends[-1]) if len(ends) else 0
    bits = np.zeros(total, dtype=np.uint8)
    cws = code.codes[idx]
    for b in range(int(code.lengths.max(initial=0))):
        m = lens > b
        bits[starts[m] + b] = (cws[m] >> (lens[m] - 1 - b).astype(np.uint64)) & 1
    return np.packbits(bits).tobytes()


def string_encode(code: huffman.HuffmanCode, stream) -> bytes:
    """Codewords written out as '0'/'1' strings and packed MSB first."""
    idx = np.searchsorted(code.symbols, stream)
    bits = "".join(format(int(code.codes[i]), f"0{int(code.lengths[i])}b") for i in idx)
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


def assert_matches_reference(stream, symbols=None, counts=None):
    """``build`` and ``encode`` agree with the reference coder on ``stream``
    (code built from ``stream`` itself, or from ``symbols``/``counts``)."""
    stream = np.asarray(stream, np.int64)
    args = (stream,) if counts is None else (symbols, counts)
    got, want = huffman.build(*args), ref_build(*args)
    for name in ("symbols", "counts", "lengths", "codes"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    assert got.encode(stream) == ref_encode(want, stream)


def test_single_symbol():
    c = huffman.build(np.array([7, 7, 7, 7]))
    assert list(c.symbols) == [7]
    assert list(c.lengths) == [1]
    assert c.total_bits == 4


def test_two_symbols_one_bit_each():
    c = huffman.build(np.array([0, 0, 0, 1]))
    assert sorted(c.lengths.tolist()) == [1, 1]
    assert c.total_bits == 4


def test_empty_stream():
    c = huffman.build(np.array([], dtype=np.int64))
    assert c.total_bits == 0


def test_kraft_equality():
    """An optimal prefix code satisfies Kraft with equality."""
    rng = np.random.default_rng(0)
    stream = rng.geometric(0.3, size=5000) - 1
    c = huffman.build(stream)
    assert np.sum(2.0 ** (-c.lengths.astype(float))) == pytest.approx(1.0)


def test_prefix_free():
    rng = np.random.default_rng(1)
    stream = rng.integers(0, 40, size=3000)
    c = huffman.build(stream)
    codes = [
        format(int(cw), "b").zfill(int(ln)) for cw, ln in zip(c.codes, c.lengths)
    ]
    assert len(set(codes)) == len(codes)
    for a in codes:
        for b in codes:
            if a is not b:
                assert not b.startswith(a) or a == b


def test_optimality_vs_entropy():
    """Huffman bit-rate within 1 bit of the entropy lower bound."""
    rng = np.random.default_rng(2)
    stream = rng.geometric(0.4, size=20000) - 1
    c = huffman.build(stream)
    p = c.counts / c.counts.sum()
    entropy = -(p * np.log2(p)).sum()
    assert entropy <= c.bitrate() <= entropy + 1.0


def test_bitrate_dominant_symbol_min_one_bit():
    stream = np.concatenate([np.zeros(10000, np.int64), np.arange(1, 4)])
    c = huffman.build(stream)
    assert c.length_of(0) == 1  # can't go below 1 bit/symbol


def test_build_from_histogram_matches_stream():
    stream = np.random.default_rng(3).integers(-5, 6, size=4000)
    syms, cnts = np.unique(stream, return_counts=True)
    a = huffman.build(stream)
    b = huffman.build(syms, cnts)
    np.testing.assert_array_equal(a.lengths, b.lengths)
    np.testing.assert_array_equal(a.codes, b.codes)


@pytest.mark.parametrize("n,vocab", [(1, 1), (17, 2), (1000, 50), (5000, 3)])
def test_encode_decode_roundtrip(n, vocab):
    rng = np.random.default_rng(n + vocab)
    stream = rng.integers(-vocab, vocab + 1, size=n)
    c = huffman.build(stream)
    payload = c.encode(stream)
    assert len(payload) == -(-c.total_bits // 8)
    np.testing.assert_array_equal(c.decode(payload, n), stream)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=300))
def test_encode_decode_roundtrip_property(vals):
    stream = np.array(vals, dtype=np.int64)
    c = huffman.build(stream)
    np.testing.assert_array_equal(c.decode(c.encode(stream), len(stream)), stream)


def test_total_bits_equals_sum_of_lengths():
    stream = np.random.default_rng(4).integers(0, 10, size=2000)
    c = huffman.build(stream)
    idx = np.searchsorted(c.symbols, stream)
    assert c.total_bits == int(c.lengths[idx].sum())


def test_skewed_distribution_shorter_codes_for_frequent():
    stream = np.concatenate(
        [np.zeros(1000, np.int64), np.ones(100, np.int64), np.full(10, 2, np.int64)]
    )
    c = huffman.build(stream)
    assert c.length_of(0) <= c.length_of(1) <= c.length_of(2)


def test_codebook_bytes():
    assert huffman.codebook_bytes(10) == 50


# -- vectorized coder vs the reference coder ---------------------------------


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1000, 4000),
    st.floats(0.05, 3.0),
)
def test_matches_reference_large_alphabet(seed, vocab, spread):
    """Thousands of distinct symbols around 0, as quantization codes are."""
    rng = np.random.default_rng(seed)
    stream = np.rint(rng.standard_normal(3 * vocab) * spread * vocab).astype(np.int64)
    assert_matches_reference(stream)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 62),
    st.floats(1.2, 2.0),
    st.integers(1, 600),
)
def test_matches_reference_long_codewords(seed, k, ratio, n):
    """Skewed counts give codewords of up to ~60 bits, so many of them
    cross a 64-bit word boundary; the stream draws every symbol equally."""
    rng = np.random.default_rng(seed)
    counts = np.maximum(1, ratio ** np.arange(k)).astype(np.int64)
    symbols = rng.permutation(np.arange(-k, k))[:k]
    stream = rng.choice(symbols, size=n)
    assert_matches_reference(stream, symbols, counts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-60, 0), st.integers(1, 2000))
def test_matches_reference_skewed_stream(seed, log_p, n):
    """Geometric code streams, from nearly constant to very spread out."""
    rng = np.random.default_rng(seed)
    p = 2.0 ** (log_p / 6)
    stream = (rng.geometric(p, size=n) - 1) * rng.choice([-1, 1], size=n)
    assert_matches_reference(stream)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=50, unique=True),
       st.integers(0, 2**32 - 1))
def test_matches_reference_sparse_symbols(symbols, seed):
    """Symbols spread far wider than the stream is long take the sorted
    (non-dense) histogram and lookup path."""
    rng = np.random.default_rng(seed)
    stream = rng.choice(np.array(symbols, np.int64), size=3 * len(symbols))
    assert_matches_reference(stream)


@pytest.mark.parametrize("stream", [[], [5], [-3, -3, -3], [2**62] * 70])
def test_matches_reference_empty_and_single_symbol(stream):
    assert_matches_reference(stream)


def _fibonacci(k):
    f = [1, 1]
    while len(f) < k:
        f.append(f[-1] + f[-2])
    return np.array(f[:k], np.int64)


def test_64_bit_codewords():
    """65 Fibonacci counts give a caterpillar tree whose two deepest
    codewords are exactly 64 bits long."""
    code = huffman.build(np.arange(65), _fibonacci(65))
    assert code.lengths.max() == 64
    np.testing.assert_array_equal(code.lengths, ref_build(np.arange(65), _fibonacci(65)).lengths)
    deepest = int(np.argmax(code.lengths))
    shallowest = int(np.argmin(code.lengths))
    stream = np.array([deepest, shallowest, deepest])
    payload = code.encode(stream)
    assert payload == string_encode(code, stream)
    np.testing.assert_array_equal(code.decode(payload, 3), stream)


def test_codewords_longer_than_64_bits_are_rejected():
    with pytest.raises(ValueError, match="64"):
        huffman.build(np.arange(66), _fibonacci(66))
