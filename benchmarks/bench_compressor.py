"""Benchmarks: SZ3-lite compression substrate throughput (bench scale)."""
import numpy as np
import pytest

from repro import sci_data
from repro.compressor import huffman, pipeline
from repro.compressor.predictors import get_predictor


@pytest.fixture(scope="module")
def field():
    return sci_data.generate("SCALE", "PRES", "bench")


@pytest.fixture(scope="module")
def eb(field):
    return 1e-3 * float(field.max() - field.min())


@pytest.mark.parametrize("pred", ["lorenzo", "interp", "regression"])
def test_predict_quantize(benchmark, field, eb, pred):
    p = get_predictor(pred)
    benchmark(p.compress, field, eb)


@pytest.mark.parametrize("pred", ["lorenzo", "interp", "regression"])
def test_full_compress(benchmark, field, eb, pred):
    benchmark(pipeline.compress, field, pred, eb)


def test_decompress(benchmark, field, eb):
    c = pipeline.compress(field, "lorenzo", eb)
    benchmark(pipeline.decompress, c)


def test_huffman_build(benchmark, field, eb):
    codes, _ = get_predictor("lorenzo").compress(field, eb)
    benchmark(huffman.build, codes)


@pytest.mark.parametrize("ds,fld", [("SCALE", "PRES"), ("RTM", "1000")])
def test_huffman_build_large_alphabet(benchmark, ds, fld):
    """eb = 1e-6·range: 6.0 k (SCALE/PRES) and 30.2 k (RTM/1000) distinct
    Lorenzo codes, where the tree build itself dominates."""
    d = sci_data.generate(ds, fld, "bench")
    codes, _ = get_predictor("lorenzo").compress(d, 1e-6 * float(d.max() - d.min()))
    benchmark(huffman.build, codes)


def test_huffman_encode_bitstream(benchmark, field, eb):
    codes, _ = get_predictor("lorenzo").compress(field, eb)
    code = huffman.build(codes)
    benchmark(code.encode, codes)
