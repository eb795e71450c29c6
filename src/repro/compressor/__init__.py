"""SZ3-lite: a prediction-based error-bounded lossy compressor substrate.

Implements, from scratch in numpy, the three-stage framework the paper's
model is built over (Fig. 2): prediction (Lorenzo / multilevel linear
interpolation / block linear regression), linear-scaling quantization with a
point-wise absolute error bound, and encoding (canonical Huffman + zlib
lossless stage). The paper uses SZ3 (C++); see DESIGN.md §2 for the
substitution argument.
"""
from .pipeline import CompressedField, compress, decompress, measure  # noqa: F401
from .predictors import PREDICTORS  # noqa: F401
