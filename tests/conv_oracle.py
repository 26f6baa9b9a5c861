"""Reference convolutions the engine tests compare against: the row
matrix of a valid conv, copied, and a float64 conv that multiplies it."""
import numpy as np

from tinyhar.float_engine import conv_matrix, rows


def im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """:func:`rows` copied once to a C-contiguous float64 array."""
    return rows(x, kernel).astype(np.float64, order="C")


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid (unpadded) 1D convolution, one float64 GEMM per window, as
    ``float_engine.layer_outputs`` runs every conv but the first.
    x: (..., time_steps, in_channels); w: (in_channels, kernel, out_filters);
    b: (out_filters,). Output: (..., time_steps - kernel + 1, out_filters).
    """
    return im2col(x, w.shape[1]) @ conv_matrix(w) + b
