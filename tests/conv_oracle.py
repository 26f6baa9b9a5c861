"""Reference convolutions the engine tests compare against: the row
matrix of a valid conv, copied, and a float64 conv that multiplies it;
and the int8 conv of an array."""
import numpy as np

from tinyhar import int8_engine
from tinyhar.float_engine import conv_matrix, rows, windows
from tinyhar.model_ir import batch_block


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


def conv1d_int8(q_in: np.ndarray, *args) -> np.ndarray:
    """``int8_engine.conv1d_int8`` of a (..., T, C) int8 array, its windows
    one stacked block, as a (..., T - kernel + 1, F) array."""
    batch = q_in.reshape((-1,) + q_in.shape[-2:])
    out = windows(int8_engine.conv1d_int8(batch_block(batch), *args))
    return out.reshape(q_in.shape[:-2] + out.shape[1:])
