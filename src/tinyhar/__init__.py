"""tinyhar: quantized time-series inference engine and MCU deployment
benchlab for multi-modal activity recognition."""

from .datapipe import ChannelGroup, SessionRecording, WindowedSample
from .model_ir import (ModelGraph, Precision, build_deep_conv_lstm,
                       build_mc_cnn, param_count)
from .quantizer import QuantizedModel, quantize_model
from .int8_engine import run_quantized, timed_inference
from .float_engine import forward
from .mcu import BUILTIN_PROFILES, McuProfile, estimate_arena, fits_on
from .synth import synth_generate

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PROFILES", "ChannelGroup", "McuProfile", "ModelGraph",
    "Precision", "QuantizedModel", "SessionRecording", "WindowedSample",
    "build_deep_conv_lstm", "build_mc_cnn", "estimate_arena", "fits_on",
    "forward", "param_count", "quantize_model",
    "run_quantized", "synth_generate", "timed_inference",
]
