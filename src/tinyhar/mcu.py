"""Microcontroller resource profiles, flash/SRAM feasibility checks, and
latency/energy estimation.

The four built-in profiles carry the published datasheet constants (clock,
flash, SRAM) plus measured active-power figures per precision. The latency
model is a MAC-count heuristic: wall time = MACs * cycles_per_mac /
(clock * core_factor), with core_factor capturing M7-vs-M4 throughput beyond
the raw clock ratio and a cycle penalty for float math.

A model is read only through its ``specs``, ``input_shape`` and
``precision``, which a ``ModelGraph`` and a ``QuantizedModel`` both expose.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .model_ir import LayerKind, Precision, output_shapes

KIB = 1024
MIB = 1024 * KIB

# default firmware + inference-runtime footprint; calibrated so the float
# 23-channel N3 model is rejected on the nRF52840 while its int8 twin fits
DEFAULT_FLASH_OVERHEAD = 256 * KIB
DEFAULT_RAM_OVERHEAD = 64 * KIB

INT8_CYCLES_PER_MAC = 1.0
FLOAT32_CYCLES_PER_MAC = 4.0


_PROFILE_FIELDS = ("clock_hz", "flash_bytes", "sram_bytes", "power_float_w",
                   "power_int8_w", "core_factor")


class ProfileError(ValueError):
    """A malformed profile registry file."""


@dataclass(frozen=True)
class McuProfile:
    name: str
    clock_hz: float
    flash_bytes: int
    sram_bytes: int
    power_float_w: float
    power_int8_w: float
    core_factor: float  # relative MAC throughput (M7-class = 1.0)

    def __post_init__(self):
        for field_name in _PROFILE_FIELDS:
            value = getattr(self, field_name)
            # a JSON true or false is a bool, which is an int in Python
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value) or value <= 0):
                raise ValueError(f"key {field_name!r} must be a finite "
                                 f"positive number")


# nRF52840 float power: the float model does not fit on this part, so no
# measurement exists; the int8 figure is reused as a placeholder.
BUILTIN_PROFILES: dict[str, McuProfile] = {
    "nrf52840": McuProfile("nrf52840", 64e6, 1 * MIB, 256 * KIB,
                           0.10, 0.10, 0.25),
    "mimxrt1062": McuProfile("mimxrt1062", 600e6, 8 * MIB, 1000 * KIB,
                             0.78, 0.73, 1.0),
    "stm32l4s5": McuProfile("stm32l4s5", 120e6, 2 * MIB, 640 * KIB,
                            0.67, 0.62, 0.25),
    "stm32f767": McuProfile("stm32f767", 216e6, 2 * MIB, 512 * KIB,
                            1.13, 1.08, 1.0),
}


def load_profiles(path) -> dict[str, McuProfile]:
    """Read a profile registry from a JSON file.

    Format: {"name": {"clock_hz": ..., "flash_bytes": ..., "sram_bytes": ...,
    "power_float_w": ..., "power_int8_w": ..., "core_factor": ...}, ...},
    each value a finite positive number; a registry of another shape
    raises :class:`ProfileError` naming the file, the profile and the key,
    and so does a file that cannot be read or is not JSON.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # a decode error is a ValueError
        raise ProfileError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ProfileError(f"{path} holds no JSON object")
    profiles = {}
    for name, fields in raw.items():
        where = f"{path}: profile {name!r}"
        if not isinstance(fields, dict):
            raise ProfileError(f"{where} is not an object")
        for key in fields:
            if key not in _PROFILE_FIELDS:
                raise ProfileError(f"{where}: unknown key {key!r}")
        for key in _PROFILE_FIELDS:
            if key not in fields:
                raise ProfileError(f"{where}: missing key {key!r}")
        try:
            profiles[name] = McuProfile(name=name, **fields)
        except ValueError as exc:
            raise ProfileError(f"{where}: {exc}") from None
    return profiles


@dataclass(frozen=True)
class FeasibilityVerdict:
    flash_ok: bool
    sram_ok: bool
    flash_needed: int
    arena_needed: int

    @property
    def feasible(self) -> bool:
        return self.flash_ok and self.sram_ok


def fits_on(model_size: int, arena_estimate: int,
            profile: McuProfile) -> FeasibilityVerdict:
    flash_needed = model_size + DEFAULT_FLASH_OVERHEAD
    arena_needed = arena_estimate + DEFAULT_RAM_OVERHEAD
    return FeasibilityVerdict(
        flash_ok=flash_needed <= profile.flash_bytes,
        sram_ok=arena_needed <= profile.sram_bytes,
        flash_needed=flash_needed,
        arena_needed=arena_needed,
    )


def estimate_arena(model, precision: Precision | None = None) -> int:
    """Peak of (input + output activation bytes) over all layers, at
    ``precision`` or, when it is None, at the model's own."""
    precision = model.precision if precision is None else precision
    bytes_per = 1 if precision == Precision.INT8_FULL else 4
    shapes = output_shapes(model.specs, model.input_shape)
    sizes = [math.prod(shape) for shape in [model.input_shape, *shapes]]
    return max(inp + out for inp, out in zip(sizes, sizes[1:])) * bytes_per


def mac_count(model) -> int:
    """Multiply-accumulate operations for one inference."""
    shapes = output_shapes(model.specs, model.input_shape)
    total = 0
    for spec, out_shape in zip(model.specs, shapes):
        if spec.kind == LayerKind.CONV1D:
            total += out_shape[0] * spec.kernel * spec.in_channels * spec.out_filters
        elif spec.kind == LayerKind.DENSE:
            total += spec.in_dim * spec.out_dim
        elif spec.kind == LayerKind.LSTM:
            total += out_shape[0] * 4 * (spec.in_dim * spec.hidden
                                         + spec.hidden * spec.hidden)
    return total


def estimate_latency(model, profile: McuProfile,
                     precision: Precision | None = None) -> float:
    """Estimated inference time in milliseconds, at ``precision`` or, when
    it is None, at the model's own."""
    precision = model.precision if precision is None else precision
    cycles = (INT8_CYCLES_PER_MAC if precision == Precision.INT8_FULL
              else FLOAT32_CYCLES_PER_MAC)
    seconds = mac_count(model) * cycles / (profile.clock_hz * profile.core_factor)
    return seconds * 1e3


def estimate_energy(latency_ms: float, profile: McuProfile,
                    precision: Precision) -> float:
    """Energy per inference in millijoules: active power times latency."""
    power = (profile.power_int8_w if precision == Precision.INT8_FULL
             else profile.power_float_w)
    return power * latency_ms
