import json

import numpy as np
import pytest

from tinyhar import mcu, modelfile
from tinyhar.model_ir import (ModelGraph, Precision, avg_pool1d, build_mc_cnn,
                              conv1d, dense, flatten, init_params, relu,
                              softmax)
from tinyhar.quantizer import quantize_model

KIB = 1024
MIB = 1024 * KIB


def dense_only_graph(in_dim=100, out_dim=15):
    layers = (dense(in_dim, out_dim), softmax())
    return ModelGraph(layers, init_params(layers, 0),
                      input_shape=(1, in_dim), num_classes=out_dim)


def small_conv_graph(with_pool=False):
    """conv(3ch,k=2,4f) on (10,3); optional pool 3 before the head."""
    head_in = 12 if with_pool else 36
    layers = [conv1d(3, 4, 2), relu()]
    if with_pool:
        layers.append(avg_pool1d(3))
    layers += [flatten(), dense(head_in, 15), softmax()]
    layers = tuple(layers)
    return ModelGraph(layers, init_params(layers, 0),
                      input_shape=(10, 3), num_classes=15)


class TestBuiltinProfiles:
    def test_registry_names(self):
        assert set(mcu.BUILTIN_PROFILES) == {"nrf52840", "mimxrt1062",
                                             "stm32l4s5", "stm32f767"}

    def test_datasheet_constants(self):
        p = mcu.BUILTIN_PROFILES
        assert p["nrf52840"].clock_hz == 64e6
        assert p["nrf52840"].flash_bytes == 1 * MIB
        assert p["nrf52840"].sram_bytes == 256 * KIB
        assert p["mimxrt1062"].clock_hz == 600e6
        assert p["mimxrt1062"].flash_bytes == 8 * MIB
        assert p["mimxrt1062"].sram_bytes == 1000 * KIB
        assert p["stm32l4s5"].clock_hz == 120e6
        assert p["stm32l4s5"].flash_bytes == 2 * MIB
        assert p["stm32l4s5"].sram_bytes == 640 * KIB
        assert p["stm32f767"].clock_hz == 216e6
        assert p["stm32f767"].flash_bytes == 2 * MIB
        assert p["stm32f767"].sram_bytes == 512 * KIB

    def test_power_figures(self):
        p = mcu.BUILTIN_PROFILES
        assert (p["mimxrt1062"].power_float_w,
                p["mimxrt1062"].power_int8_w) == (0.78, 0.73)
        assert (p["stm32l4s5"].power_float_w,
                p["stm32l4s5"].power_int8_w) == (0.67, 0.62)
        assert (p["stm32f767"].power_float_w,
                p["stm32f767"].power_int8_w) == (1.13, 1.08)
        assert p["nrf52840"].power_int8_w == 0.10

    def test_core_factors(self):
        p = mcu.BUILTIN_PROFILES
        assert p["mimxrt1062"].core_factor == 1.0
        assert p["stm32f767"].core_factor == 1.0
        assert p["nrf52840"].core_factor == 0.25
        assert p["stm32l4s5"].core_factor == 0.25

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            mcu.McuProfile("bad", 0.0, 1, 1, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("clock_hz", [float("nan"), float("inf"), True])
    def test_rejects_non_finite_and_bool_fields(self, clock_hz):
        with pytest.raises(ValueError, match="'clock_hz'"):
            mcu.McuProfile("bad", clock_hz, 1, 1, 1.0, 1.0, 1.0)

    def test_load_profiles_round_trip(self, tmp_path):
        path = tmp_path / "profiles.json"
        payload = {name: {"clock_hz": p.clock_hz,
                          "flash_bytes": p.flash_bytes,
                          "sram_bytes": p.sram_bytes,
                          "power_float_w": p.power_float_w,
                          "power_int8_w": p.power_int8_w,
                          "core_factor": p.core_factor}
                   for name, p in mcu.BUILTIN_PROFILES.items()}
        path.write_text(json.dumps(payload))
        loaded = mcu.load_profiles(path)
        assert loaded == mcu.BUILTIN_PROFILES


class TestFeasibility:
    def test_overheads_applied(self):
        p = mcu.BUILTIN_PROFILES["nrf52840"]
        v = mcu.fits_on(model_size=100 * KIB, arena_estimate=10 * KIB,
                        profile=p)
        assert v.flash_needed == 100 * KIB + 256 * KIB
        assert v.arena_needed == 10 * KIB + 64 * KIB
        assert v.feasible

    def test_flash_boundary(self):
        p = mcu.BUILTIN_PROFILES["nrf52840"]
        exactly = p.flash_bytes - 256 * KIB
        assert mcu.fits_on(exactly, 0, p).flash_ok
        assert not mcu.fits_on(exactly + 1, 0, p).flash_ok

    def test_sram_boundary(self):
        p = mcu.BUILTIN_PROFILES["nrf52840"]
        exactly = p.sram_bytes - 64 * KIB
        assert mcu.fits_on(0, exactly, p).sram_ok
        assert not mcu.fits_on(0, exactly + 1, p).sram_ok

    def test_largest_float_model_rejected_on_smallest_part(self):
        graph = build_mc_cnn(23, 24, 400, seed=0)
        rng = np.random.default_rng(0)
        qmodel = quantize_model(graph, [rng.normal(size=(24, 23))
                                        for _ in range(2)])
        size_f = len(modelfile.serialize(graph))
        size_q = len(modelfile.serialize(qmodel))
        p = mcu.BUILTIN_PROFILES["nrf52840"]
        arena_f = mcu.estimate_arena(graph, Precision.FLOAT32)
        arena_q = mcu.estimate_arena(graph, Precision.INT8_FULL)
        assert not mcu.fits_on(size_f, arena_f, p).feasible
        assert mcu.fits_on(size_q, arena_q, p).feasible


class TestArena:
    def test_dense_closed_form(self):
        graph = dense_only_graph(100, 15)
        # peak pair is the dense layer: 100 inputs + 15 outputs
        assert mcu.estimate_arena(graph, Precision.FLOAT32) == 115 * 4
        assert mcu.estimate_arena(graph, Precision.INT8_FULL) == 115

    def test_quantized_model_defaults_to_one_byte(self):
        graph = build_mc_cnn(4, 16, 8, seed=1)
        rng = np.random.default_rng(2)
        qm = quantize_model(graph, [rng.normal(size=(16, 4))])
        assert mcu.estimate_arena(qm) == mcu.estimate_arena(
            graph, Precision.INT8_FULL)


class TestMacCount:
    def test_dense_closed_form(self):
        assert mcu.mac_count(dense_only_graph(100, 15)) == 1500

    def test_conv_closed_form(self):
        # conv: 9 steps * k2 * 3 in * 4 out = 216; head: 36 * 15 = 540
        assert mcu.mac_count(small_conv_graph()) == 216 + 540

    def test_pool_and_relu_cost_nothing(self):
        # adding a pool shrinks only the dense term: 12 * 15 = 180
        assert mcu.mac_count(small_conv_graph(with_pool=True)) == 216 + 180


class TestLatency:
    def test_scales_inversely_with_clock(self):
        graph = dense_only_graph()
        fast = mcu.estimate_latency(graph, mcu.BUILTIN_PROFILES["mimxrt1062"],
                                    Precision.INT8_FULL)
        slow = mcu.estimate_latency(graph, mcu.BUILTIN_PROFILES["stm32f767"],
                                    Precision.INT8_FULL)
        assert slow / fast == pytest.approx(600 / 216)

    def test_float_is_four_times_int8(self):
        graph = dense_only_graph()
        p = mcu.BUILTIN_PROFILES["stm32f767"]
        f = mcu.estimate_latency(graph, p, Precision.FLOAT32)
        q = mcu.estimate_latency(graph, p, Precision.INT8_FULL)
        assert f / q == pytest.approx(4.0)

    def test_device_ordering_for_identical_workload(self):
        graph = build_mc_cnn(23, 24, 400, seed=0)
        lat = {name: mcu.estimate_latency(graph, p, Precision.INT8_FULL)
               for name, p in mcu.BUILTIN_PROFILES.items()}
        assert (lat["mimxrt1062"] < lat["stm32f767"]
                < lat["stm32l4s5"] < lat["nrf52840"])

    def test_closed_form(self):
        graph = dense_only_graph(100, 15)
        p = mcu.BUILTIN_PROFILES["nrf52840"]
        expected_ms = 1500 * 1.0 / (64e6 * 0.25) * 1e3
        assert mcu.estimate_latency(graph, p, Precision.INT8_FULL) == \
            pytest.approx(expected_ms)


class TestEnergy:
    def test_published_examples(self):
        # fastest int8 deployment: 25.26 ms at 0.73 W -> about 18.4 mJ
        e = mcu.estimate_energy(25.26, mcu.BUILTIN_PROFILES["mimxrt1062"],
                                Precision.INT8_FULL)
        assert e == pytest.approx(18.44, abs=0.01)
        # slowest: 394.49 ms at 0.10 W -> about 39.4 mJ
        e = mcu.estimate_energy(394.49, mcu.BUILTIN_PROFILES["nrf52840"],
                                Precision.INT8_FULL)
        assert e == pytest.approx(39.45, abs=0.01)

    def test_zero_latency_zero_energy(self):
        assert mcu.estimate_energy(0.0, mcu.BUILTIN_PROFILES["stm32l4s5"],
                                   Precision.FLOAT32) == 0.0

    def test_precision_selects_power_rail(self):
        p = mcu.BUILTIN_PROFILES["stm32f767"]
        assert mcu.estimate_energy(10.0, p, Precision.FLOAT32) == \
            pytest.approx(11.3)
        assert mcu.estimate_energy(10.0, p, Precision.INT8_FULL) == \
            pytest.approx(10.8)
