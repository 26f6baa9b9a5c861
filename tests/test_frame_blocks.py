"""A ``datapipe.Windows`` runs as ``model_ir.FrameBlock``s: each distinct
frame row is checked, quantized and run through the first conv once, and
every window's results equal those of the same windows stacked."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from tinyhar import benchlab, int8_engine, model_ir, training
from tinyhar.datapipe import Windows
from tinyhar.model_ir import (ModelGraph, NonFiniteInputError,
                              build_deep_conv_lstm, build_mc_cnn, dense,
                              flatten, init_params, relu, softmax)
from tinyhar.quantizer import calibrate, quantize_model

STEPS, CHANNELS = 12, 5


def session_windows(stride, sessions=(40, 31), seed=0):
    """Windows of STEPS frames at ``stride`` over back-to-back sessions of
    the given lengths; none spans two sessions, and the last frames of a
    session may be covered by no window."""
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(sum(sessions), CHANNELS))
    frames.flags.writeable = False
    starts, session_ids, offset = [], [], 0
    for session, length in enumerate(sessions):
        first = np.arange(0, length - STEPS + 1, stride) + offset
        starts.append(first)
        session_ids.append(np.full(len(first), session))
        offset += length
    start = np.concatenate(starts)
    return Windows(frames, start, rng.integers(0, 3, len(start)),
                   np.zeros(len(start), dtype=np.int64),
                   np.concatenate(session_ids), STEPS)


def dense_first():
    layers = (flatten(), dense(STEPS * CHANNELS, 6), relu(), dense(6, 3),
              softmax())
    return ModelGraph(layers, init_params(layers, 3), (STEPS, CHANNELS), 3)


GRAPHS = {
    "mc_cnn": lambda: build_mc_cnn(CHANNELS, STEPS, 8, dense_width=6,
                                   num_classes=3, seed=1),
    "deep_conv_lstm": lambda: build_deep_conv_lstm(
        CHANNELS, STEPS, 4, hidden=5, num_classes=3, seed=2),
    "dense_first": dense_first,
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def models(request):
    graph = GRAPHS[request.param]()
    return graph, quantize_model(graph, session_windows(5).x)


class TestSharedFrames:
    @pytest.mark.parametrize("stride", [1, 2, STEPS - 1, STEPS, STEPS + 3])
    @pytest.mark.parametrize("block", [4, model_ir.BLOCK_WINDOWS])
    def test_windows_equal_their_stacked_array(self, models, stride, block):
        graph, qmodel = models
        windows = session_windows(stride)
        stacked = windows.x
        with mock.patch.object(model_ir, "BLOCK_WINDOWS", block):
            shared_audit = int8_engine.SaturationAudit()
            stacked_audit = int8_engine.SaturationAudit()
            probs, classes = int8_engine.run_quantized(qmodel, windows,
                                                       shared_audit)
            want_probs, want_classes = int8_engine.run_quantized(
                qmodel, stacked, stacked_audit)
            shared = [training.predict_batch(graph, windows),
                      training.predict_proba(graph, windows),
                      calibrate(graph, windows)]
            expected = [training.predict_batch(graph, stacked),
                        training.predict_proba(graph, stacked),
                        calibrate(graph, stacked)]
        assert probs.tobytes() == want_probs.tobytes()
        assert classes.tobytes() == want_classes.tobytes()
        assert shared_audit == stacked_audit and shared_audit.total > 0
        assert shared[0].tobytes() == expected[0].tobytes()
        np.testing.assert_allclose(shared[1], expected[1], rtol=1e-12,
                                   atol=0)
        np.testing.assert_allclose(shared[2], expected[2], rtol=1e-12,
                                   atol=0)
        # at these sizes both first-conv GEMMs sum in the same order
        assert shared[1].tobytes() == expected[1].tobytes()
        assert np.array(shared[2]).tobytes() == \
            np.array(expected[2]).tobytes()

    def test_frame_block_holds_each_covered_row_once(self):
        windows = session_windows(2)
        block = model_ir.frame_block(windows, (STEPS, CHANNELS))
        covered = np.unique(windows.rows())
        assert len(block.frames) == len(covered) < len(windows) * STEPS
        assert block.frames.tobytes() == windows.frames[covered].tobytes()
        assert block.shape == (len(windows), STEPS, CHANNELS)
        assert block.frames[block.index].tobytes() == windows.x.tobytes()

    def test_no_windows(self, models):
        graph, qmodel = models
        windows = session_windows(1)[:0]
        probs, classes = int8_engine.run_quantized(qmodel, windows)
        assert probs.shape == (0, 3) and classes.shape == (0,)
        assert training.predict_proba(graph, windows).shape == (0, 3)

    def test_nan_in_a_covered_frame_raises(self, models):
        graph, qmodel = models
        windows = session_windows(STEPS + 3)
        frames = windows.frames.copy()
        frames[windows.start[-1] + STEPS - 1, 2] = np.nan
        bad = Windows(frames, windows.start, windows.y, windows.subject,
                      windows.session, STEPS)
        with pytest.raises(NonFiniteInputError):
            int8_engine.run_quantized(qmodel, bad)
        with pytest.raises(NonFiniteInputError):
            training.predict_batch(graph, bad)

    def test_nan_in_an_uncovered_frame_is_never_read(self, models):
        graph, qmodel = models
        windows = session_windows(STEPS + 3)
        uncovered = np.setdiff1d(np.arange(len(windows.frames)),
                                 windows.rows())
        frames = windows.frames.copy()
        frames[uncovered] = np.nan
        gappy = Windows(frames, windows.start, windows.y, windows.subject,
                        windows.session, STEPS)
        probs, classes = int8_engine.run_quantized(qmodel, gappy)
        want_probs, want_classes = int8_engine.run_quantized(qmodel,
                                                             windows)
        assert probs.tobytes() == want_probs.tobytes()
        assert classes.tobytes() == want_classes.tobytes()
        assert (training.predict_batch(graph, gappy).tobytes()
                == training.predict_batch(graph, windows).tobytes())


def test_wide_overlapping_windows_classify_in_less_memory():
    """Stride-1 windows of a 791-channel model run their first conv over
    BLOCK_WINDOWS + T - 1 frame rows, not BLOCK_WINDOWS * (T - K + 1)."""
    steps, channels = 24, 791
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(64 + steps - 1, channels))
    frames.flags.writeable = False
    zeros = np.zeros(64, dtype=np.int64)
    windows = Windows(frames, np.arange(64), zeros, zeros, zeros, steps)
    graph = build_mc_cnn(channels, steps, 16, dense_width=8, num_classes=3)
    qmodel = quantize_model(graph, windows[:4])
    stacked = windows.x

    def peak(model, x):
        tracemalloc.start()
        try:
            if isinstance(x, Windows):
                benchlab.classify(model, x)
            elif isinstance(model, ModelGraph):
                training.predict_batch(model, x)
            else:
                int8_engine.run_quantized(model, x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for model in (graph, qmodel):
        assert peak(model, windows) < 0.25 * peak(model, stacked)
