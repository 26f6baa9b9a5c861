import numpy as np

from tinyhar import datapipe as dp
from tinyhar.synth import class_signatures, synth_generate


class TestDeterminism:
    def test_same_seed_identical_bytes(self):
        a = synth_generate(seed=7, subjects=1, sessions_per_subject=1,
                           duration_s=30.0)
        b = synth_generate(seed=7, subjects=1, sessions_per_subject=1,
                           duration_s=30.0)
        assert a[0].frames.tobytes() == b[0].frames.tobytes()
        assert np.array_equal(a[0].labels, b[0].labels)

    def test_different_seeds_differ(self):
        a = synth_generate(seed=1, subjects=1, sessions_per_subject=1,
                           duration_s=30.0)
        b = synth_generate(seed=2, subjects=1, sessions_per_subject=1,
                           duration_s=30.0)
        assert not np.array_equal(a[0].frames, b[0].frames)

    def test_signatures_fixed_regardless_of_call_order(self):
        s1 = class_signatures()
        np.random.default_rng(99).normal(size=100)
        s2 = class_signatures()
        assert all(
            (a is None and b is None)
            or np.allclose(a.optical, b.optical)
            for a, b in zip(s1, s2))


class TestShape:
    def test_session_layout(self):
        sessions = synth_generate(seed=0, subjects=2, sessions_per_subject=3,
                                  duration_s=20.0)
        assert len(sessions) == 6
        assert {(s.subject, s.session) for s in sessions} == {
            (su, se) for su in (1, 2) for se in (1, 2, 3)}
        n = int(20.0 * 6)
        for s in sessions:
            assert s.frames.shape == (n, dp.NUM_CHANNELS)
            assert s.labels.shape == (n,)
            assert np.allclose(np.diff(s.timestamps), dp.GRID_STEP_MS)

    def test_labels_in_range(self):
        sessions = synth_generate(seed=3, subjects=1, sessions_per_subject=2,
                                  duration_s=120.0)
        for s in sessions:
            assert s.labels.min() >= 0
            assert s.labels.max() < dp.NUM_CLASSES


class TestClassStructure:
    def test_null_is_most_frequent(self):
        sessions = synth_generate(seed=5, subjects=2, sessions_per_subject=3,
                                  duration_s=300.0)
        counts = np.bincount(np.concatenate([s.labels for s in sessions]),
                             minlength=dp.NUM_CLASSES)
        assert counts[0] == counts.max()

    def test_every_class_appears_in_long_runs(self):
        sessions = synth_generate(seed=5, subjects=2, sessions_per_subject=5,
                                  duration_s=300.0)
        seen = set(np.concatenate([s.labels for s in sessions]).tolist())
        assert seen == set(range(dp.NUM_CLASSES))

    def test_nearest_centroid_separates_classes(self):
        """The non-thermal channels alone should carry enough signal for a
        trivial nearest-centroid classifier on window means to clear 80%."""
        sessions = synth_generate(seed=11, subjects=2,
                                  sessions_per_subject=3, duration_s=300.0)
        wins = dp.make_windows(sessions, window_len=24, stride=12,
                               group=dp.ChannelGroup.G23)
        train, test = dp.split_by_session(wins, held_out_session=3)
        xtr, ytr = dp.stack_windows(train)
        xte, yte = dp.stack_windows(test)
        ftr, fte = xtr.mean(axis=1), xte.mean(axis=1)
        centroids = np.stack([ftr[ytr == c].mean(axis=0)
                              for c in range(dp.NUM_CLASSES)])
        d = np.linalg.norm(fte[:, None, :] - centroids[None], axis=2)
        acc = float(np.mean(d.argmin(axis=1) == yte))
        assert acc >= 0.80
