import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaembed.optimizer import (
    TrainConfig,
    adagrad_update,
    loss_plateaued,
    minibatches,
    seeded_rng,
)


class TestAdagradUpdate:
    def test_zero_gradient_leaves_params(self):
        params = np.array([1.0, -2.0])
        accum = np.array([0.5, 0.5])
        new_params, new_accum = adagrad_update(params, np.zeros(2), accum, 0.1, 1e-8)
        np.testing.assert_array_equal(new_params, params)
        np.testing.assert_array_equal(new_accum, accum)

    def test_hand_computed_step(self):
        # accum' = 0 + 2^2 = 4; step = 0.1 * 2 / sqrt(4) = 0.1
        new_params, new_accum = adagrad_update(
            np.array([0.0]), np.array([2.0]), np.array([0.0]), 0.1, 0.0
        )
        np.testing.assert_allclose(new_accum, [4.0])
        np.testing.assert_allclose(new_params, [-0.1])

    def test_step_magnitude_decreases(self):
        params = np.array([0.0])
        accum = np.array([0.0])
        grads = np.array([1.5])
        steps = []
        for _ in range(10):
            new_params, accum = adagrad_update(params, grads, accum, 0.01, 1e-8)
            steps.append(abs(new_params[0] - params[0]))
            params = new_params
        assert all(a > b for a, b in zip(steps, steps[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            adagrad_update(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 1e-8)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5),
        st.floats(1e-6, 10.0),
    )
    def test_finite_inputs_give_finite_params(self, params, grads, lr):
        n = min(len(params), len(grads))
        p = np.array(params[:n])
        g = np.array(grads[:n])
        new_params, new_accum = adagrad_update(p, g, np.zeros(n), lr, 1e-8)
        assert np.isfinite(new_params).all()
        assert np.isfinite(new_accum).all()


class TestMinibatches:
    def test_sizes(self):
        batches = minibatches(5, 2, seed=0, epoch=0)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_deterministic(self):
        a = minibatches(20, 6, seed=42, epoch=3)
        b = minibatches(20, 6, seed=42, epoch=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_partition(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(1, 200))
            bs = int(rng.integers(1, 50))
            batches = minibatches(n, bs, seed=7, epoch=int(rng.integers(0, 10)))
            combined = np.concatenate(batches)
            assert sorted(combined.tolist()) == list(range(n))

    def test_epochs_reshuffle(self):
        a = np.concatenate(minibatches(100, 100, seed=1, epoch=0))
        b = np.concatenate(minibatches(100, 100, seed=1, epoch=1))
        assert not np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=50),
    )
    def test_partition_property(self, n, bs, seed, epoch):
        batches = minibatches(n, bs, seed, epoch)
        combined = sorted(np.concatenate(batches).tolist())
        assert combined == list(range(n))

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="n must be"):
            minibatches(0, 2, 0, 0)


class TestTrainConfig:
    def test_defaults_match_tuned_values(self):
        cfg = TrainConfig()
        assert (cfg.batch_size, cfg.learning_rate, cfg.l2_weight) == (200, 0.005, 5e-4)

        proj = TrainConfig.projection_defaults()
        assert (proj.batch_size, proj.learning_rate, proj.l2_weight) == (200, 0.01, 5e-8)

        union = TrainConfig.union_defaults()
        assert (union.batch_size, union.learning_rate, union.l2_weight) == (2000, 0.005, 5e-4)

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError, match="l2_weight"):
            TrainConfig(l2_weight=-1.0)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["learning_rate", "l2_weight", "adagrad_epsilon"])
    def test_non_finite_setting_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be .* and finite, got {value}$"):
            TrainConfig(**{field: value})

    def test_overrides(self):
        cfg = TrainConfig.projection_defaults(epochs=7, seed=9)
        assert cfg.epochs == 7
        assert cfg.seed == 9
        assert cfg.learning_rate == 0.01


class TestEarlyStop:
    def test_not_enough_history(self):
        assert not loss_plateaued([1.0, 0.9, 0.8])

    def test_stops_on_stall(self):
        losses = [1.0, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4 - 1e-9]
        assert loss_plateaued(losses)

    def test_keeps_going_while_improving(self):
        losses = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        assert not loss_plateaued(losses)


def test_seeded_rng_accepts_negative_seed():
    a = seeded_rng(-5).uniform(size=3)
    b = seeded_rng(-5).uniform(size=3)
    np.testing.assert_array_equal(a, b)
