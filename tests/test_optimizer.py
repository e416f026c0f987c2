import numpy as np
import pytest

from metaembed.optimizer import TrainConfig, seeded_rng


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
    @pytest.mark.parametrize("field", ["learning_rate", "l2_weight"])
    def test_non_finite_setting_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be .* and finite, got {value}$"):
            TrainConfig(**{field: value})

    def test_overrides(self):
        cfg = TrainConfig.projection_defaults(epochs=7, seed=9)
        assert cfg.epochs == 7
        assert cfg.seed == 9
        assert cfg.learning_rate == 0.01
        assert TrainConfig.union_defaults(l2_weight=0.0).l2_weight == 0.0


def test_seeded_rng_accepts_negative_seed():
    a = seeded_rng(-5).uniform(size=3)
    b = seeded_rng(-5).uniform(size=3)
    np.testing.assert_array_equal(a, b)
