"""Tests for model checkpointing."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    GAlignConfig,
    GAlignTrainer,
    load_model,
    load_training_checkpoint,
    save_model,
)
from repro.graphs import generators, noisy_copy_pair


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(81)
    graph = generators.barabasi_albert(40, 2, rng, feature_dim=6,
                                       feature_kind="degree")
    pair = noisy_copy_pair(graph, rng)
    config = GAlignConfig(epochs=8, embedding_dim=12, seed=0,
                          layer_weights=[0.5, 0.3, 0.2])
    model, _ = GAlignTrainer(config, rng).train(pair)
    return pair, model, config


class TestCheckpointRoundtrip:
    def test_embeddings_identical_after_reload(self, trained, tmp_path):
        pair, model, _ = trained
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        reloaded, _ = load_model(path)
        for original, restored in zip(
            model.embed(pair.source), reloaded.embed(pair.source)
        ):
            np.testing.assert_allclose(restored, original, rtol=1e-12)

    def test_config_restored(self, trained, tmp_path):
        _, model, config = trained
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        _, restored_config = load_model(path)
        assert restored_config.embedding_dim == config.embedding_dim
        assert restored_config.num_layers == config.num_layers
        assert restored_config.layer_weights == [0.5, 0.3, 0.2]

    def test_creates_directories(self, trained, tmp_path):
        _, model, _ = trained
        path = str(tmp_path / "a" / "b" / "model.npz")
        save_model(model, path)
        load_model(path)

    def test_unknown_version_rejected(self, trained, tmp_path):
        import json

        _, model, _ = trained
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(bytes(arrays["header"].tobytes()).decode())
        header["format_version"] = 999
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ValueError):
            load_model(path)


class TestCorruptArchives:
    """Damaged checkpoints fail with a ValueError naming the file,
    never a bare KeyError from np.load."""

    def _arrays(self, trained, tmp_path):
        _, model, _ = trained
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        with np.load(path) as archive:
            return path, {name: archive[name] for name in archive.files}

    def test_truncated_weights_rejected(self, trained, tmp_path):
        # The config declares num_layers weight arrays; drop the last one
        # (an interrupted non-atomic copy) and the mismatch must be loud.
        path, arrays = self._arrays(trained, tmp_path)
        last = max(n for n in arrays if n.startswith("weight_"))
        del arrays[last]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="truncated or corrupt") as err:
            load_model(path)
        assert path in str(err.value)

    def test_extra_weight_rejected(self, trained, tmp_path):
        path, arrays = self._arrays(trained, tmp_path)
        arrays["weight_99"] = arrays["weight_0"]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_model(path)

    def test_missing_header_rejected(self, trained, tmp_path):
        path, arrays = self._arrays(trained, tmp_path)
        del arrays["header"]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="no header record"):
            load_model(path)

    def test_v1_rejected_by_training_loader(self, trained, tmp_path):
        _, model, _ = trained
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        with pytest.raises(ValueError, match="load_model"):
            load_training_checkpoint(path)


class TestRetiredConfigKeys:
    @staticmethod
    def _write_with_retired_keys(pair, config, path, trainer):
        # Checkpoints written while the sampled Eq 7 estimator existed
        # carry its three config fields.
        GAlignTrainer(replace(config, epochs=2),
                      np.random.default_rng(3)).train(
            pair, checkpoint_path=path
        )
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(bytes(arrays["header"].tobytes()).decode())
        assert header["format_version"] == 2
        header["config"].update(
            trainer=trainer, sample_batch_size=256, sample_negatives=5
        )
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)

    def test_v2_checkpoint_with_sampled_trainer_keys_loads(
        self, trained, tmp_path
    ):
        # They load, and resume, without them; a sampled run warns that
        # the resumed run's Eq 7 is the exact one.
        pair, _, config = trained
        path = str(tmp_path / "train.npz")
        self._write_with_retired_keys(pair, config, path, "sampled")

        with pytest.warns(UserWarning, match="trainer='sampled'"):
            checkpoint = load_training_checkpoint(path)
        assert checkpoint.epoch == 1
        assert checkpoint.config == replace(config, epochs=2)
        model, _ = load_model(path)
        assert model.config == checkpoint.config
        with pytest.warns(UserWarning, match="exact Eq 7"):
            _, log = GAlignTrainer(replace(config, epochs=3),
                                   np.random.default_rng(3)).train(
                pair, resume_from=path
            )
        assert len(log.total) == 3

    def test_dense_trainer_key_loads_without_warning(self, trained, tmp_path):
        pair, _, config = trained
        path = str(tmp_path / "train.npz")
        self._write_with_retired_keys(pair, config, path, "dense")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checkpoint = load_training_checkpoint(path)
        assert checkpoint.config == replace(config, epochs=2)
