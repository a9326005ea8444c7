"""Tests for the versioned, memory-mapped alignment artifact format."""

import json
import os

import numpy as np
import pytest

from repro.observability import MetricsRegistry
from repro.resilience import ArtifactValidationError
from repro.serving import (
    ARTIFACT_SCHEMA,
    config_fingerprint,
    export_artifact,
    load_artifact,
)


def make_embeddings(rng, n_source=25, n_target=31, dims=(8, 4)):
    source = [rng.standard_normal((n_source, d)) for d in dims]
    target = [rng.standard_normal((n_target, d)) for d in dims]
    weights = [0.6, 0.4]
    return source, target, weights


@pytest.fixture
def exported(tmp_path, rng):
    source, target, weights = make_embeddings(rng)
    path = str(tmp_path / "artifact")
    export_artifact(path, source, target, weights, pair_name="unit")
    return path, source, target, weights


class TestExport:
    def test_roundtrip_values(self, exported):
        path, source, target, weights = exported
        artifact = load_artifact(path)
        assert artifact.layer_weights == weights
        assert artifact.num_layers == 2
        for expected, loaded in zip(source, artifact.source_embeddings):
            np.testing.assert_array_equal(expected, loaded)
        for expected, loaded in zip(target, artifact.target_embeddings):
            np.testing.assert_array_equal(expected, loaded)

    def test_loads_memory_mapped(self, exported):
        path, *_ = exported
        artifact = load_artifact(path, mmap=True)
        assert isinstance(artifact.source_embeddings[0], np.memmap)
        in_memory = load_artifact(path, mmap=False)
        assert not isinstance(in_memory.source_embeddings[0], np.memmap)

    def test_manifest_contents(self, exported):
        path, source, target, _ = exported
        with open(os.path.join(path, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["schema"] == ARTIFACT_SCHEMA
        assert manifest["num_layers"] == 2
        assert manifest["stats"]["pair"] == "unit"
        assert manifest["stats"]["n_source"] == source[0].shape[0]
        assert manifest["stats"]["n_target"] == target[0].shape[0]
        assert set(manifest["arrays"]) == {
            "source_layer_0", "source_layer_1",
            "target_layer_0", "target_layer_1",
        }
        for entry in manifest["arrays"].values():
            assert len(entry["sha256"]) == 64

    def test_stats_and_repr(self, exported):
        path, source, target, _ = exported
        artifact = load_artifact(path)
        assert artifact.n_source == source[0].shape[0]
        assert artifact.n_target == target[0].shape[0]
        assert artifact.fingerprint in repr(artifact)

    def test_config_stored(self, tmp_path, rng):
        from repro.core import GAlignConfig

        source, target, weights = make_embeddings(rng)
        path = str(tmp_path / "with_config")
        export_artifact(path, source, target, weights,
                        config=GAlignConfig(epochs=7, embedding_dim=8))
        artifact = load_artifact(path)
        assert artifact.manifest["config"]["epochs"] == 7

    def test_rejects_non_2d(self, tmp_path, rng):
        source, target, weights = make_embeddings(rng)
        source[1] = source[1].ravel()
        with pytest.raises(ArtifactValidationError, match="2-D"):
            export_artifact(str(tmp_path / "x"), source, target, weights)

    def test_rejects_ragged_rows(self, tmp_path, rng):
        source, target, weights = make_embeddings(rng)
        source[1] = source[1][:-1]
        with pytest.raises(ArtifactValidationError, match="rows"):
            export_artifact(str(tmp_path / "x"), source, target, weights)

    def test_rejects_non_finite(self, tmp_path, rng):
        source, target, weights = make_embeddings(rng)
        target[0][3, 1] = np.nan
        with pytest.raises(ArtifactValidationError, match="non-finite"):
            export_artifact(str(tmp_path / "x"), source, target, weights)

    def test_rejects_weight_mismatch(self, tmp_path, rng):
        source, target, _ = make_embeddings(rng)
        with pytest.raises(ArtifactValidationError, match="layer_weights"):
            export_artifact(str(tmp_path / "x"), source, target, [1.0])

    def test_rejects_layer_count_mismatch(self, tmp_path, rng):
        source, target, weights = make_embeddings(rng)
        with pytest.raises(ArtifactValidationError, match="layer count"):
            export_artifact(str(tmp_path / "x"), source, target[:1], weights)

    def test_failures_counted(self, tmp_path, rng):
        source, target, weights = make_embeddings(rng)
        registry = MetricsRegistry()
        with pytest.raises(ArtifactValidationError):
            export_artifact(str(tmp_path / "x"), [], target, weights,
                            registry=registry)
        counter = registry.get("resilience.artifact_validation_failures")
        assert counter is not None and counter.value == 1


class TestFingerprint:
    def test_sensitive_to_content(self, tmp_path, rng):
        source, target, weights = make_embeddings(rng)
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        export_artifact(a, source, target, weights)
        target[0] = target[0] + 1e-9
        export_artifact(b, source, target, weights)
        assert load_artifact(a).fingerprint != load_artifact(b).fingerprint

    def test_sensitive_to_weights(self, tmp_path, rng):
        source, target, weights = make_embeddings(rng)
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        export_artifact(a, source, target, weights)
        export_artifact(b, source, target, weights[::-1])
        assert load_artifact(a).fingerprint != load_artifact(b).fingerprint

    def test_deterministic(self):
        kwargs = dict(
            config_fields={"epochs": 3},
            layer_weights=[0.5, 0.5],
            shapes={"source_layer_0": (2, 3)},
            digests={"source_layer_0": "ab"},
        )
        assert config_fingerprint(**kwargs) == config_fingerprint(**kwargs)
        assert len(config_fingerprint(**kwargs)) == 16


class TestLoadValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactValidationError, match="not a directory"):
            load_artifact(str(tmp_path / "nope"))

    def test_missing_manifest(self, tmp_path):
        path = tmp_path / "empty"
        path.mkdir()
        with pytest.raises(ArtifactValidationError, match="manifest.json"):
            load_artifact(str(path))

    def test_invalid_json(self, exported):
        path, *_ = exported
        with open(os.path.join(path, "manifest.json"), "w") as handle:
            handle.write("{ not json")
        with pytest.raises(ArtifactValidationError, match="not valid JSON"):
            load_artifact(path)

    def test_wrong_schema(self, exported):
        path, *_ = exported
        self._edit_manifest(path, schema="repro.artifact/v999")
        with pytest.raises(ArtifactValidationError, match="schema"):
            load_artifact(path)

    def test_missing_array_file(self, exported):
        path, *_ = exported
        os.remove(os.path.join(path, "target_layer_1.npy"))
        with pytest.raises(ArtifactValidationError, match="missing"):
            load_artifact(path)

    def test_shape_tamper_detected(self, exported):
        path, *_ = exported
        np.save(os.path.join(path, "source_layer_0.npy"), np.zeros((2, 2)))
        with pytest.raises(ArtifactValidationError, match="truncated or swapped"):
            load_artifact(path)

    def test_weight_count_tamper_detected(self, exported):
        path, *_ = exported
        self._edit_manifest(path, layer_weights=[1.0])
        with pytest.raises(ArtifactValidationError, match="layer_weights"):
            load_artifact(path)

    def test_non_finite_scan(self, exported):
        path, source, *_ = exported
        poisoned = source[0].copy()
        poisoned[0, 0] = np.inf
        np.save(os.path.join(path, "source_layer_0.npy"), poisoned)
        with pytest.raises(ArtifactValidationError, match="non-finite"):
            load_artifact(path, check_finite=True)
        # the scan is optional; shape still matches so this load succeeds
        load_artifact(path, check_finite=False)

    def test_hash_check_detects_modification(self, exported):
        path, source, *_ = exported
        np.save(os.path.join(path, "source_layer_0.npy"),
                source[0] + 1.0)
        load_artifact(path)
        with pytest.raises(ArtifactValidationError, match="content hash"):
            load_artifact(path, verify="eager")

    def test_hash_check_passes_untouched(self, exported):
        path, *_ = exported
        load_artifact(path, verify="eager")

    def test_error_is_a_value_error(self, tmp_path):
        # status_for_error and generic callers rely on the subclassing.
        with pytest.raises(ValueError):
            load_artifact(str(tmp_path / "nope"))

    @staticmethod
    def _edit_manifest(path, **updates):
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest.update(updates)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)


def _flip_byte(file_path, offset=-8):
    """XOR one payload byte in place — a single-bit-rot stand-in."""
    with open(file_path, "rb+") as handle:
        handle.seek(offset, os.SEEK_END if offset < 0 else os.SEEK_SET)
        position = handle.tell()
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestCorruptionMatrix:
    """Every way an artifact can rot on disk must surface as a typed
    :class:`ArtifactValidationError` *naming the damaged file* — never
    a silent wrong answer, never an anonymous crash."""

    def test_flipped_byte_named_with_offset(self, exported):
        path, *_ = exported
        victim = os.path.join(path, "target_layer_1.npy")
        _flip_byte(victim)
        with pytest.raises(ArtifactValidationError) as excinfo:
            load_artifact(path, check_finite=False, verify="eager")
        message = str(excinfo.value)
        assert "target_layer_1.npy" in message
        assert "bytes [" in message  # the chunk's byte range is named

    def test_truncated_npy_named(self, exported):
        path, *_ = exported
        victim = os.path.join(path, "source_layer_0.npy")
        size = os.path.getsize(victim)
        with open(victim, "rb+") as handle:
            handle.truncate(size - 64)
        with pytest.raises(ArtifactValidationError) as excinfo:
            load_artifact(path, check_finite=False)
        assert "source_layer_0" in str(excinfo.value)

    def test_torn_manifest_named(self, exported):
        path, *_ = exported
        manifest_path = os.path.join(path, "manifest.json")
        size = os.path.getsize(manifest_path)
        with open(manifest_path, "rb+") as handle:
            handle.truncate(size // 2)  # mid-write power loss
        with pytest.raises(ArtifactValidationError) as excinfo:
            load_artifact(path)
        assert "manifest" in str(excinfo.value)

    def test_missing_committed_marker_is_a_torn_write(self, exported):
        from repro.serving.artifact import COMMITTED_MARKER

        path, *_ = exported
        os.remove(os.path.join(path, COMMITTED_MARKER))
        with pytest.raises(ArtifactValidationError) as excinfo:
            load_artifact(path)
        message = str(excinfo.value)
        assert COMMITTED_MARKER in message

    def test_verify_off_trusts_the_bytes(self, exported):
        path, *_ = exported
        _flip_byte(os.path.join(path, "target_layer_1.npy"))
        artifact = load_artifact(path, check_finite=False, verify="off")
        assert artifact.verifier is None

    def test_lazy_verifier_poisons_after_detection(self, exported):
        path, *_ = exported
        _flip_byte(os.path.join(path, "target_layer_0.npy"))
        registry = MetricsRegistry()
        artifact = load_artifact(
            path, check_finite=False, verify="lazy", registry=registry
        )
        verifier = artifact.verifier
        assert verifier is not None
        with pytest.raises(ArtifactValidationError, match="target_layer_0"):
            verifier.ensure()
        assert verifier.error is not None
        assert "target_layer_0.npy" in str(verifier.error)
        with pytest.raises(ArtifactValidationError):
            verifier.raise_if_failed()

    def test_lazy_verifier_passes_clean_artifact(self, exported):
        path, *_ = exported
        registry = MetricsRegistry()
        artifact = load_artifact(path, verify="lazy", registry=registry)
        artifact.verifier.ensure()
        assert artifact.verifier.error is None
        artifact.verifier.raise_if_failed()  # must not raise
        assert registry.counter("serving.artifact.verified").value == 1

    def test_invalid_verify_mode_rejected(self, exported):
        path, *_ = exported
        with pytest.raises(ValueError, match="verify"):
            load_artifact(path, verify="sometimes")

    def test_lazy_verifier_crash_reads_as_failure(self, tmp_path):
        # The review-pinned regression: a verification that *crashes*
        # (file deleted mid-verify → FileNotFoundError, not a digest
        # mismatch) must report the artifact as failed, not silently
        # verified because the daemon thread died.
        from repro.serving import ArtifactVerifier

        registry = MetricsRegistry()
        verifier = ArtifactVerifier(
            str(tmp_path),
            {
                "source_layer_0": {
                    "file": "gone.npy",
                    "file_bytes": 64,
                    "chunk_bytes": 64,
                    "sha256_chunks": ["0" * 64],
                }
            },
            registry=registry,
        )
        with pytest.raises(
            ArtifactValidationError, match="verification crashed"
        ):
            verifier.ensure(timeout=10.0)
        assert verifier.done
        assert verifier.error is not None
        assert isinstance(verifier.error.__cause__, FileNotFoundError)
        with pytest.raises(ArtifactValidationError):
            verifier.raise_if_failed()
        assert (
            registry.counter("serving.artifact.verified").value == 0
        )


class TestVerifyArtifactReport:
    def test_healthy_report(self, exported):
        from repro.serving import verify_artifact

        path, source, target, _ = exported
        report = verify_artifact(path)
        assert report["status"] == "ok"
        assert report["committed"] is True
        assert report["n_source"] == source[0].shape[0]
        assert report["n_target"] == target[0].shape[0]
        assert set(report["arrays"]) == {
            "source_layer_0", "source_layer_1",
            "target_layer_0", "target_layer_1",
        }
        assert all(a["status"] == "ok" for a in report["arrays"].values())
        assert report["bytes"] > 0

    def test_corrupt_artifact_raises_naming_file(self, exported):
        from repro.serving import verify_artifact

        path, *_ = exported
        _flip_byte(os.path.join(path, "source_layer_1.npy"))
        with pytest.raises(ArtifactValidationError, match="source_layer_1"):
            verify_artifact(path)


@pytest.fixture
def ann_exported(tmp_path, rng):
    source, target, weights = make_embeddings(rng, n_target=200)
    path = str(tmp_path / "ann-artifact")
    export_artifact(
        path, source, target, weights, pair_name="unit-ann",
        ann_clusters=6, ann_seed=3, ann_quant_rows=32,
    )
    return path, source, target, weights


class TestAnnArtifact:
    """Schema v2: the ANN aux arrays ride the same integrity rails as
    the embeddings — staged-atomic export, chunked hashes, and semantic
    validation that names the damaged ``ann_*`` array."""

    def test_roundtrip_and_manifest(self, ann_exported):
        from repro.serving import ARTIFACT_SCHEMA_V2

        path, source, target, weights = ann_exported
        with open(os.path.join(path, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["schema"] == ARTIFACT_SCHEMA_V2
        assert manifest["ann"]["n_clusters"] == 6
        assert manifest["ann"]["quantize"] is True
        assert {
            "ann_centroids", "ann_offsets", "ann_order",
            "ann_codes", "ann_scales",
        } <= set(manifest["arrays"])
        artifact = load_artifact(path)
        assert artifact.ann_params["n_clusters"] == 6
        assert artifact.ann["codes"].dtype == np.int8
        assert int(artifact.ann["offsets"][-1]) == target[0].shape[0]
        assert np.array_equal(
            np.sort(artifact.ann["order"]),
            np.arange(target[0].shape[0]),
        )

    def test_verify_artifact_covers_ann_arrays(self, ann_exported):
        from repro.serving import verify_artifact

        path, *_ = ann_exported
        report = verify_artifact(path)
        assert report["status"] == "ok"
        assert "ann_codes" in report["arrays"]
        assert all(a["status"] == "ok" for a in report["arrays"].values())

    def test_v1_export_has_no_ann(self, exported):
        path, *_ = exported
        artifact = load_artifact(path)
        assert artifact.ann is None and artifact.ann_params is None

    def test_unquantized_export_omits_codes(self, tmp_path, rng):
        source, target, weights = make_embeddings(rng, n_target=120)
        path = str(tmp_path / "float-ann")
        export_artifact(
            path, source, target, weights,
            ann_clusters=4, ann_quantize=False,
        )
        with open(os.path.join(path, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert "ann_codes" not in manifest["arrays"]
        assert "ann_scales" not in manifest["arrays"]
        artifact = load_artifact(path)
        assert artifact.ann["codes"] is None
        assert artifact.ann_params["quantize"] is False

    def test_fingerprint_differs_from_v1(self, tmp_path, rng):
        source, target, weights = make_embeddings(rng)
        plain = export_artifact(
            str(tmp_path / "plain"), source, target, weights
        )
        ann = export_artifact(
            str(tmp_path / "with-ann"), source, target, weights,
            ann_clusters=4,
        )
        assert (
            load_artifact(plain).fingerprint
            != load_artifact(ann).fingerprint
        )

    def test_rejects_bad_ann_clusters(self, tmp_path, rng):
        source, target, weights = make_embeddings(rng)
        for bad in (True, 0, -3):
            with pytest.raises(ValueError, match="ann_clusters"):
                export_artifact(
                    str(tmp_path / "bad"), source, target, weights,
                    ann_clusters=bad,
                )

    # -- the corruption matrix, extended to the ANN aux files ----------
    def test_missing_codes_file_named(self, ann_exported):
        path, *_ = ann_exported
        os.remove(os.path.join(path, "ann_codes.npy"))
        with pytest.raises(ArtifactValidationError, match="ann_codes"):
            load_artifact(path)

    def test_missing_manifest_entry_named(self, ann_exported):
        path, *_ = ann_exported
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        del manifest["arrays"]["ann_scales"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactValidationError, match="ann_scales"):
            load_artifact(path)

    def test_scales_shape_mismatch_named(self, ann_exported):
        path, *_ = ann_exported
        scales = np.load(os.path.join(path, "ann_scales.npy"))
        np.save(os.path.join(path, "ann_scales.npy"), scales[:-1])
        with pytest.raises(ArtifactValidationError, match="ann_scales"):
            load_artifact(path, verify="off")

    def test_truncated_inverted_list_named(self, ann_exported):
        path, *_ = ann_exported
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        offsets = np.load(os.path.join(path, "ann_offsets.npy"))
        offsets[-1] -= 5  # the last list no longer reaches n_target
        np.save(os.path.join(path, "ann_offsets.npy"), offsets)
        # Keep the chunk hashes honest so only the *semantic* check can
        # catch this (a consistent-but-wrong artifact, not bit rot).
        import hashlib

        with open(os.path.join(path, "ann_offsets.npy"), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        entry = manifest["arrays"]["ann_offsets"]
        entry["sha256"] = digest
        entry["chunks"] = [digest]
        entry["bytes"] = os.path.getsize(
            os.path.join(path, "ann_offsets.npy")
        )
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(
            ArtifactValidationError, match="ann_offsets"
        ) as excinfo:
            load_artifact(path)
        assert "truncated or scrambled" in str(excinfo.value)

    def test_order_non_permutation_named(self, ann_exported):
        path, *_ = ann_exported
        order = np.load(os.path.join(path, "ann_order.npy"))
        order[1] = order[0]  # duplicate id: no longer a permutation
        np.save(os.path.join(path, "ann_order.npy"), order)
        with pytest.raises(ArtifactValidationError, match="ann_order"):
            load_artifact(path, verify="off")

    def test_flipped_byte_in_codes_detected(self, ann_exported):
        path, *_ = ann_exported
        _flip_byte(os.path.join(path, "ann_codes.npy"))
        with pytest.raises(ArtifactValidationError, match="ann_codes"):
            load_artifact(path, verify="eager")

    def test_v2_without_ann_section_rejected(self, ann_exported):
        path, *_ = ann_exported
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        del manifest["ann"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactValidationError, match="ann"):
            load_artifact(path)

    def test_loaded_artifact_serves_ann_bitwise(self, ann_exported):
        from repro.serving import AlignmentIndex, AnnIndex

        path, source, target, weights = ann_exported
        index = AnnIndex.from_artifact(load_artifact(path))
        exact = AlignmentIndex(source, target, weights)
        expected = exact.top_k([0, 1, 2], k=5)
        got = index.top_k([0, 1, 2], k=5, mode="ann", nprobe=6)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
