"""Checkpointing: model-only (v1) and resumable training (v2) archives.

Training dominates GAlign's runtime; alignment (even with refinement) is a
cheap forward pass.  Two checkpoint kinds cover the two needs:

* **v1 model checkpoints** (:func:`save_model` / :func:`load_model`) —
  weights + config.  Train once, re-align many target variants (e.g. the
  noise sweeps of Figs 3-4 against one model).
* **v2 training checkpoints** (:func:`save_training_checkpoint` /
  :func:`load_training_checkpoint`) — weights + config *plus* optimizer
  state, the epoch counter, the RNG state, and the loss history, so a
  killed run resumes to bit-identical final weights.  v1 files still load
  through :func:`load_model`, and :func:`load_model` also accepts v2
  files (ignoring the training state).

Writes are atomic (temp file + ``os.replace``) so a crash mid-save never
corrupts the previous checkpoint — the property resumability depends on.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import warnings
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..observability import MetricsRegistry, get_registry
from .config import GAlignConfig
from .model import MultiOrderGCN

__all__ = [
    "save_model",
    "load_model",
    "save_training_checkpoint",
    "load_training_checkpoint",
    "TrainingCheckpoint",
]

_FORMAT_VERSION = 1
_TRAINING_FORMAT_VERSION = 2
_WEIGHT_KEY = re.compile(r"^weight_(\d+)$")
#: Config fields older checkpoints may still carry: the sampled Eq 7
#: estimator's switches, retired when the exact loss became the cheaper.
_RETIRED_CONFIG_KEYS = ("trainer", "sample_batch_size", "sample_negatives")


def _atomic_savez(path: str, arrays: Dict[str, np.ndarray]) -> str:
    """Write an ``.npz`` atomically; returns the final path.

    Mirrors ``np.savez``'s habit of appending ``.npz`` when the suffix is
    missing, then writes to a sibling temp file and ``os.replace``s it in
    so an interrupted save leaves any existing checkpoint untouched.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    return path


def _encode_header(header: Dict) -> np.ndarray:
    return np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)


def _read_header(archive, path: str) -> Dict:
    if "header" not in archive.files:
        raise ValueError(
            f"checkpoint {path!r} has no header record; the file is not a "
            "repro checkpoint or is corrupt"
        )
    return json.loads(bytes(archive["header"].tobytes()).decode("utf-8"))


def _load_weights(archive, path: str, config: GAlignConfig) -> List[np.ndarray]:
    """Read ``weight_i`` arrays, validating count against the config.

    A truncated/corrupt archive (or one whose stored config disagrees
    with its arrays) fails with a clear ``ValueError`` naming the file
    instead of a bare ``KeyError`` from ``np.load``.
    """
    stored = sorted(
        int(match.group(1))
        for name in archive.files
        if (match := _WEIGHT_KEY.match(name))
    )
    expected = list(range(config.num_layers))
    if stored != expected:
        raise ValueError(
            f"checkpoint {path!r} stores weight arrays {stored} but its "
            f"config declares num_layers={config.num_layers} (expected "
            f"{expected}); the file is truncated or corrupt"
        )
    return [archive[f"weight_{index}"] for index in expected]


def _config_from_header(header: Dict) -> GAlignConfig:
    config_fields = dict(header["config"])
    for key in _RETIRED_CONFIG_KEYS:
        config_fields.pop(key, None)
    if config_fields.get("layer_weights") is not None:
        config_fields["layer_weights"] = list(config_fields["layer_weights"])
    return GAlignConfig(**config_fields)


# ----------------------------------------------------------------------
# v1: model-only checkpoints
# ----------------------------------------------------------------------
def save_model(model: MultiOrderGCN, path: str) -> None:
    """Write weights + config to an ``.npz`` checkpoint (format v1).

    The config is stored as JSON inside the archive so a checkpoint is
    fully self-describing.  The write is atomic.
    """
    arrays = {
        f"weight_{index}": weight
        for index, weight in enumerate(model.state_dict())
    }
    arrays["header"] = _encode_header(
        {
            "format_version": _FORMAT_VERSION,
            "input_dim": model.input_dim,
            "config": asdict(model.config),
        }
    )
    _atomic_savez(path, arrays)


def load_model(path: str) -> Tuple[MultiOrderGCN, GAlignConfig]:
    """Load a checkpoint saved by :func:`save_model`.

    Returns the reconstructed model and its config.  Accepts both v1
    model checkpoints and v2 training checkpoints (training state is
    ignored); unknown format versions and archives whose stored weights
    disagree with their config raise ``ValueError`` naming the file.
    """
    with np.load(path) as archive:
        header = _read_header(archive, path)
        version = header.get("format_version")
        if version not in (_FORMAT_VERSION, _TRAINING_FORMAT_VERSION):
            raise ValueError(
                f"unsupported checkpoint version {version} in {path!r}"
            )
        config = _config_from_header(header)
        weights = _load_weights(archive, path, config)
    # Weight init here is immediately overwritten by the checkpoint.
    model = MultiOrderGCN(header["input_dim"], config, np.random.default_rng(0))
    model.load_state_dict(weights)
    return model, config


# ----------------------------------------------------------------------
# v2: resumable training checkpoints
# ----------------------------------------------------------------------
@dataclass
class TrainingCheckpoint:
    """Deserialized v2 training checkpoint.

    ``epoch`` is the index of the **last completed** epoch; a resumed run
    continues at ``epoch + 1``.  ``optimizer_state`` matches the
    :meth:`repro.autograd.Adam.state_dict` layout; ``rng_state`` is a
    ``numpy`` bit-generator state dict (or ``None`` when the saving
    trainer had no RNG to capture).
    """

    input_dim: int
    config: GAlignConfig
    weights: List[np.ndarray]
    optimizer_state: Dict
    epoch: int
    rng_state: Optional[Dict] = None
    log_history: Dict[str, List[float]] = field(default_factory=dict)

    def build_model(self) -> MultiOrderGCN:
        """Reconstruct the model at the checkpointed weights."""
        model = MultiOrderGCN(
            self.input_dim, self.config, np.random.default_rng(0)
        )
        model.load_state_dict(self.weights)
        return model


def save_training_checkpoint(
    path: str,
    model: MultiOrderGCN,
    optimizer,
    epoch: int,
    rng: Optional[np.random.Generator] = None,
    log=None,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """Write a resumable v2 checkpoint; returns the path written.

    ``optimizer`` must expose an Adam-style ``state_dict()`` (moment
    buffers under ``"m"``/``"v"``).  ``log`` may be a
    :class:`~repro.core.trainer.TrainingLog` whose loss trajectory is
    stored so a resumed run's log matches an uninterrupted one.
    """
    optimizer_state = optimizer.state_dict()
    if "m" not in optimizer_state or "v" not in optimizer_state:
        raise TypeError(
            "training checkpoints require an Adam-style optimizer state "
            f"with moment buffers, got keys {sorted(optimizer_state)}"
        )
    arrays = {
        f"weight_{index}": weight
        for index, weight in enumerate(model.state_dict())
    }
    for index, m in enumerate(optimizer_state["m"]):
        arrays[f"adam_m_{index}"] = m
    for index, v in enumerate(optimizer_state["v"]):
        arrays[f"adam_v_{index}"] = v
    header = {
        "format_version": _TRAINING_FORMAT_VERSION,
        "kind": "training",
        "input_dim": model.input_dim,
        "config": asdict(model.config),
        "epoch": int(epoch),
        "optimizer": {
            key: optimizer_state[key]
            for key in ("lr", "beta1", "beta2", "eps", "weight_decay",
                        "step_count")
        },
        "rng_state": None if rng is None else rng.bit_generator.state,
        "log": {
            "total": list(getattr(log, "total", [])),
            "consistency": list(getattr(log, "consistency", [])),
            "adaptivity": list(getattr(log, "adaptivity", [])),
        },
    }
    arrays["header"] = _encode_header(header)
    written = _atomic_savez(path, arrays)
    registry = registry if registry is not None else get_registry()
    registry.increment("resilience.checkpoints_saved")
    registry.emit(
        "resilience.checkpoint", {"path": written, "epoch": int(epoch)}
    )
    return written


def load_training_checkpoint(path: str) -> TrainingCheckpoint:
    """Load a v2 training checkpoint saved by :func:`save_training_checkpoint`.

    v1 model checkpoints are rejected with a message pointing at
    :func:`load_model` — they carry no optimizer/RNG state to resume from.
    A checkpoint written by the retired sampled trainer loads with a
    ``UserWarning``: a run resumed from it trains on a different Eq 7.
    """
    with np.load(path, allow_pickle=False) as archive:
        header = _read_header(archive, path)
        version = header.get("format_version")
        if version == _FORMAT_VERSION:
            raise ValueError(
                f"checkpoint {path!r} is a v1 model checkpoint with no "
                "training state; load it with load_model() or re-train "
                "with a --resume checkpoint path to get a v2 file"
            )
        if version != _TRAINING_FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version} in {path!r}"
            )
        if header["config"].get("trainer", "dense") != "dense":
            warnings.warn(
                f"checkpoint {path!r} was trained with the retired "
                f"trainer={header['config']['trainer']!r} (the sampled Eq 7 "
                "estimator); training resumed from it continues under the "
                "exact Eq 7 loss",
                UserWarning,
                stacklevel=2,
            )
        config = _config_from_header(header)
        weights = _load_weights(archive, path, config)
        moment_names = [
            name for name in archive.files
            if name.startswith("adam_m_") or name.startswith("adam_v_")
        ]
        if len(moment_names) != 2 * config.num_layers:
            raise ValueError(
                f"checkpoint {path!r} stores {len(moment_names)} optimizer "
                f"moment buffers, expected {2 * config.num_layers}; the "
                "file is truncated or corrupt"
            )
        optimizer_state = dict(header["optimizer"])
        optimizer_state["m"] = [
            archive[f"adam_m_{index}"] for index in range(config.num_layers)
        ]
        optimizer_state["v"] = [
            archive[f"adam_v_{index}"] for index in range(config.num_layers)
        ]
    return TrainingCheckpoint(
        input_dim=header["input_dim"],
        config=config,
        weights=weights,
        optimizer_state=optimizer_state,
        epoch=int(header["epoch"]),
        rng_state=header.get("rng_state"),
        log_history=header.get("log", {}),
    )
