"""Versioned, immutable alignment artifacts (``repro.artifact/v1``).

GAlign's entire output is a pair of multi-order embedding sets plus the
layer weights θ(l) (Eq 11-12); everything needed to answer "who does node
v align to?" is computable per-query from those arrays (§VI-C).  An
**AlignmentArtifact** freezes exactly that state on disk so a model can be
trained once offline and served for arbitrarily many queries:

* one directory per artifact,
* a ``manifest.json`` describing schema, shapes, dtypes, per-array
  content hashes, layer weights, the training config, dataset stats, and
  a short **fingerprint** that keys serving caches,
* one ``.npy`` file per embedding matrix.

Arrays are stored as individual ``.npy`` files — *not* a single ``.npz``
— because ``np.load(mmap_mode="r")`` silently ignores ``mmap_mode`` for
zipped archives; per-array files are the only stdlib-numpy layout that
actually memory-maps, which is what lets a server process keep many
artifacts "loaded" while paging in only the rows queries touch.

Loading validates the artifact through the :mod:`repro.resilience` error
taxonomy: schema/shape/index/non-finite problems raise
:class:`~repro.resilience.ArtifactValidationError` with a message naming
the path and the offending field, never a deep numpy failure.

Durability
----------
Exports are **torn-write-proof**: every file is written into a hidden
staging directory next to the destination, fsynced, stamped with a
``_COMMITTED`` marker, and the whole directory is atomically renamed
into place — a crash at any point leaves either the previous artifact or
no artifact, never a half-written one.  The manifest stores per-chunk
sha256 digests of every ``.npy`` file, and :func:`load_artifact` checks
them per its ``verify`` mode: ``"eager"`` verifies every byte before
returning, ``"lazy"`` verifies in a background thread whose failure
poisons subsequent queries, ``"off"`` trusts the bytes.  A flipped byte
or truncated file raises :class:`ArtifactValidationError` naming the
offending file and byte range instead of silently corrupting scores.

Schema v2 (ANN aux)
-------------------
``repro.artifact/v2`` extends v1 with the optional ANN serving tier:
IVF centroids, inverted-list offsets, the row-order permutation, int8
codes, and per-block scales land as additional fsynced ``.npy`` files
(``ann_*.npy``), first-class manifest arrays (mmap'd on load, covered
by chunkwise verification and the staged-atomic ``_COMMITTED`` export),
plus a ``manifest["ann"]`` params section.  A v1 reader rejects v2 by
schema string; this loader accepts both and validates the ANN aux
against the embedding shapes — a missing codes file, a scales/codes
shape mismatch, or a truncated inverted list raises
:class:`ArtifactValidationError` naming the offending array.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import MetricsRegistry, get_registry
from ..resilience import ArtifactValidationError

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_SCHEMA_V2",
    "MANIFEST_NAME",
    "COMMITTED_MARKER",
    "AlignmentArtifact",
    "ArtifactVerifier",
    "export_artifact",
    "load_artifact",
    "verify_artifact",
    "config_fingerprint",
]

#: Schema identifier embedded in (and required of) every manifest.
ARTIFACT_SCHEMA = "repro.artifact/v1"
#: v1 plus the optional ANN aux arrays and ``manifest["ann"]`` params.
ARTIFACT_SCHEMA_V2 = "repro.artifact/v2"
MANIFEST_NAME = "manifest.json"
#: Marker file written (and fsynced) last during export; its absence
#: from an artifact whose manifest declares it means a torn write.
COMMITTED_MARKER = "_COMMITTED"

#: Chunk size for per-chunk file digests (verification granularity).
_CHUNK_BYTES = 1 << 20

_SIDES = ("source", "target")

#: ANN aux arrays in a v2 artifact: state key → manifest array name
#: (and ``<name>.npy`` file).  codes/scales exist only when the tier was
#: built with ``quantize``.
_ANN_ARRAYS = (
    ("centroids", "ann_centroids"),
    ("offsets", "ann_offsets"),
    ("order", "ann_order"),
    ("codes", "ann_codes"),
    ("scales", "ann_scales"),
)


def _fail(message: str, registry: Optional[MetricsRegistry]) -> None:
    registry = registry if registry is not None else get_registry()
    registry.increment("resilience.artifact_validation_failures")
    registry.emit("resilience.artifact_validation_failure", {"error": message})
    raise ArtifactValidationError(message)


def _array_digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _file_digests(file_path: str) -> Tuple[str, List[str], int]:
    """Whole-file sha256, per-chunk sha256 list, and byte size."""
    whole = hashlib.sha256()
    chunks: List[str] = []
    size = 0
    with open(file_path, "rb") as handle:
        while True:
            block = handle.read(_CHUNK_BYTES)
            if not block:
                break
            whole.update(block)
            chunks.append(hashlib.sha256(block).hexdigest())
            size += len(block)
    return whole.hexdigest(), chunks, size


def _fsync_path(target: str) -> None:
    """fsync a file or directory by path (directory fds work on POSIX)."""
    fd = os.open(target, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def config_fingerprint(
    config_fields: Optional[Dict[str, Any]],
    layer_weights: Sequence[float],
    shapes: Dict[str, Sequence[int]],
    digests: Dict[str, str],
    schema: str = ARTIFACT_SCHEMA,
) -> str:
    """Short content fingerprint identifying an artifact for cache keys.

    Hashes the schema, config, layer weights, array shapes, *and* array
    content digests, so two artifacts trained with the same config on
    different data (or re-trained with a different seed) never collide
    in a serving cache — and a v2 re-export with an ANN tier gets a new
    fingerprint (its aux arrays join ``shapes``/``digests``).
    """
    payload = json.dumps(
        {
            "schema": schema,
            "config": config_fields,
            "layer_weights": [float(w) for w in layer_weights],
            "shapes": {k: list(v) for k, v in sorted(shapes.items())},
            "digests": dict(sorted(digests.items())),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _validate_embeddings(
    name: str,
    embeddings: Sequence[np.ndarray],
    registry: Optional[MetricsRegistry],
) -> List[np.ndarray]:
    if not embeddings:
        _fail(f"{name} embeddings are empty; need at least one layer", registry)
    arrays = [np.asarray(h) for h in embeddings]
    rows = arrays[0].shape[0] if arrays[0].ndim == 2 else -1
    for layer, array in enumerate(arrays):
        if array.ndim != 2:
            _fail(
                f"{name} layer {layer} embedding must be 2-D, got shape "
                f"{array.shape}",
                registry,
            )
        if array.shape[0] != rows:
            _fail(
                f"{name} layer {layer} embedding has {array.shape[0]} rows, "
                f"layer 0 has {rows}; every layer must embed the same nodes",
                registry,
            )
        if not np.isfinite(array).all():
            bad = int(np.count_nonzero(~np.isfinite(array)))
            _fail(
                f"{name} layer {layer} embedding contains {bad} non-finite "
                "values; refusing to export a poisoned artifact",
                registry,
            )
    return arrays


def export_artifact(
    path: str,
    source_embeddings: Sequence[np.ndarray],
    target_embeddings: Sequence[np.ndarray],
    layer_weights: Sequence[float],
    config=None,
    pair_name: str = "pair",
    ann_clusters: Optional[int] = None,
    ann_quantize: bool = True,
    ann_seed: int = 0,
    ann_iters: int = 8,
    ann_quant_rows: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """Write an artifact directory; returns its path.

    ``config`` may be a :class:`~repro.core.GAlignConfig` (stored as a
    dict for provenance) or ``None``.

    ``ann_clusters`` (>= 1) additionally trains the deterministic IVF +
    int8 ANN tier over the target embeddings and writes it as
    ``repro.artifact/v2``: the ``ann_*`` aux arrays become first-class
    manifest arrays (same fsync, chunk hashing, and staging as the
    embeddings) plus a ``manifest["ann"]`` params section.  Without it
    the export stays bit-for-bit ``repro.artifact/v1``.

    The write is crash-safe: everything lands in a hidden staging
    directory beside ``path``, every file (arrays, manifest, the
    ``_COMMITTED`` marker) is fsynced, and the staging directory is
    atomically renamed over ``path`` — a kill at any instant leaves
    either the previous artifact or nothing, never torn bytes.  An
    existing artifact at ``path`` is replaced atomically.
    """
    registry = registry if registry is not None else get_registry()
    source = _validate_embeddings("source", source_embeddings, registry)
    target = _validate_embeddings("target", target_embeddings, registry)
    if len(source) != len(target):
        _fail(
            f"layer count mismatch: source has {len(source)} layers, "
            f"target has {len(target)}",
            registry,
        )
    weights = [float(w) for w in layer_weights]
    if len(weights) != len(source):
        _fail(
            f"layer_weights has {len(weights)} entries for {len(source)} "
            "embedding layers",
            registry,
        )

    if config is not None and not isinstance(config, dict):
        from dataclasses import asdict

        config = asdict(config)

    path = os.path.normpath(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    stage = os.path.join(
        parent, f".{os.path.basename(path)}.staging.{os.getpid()}"
    )
    if os.path.lexists(stage):
        shutil.rmtree(stage)
    os.makedirs(stage)

    arrays: Dict[str, np.ndarray] = {}
    for side, layers in (("source", source), ("target", target)):
        for index, array in enumerate(layers):
            arrays[f"{side}_layer_{index}"] = array

    schema = ARTIFACT_SCHEMA
    ann_section: Optional[Dict[str, Any]] = None
    if ann_clusters is not None:
        from .ann import DEFAULT_QUANT_ROWS, build_ann_state

        if isinstance(ann_clusters, bool) or int(ann_clusters) < 1:
            _fail(
                f"ann_clusters must be a positive int, got {ann_clusters!r}",
                registry,
            )
        ann_state = build_ann_state(
            target,
            n_clusters=int(ann_clusters),
            seed=int(ann_seed),
            iters=int(ann_iters),
            quantize=bool(ann_quantize),
            quant_rows=(
                DEFAULT_QUANT_ROWS if ann_quant_rows is None
                else int(ann_quant_rows)
            ),
        )
        for state_key, array_name in _ANN_ARRAYS:
            if ann_state[state_key] is not None:
                arrays[array_name] = np.asarray(ann_state[state_key])
        schema = ARTIFACT_SCHEMA_V2
        ann_section = dict(ann_state["params"])

    try:
        entries: Dict[str, Dict[str, Any]] = {}
        digests: Dict[str, str] = {}
        shapes: Dict[str, Sequence[int]] = {}
        for name, array in arrays.items():
            file_name = f"{name}.npy"
            file_path = os.path.join(stage, file_name)
            np.save(file_path, array)
            _fsync_path(file_path)
            file_sha, chunk_shas, file_bytes = _file_digests(file_path)
            digests[name] = _array_digest(array)
            shapes[name] = array.shape
            entries[name] = {
                "file": file_name,
                "shape": list(array.shape),
                "dtype": str(array.dtype),
                "sha256": digests[name],
                "file_sha256": file_sha,
                "file_bytes": file_bytes,
                "chunk_bytes": _CHUNK_BYTES,
                "sha256_chunks": chunk_shas,
            }

        fingerprint = config_fingerprint(
            config, weights, shapes, digests, schema=schema
        )
        manifest = {
            "schema": schema,
            "fingerprint": fingerprint,
            "layer_weights": weights,
            "num_layers": len(source),
            "arrays": entries,
            "config": config,
            "committed_marker": True,
            "stats": {
                "pair": pair_name,
                "n_source": int(source[0].shape[0]),
                "n_target": int(target[0].shape[0]),
                "dims": [int(h.shape[1]) for h in source],
            },
        }
        if ann_section is not None:
            manifest["ann"] = ann_section
        manifest_path = os.path.join(stage, MANIFEST_NAME)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        marker_path = os.path.join(stage, COMMITTED_MARKER)
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write(fingerprint + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_path(stage)

        # Atomic placement.  A pre-existing artifact is renamed aside
        # first (restored if the swap-in fails), so `path` only ever
        # points at a complete artifact.
        aside = None
        if os.path.lexists(path):
            aside = os.path.join(
                parent, f".{os.path.basename(path)}.replaced.{os.getpid()}"
            )
            if os.path.lexists(aside):
                shutil.rmtree(aside)
            os.rename(path, aside)
        try:
            os.rename(stage, path)
        except OSError:
            if aside is not None:
                os.rename(aside, path)
            raise
        if aside is not None:
            shutil.rmtree(aside, ignore_errors=True)
        _fsync_path(parent)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    registry.increment("serving.artifact.exports")
    registry.emit(
        "serving.artifact.exported",
        {"path": path, "fingerprint": fingerprint},
    )
    return path


def _verify_entry_file(
    path: str,
    name: str,
    entry: Dict[str, Any],
    registry: Optional[MetricsRegistry],
) -> None:
    """Check one array file's bytes against its manifest digests.

    New-style manifests carry per-chunk digests, so a mismatch names the
    file *and the byte range* of the first corrupt chunk.  Pre-durability
    manifests fall back to the whole-array content hash (no offset).
    """
    file_path = os.path.join(path, entry.get("file", f"{name}.npy"))
    chunks = entry.get("sha256_chunks")
    if chunks is None:
        declared = entry.get("sha256")
        if declared is None:
            return
        actual = _array_digest(
            np.asarray(np.load(file_path, mmap_mode="r"))
        )
        if actual != declared:
            _fail(
                f"artifact {path!r}: array {name!r} content hash {actual} "
                f"does not match the manifest ({declared}); the artifact "
                "was modified after export",
                registry,
            )
        return
    chunk_bytes = int(entry.get("chunk_bytes", _CHUNK_BYTES))
    declared_bytes = entry.get("file_bytes")
    size = os.path.getsize(file_path)
    if declared_bytes is not None and size != int(declared_bytes):
        _fail(
            f"artifact {path!r}: file {file_path!r} is {size} bytes on "
            f"disk but the manifest declares {declared_bytes}; the file "
            "was truncated or replaced after export",
            registry,
        )
    with open(file_path, "rb") as handle:
        for index, declared in enumerate(chunks):
            block = handle.read(chunk_bytes)
            actual = hashlib.sha256(block).hexdigest()
            if actual != declared:
                offset = index * chunk_bytes
                _fail(
                    f"artifact {path!r}: file {file_path!r} content hash "
                    f"mismatch in bytes [{offset}, {offset + len(block)}) "
                    f"(chunk {index}); the artifact was corrupted after "
                    "export",
                    registry,
                )


class ArtifactVerifier:
    """Background (lazy) content verification for a loaded artifact.

    Started by ``load_artifact(verify="lazy")``: a daemon thread hashes
    every array file against the manifest while queries proceed.  The
    serving engine calls :meth:`raise_if_failed` (one attribute read on
    the hot path) per batch, so a flipped byte turns into a typed
    :class:`~repro.resilience.ArtifactValidationError` on the next query
    after detection — never a silently wrong score.  :meth:`ensure`
    blocks until verification finished (tests and ``repro
    verify-artifact`` use it).
    """

    def __init__(
        self,
        path: str,
        entries: Dict[str, Dict[str, Any]],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = path
        self.registry = registry
        self._entries = dict(entries)
        self._error: Optional[ArtifactValidationError] = None
        self._done = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-artifact-verify", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        registry = (
            self.registry if self.registry is not None else get_registry()
        )
        try:
            for name, entry in sorted(self._entries.items()):
                _verify_entry_file(self.path, name, entry, self.registry)
            registry.increment("serving.artifact.verified")
        except ArtifactValidationError as error:
            self._error = error
        except Exception as error:
            # A crashed verification (file deleted mid-verify, I/O
            # error) must read as *failed*, never as verified: without
            # this, the thread would die, ``_done`` would set, and
            # health()/ensure()/raise_if_failed() would report the
            # artifact as clean without a single byte checked.
            wrapped = ArtifactValidationError(
                f"artifact {self.path!r}: background verification "
                f"crashed: {type(error).__name__}: {error}"
            )
            wrapped.__cause__ = error
            registry.increment("resilience.artifact_validation_failures")
            registry.emit(
                "resilience.artifact_validation_failure",
                {"error": str(wrapped)},
            )
            self._error = wrapped
        finally:
            self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def error(self) -> Optional[ArtifactValidationError]:
        return self._error

    def raise_if_failed(self) -> None:
        """Raise the detected corruption error, if any (non-blocking)."""
        if self._error is not None:
            raise self._error

    def ensure(self, timeout: Optional[float] = None) -> None:
        """Block until verification finished; raise if it found damage."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"artifact verification of {self.path!r} did not finish "
                f"within {timeout}s"
            )
        self.raise_if_failed()


@dataclass
class AlignmentArtifact:
    """A loaded (usually memory-mapped) ``repro.artifact/v{1,2}`` directory."""

    path: str
    manifest: Dict[str, Any]
    source_embeddings: List[np.ndarray]
    target_embeddings: List[np.ndarray]
    layer_weights: List[float] = field(default_factory=list)
    #: Background verifier when loaded with ``verify="lazy"`` (else None).
    verifier: Optional[ArtifactVerifier] = None
    #: v2 ANN aux arrays keyed ``centroids``/``offsets``/``order`` (and
    #: ``codes``/``scales`` when quantized), mmap'd like the embeddings;
    #: ``None`` for a v1 artifact.
    ann: Optional[Dict[str, np.ndarray]] = None
    #: ``manifest["ann"]`` params (n_clusters/seed/iters/quantize/
    #: quant_rows); ``None`` for a v1 artifact.
    ann_params: Optional[Dict[str, Any]] = None

    @property
    def fingerprint(self) -> str:
        return self.manifest["fingerprint"]

    @property
    def num_layers(self) -> int:
        return len(self.source_embeddings)

    @property
    def n_source(self) -> int:
        return int(self.source_embeddings[0].shape[0])

    @property
    def n_target(self) -> int:
        return int(self.target_embeddings[0].shape[0])

    @property
    def stats(self) -> Dict[str, Any]:
        return dict(self.manifest.get("stats", {}))

    def __repr__(self) -> str:
        return (
            f"AlignmentArtifact(path={self.path!r}, "
            f"fingerprint={self.fingerprint!r}, layers={self.num_layers}, "
            f"n_source={self.n_source}, n_target={self.n_target})"
        )


def _load_manifest(path: str, registry: Optional[MetricsRegistry]) -> Dict:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isdir(path):
        _fail(
            f"artifact path {path!r} is not a directory; artifacts are "
            "exported as a directory of manifest.json + .npy files",
            registry,
        )
    if not os.path.exists(manifest_path):
        _fail(
            f"artifact {path!r} has no {MANIFEST_NAME}; the export was "
            "interrupted or the path is wrong",
            registry,
        )
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as error:
        _fail(
            f"artifact manifest {manifest_path!r} is not valid JSON: {error}",
            registry,
        )
    if manifest.get("schema") not in (ARTIFACT_SCHEMA, ARTIFACT_SCHEMA_V2):
        _fail(
            f"artifact {path!r} declares schema "
            f"{manifest.get('schema')!r}, expected {ARTIFACT_SCHEMA!r} or "
            f"{ARTIFACT_SCHEMA_V2!r}",
            registry,
        )
    if manifest.get("schema") == ARTIFACT_SCHEMA_V2 and not isinstance(
        manifest.get("ann"), dict
    ):
        _fail(
            f"artifact {path!r} declares schema {ARTIFACT_SCHEMA_V2!r} but "
            "has no 'ann' params section; the manifest was damaged or "
            "hand-edited — re-export the artifact",
            registry,
        )
    for key in ("fingerprint", "layer_weights", "num_layers", "arrays"):
        if key not in manifest:
            _fail(f"artifact {path!r} manifest is missing {key!r}", registry)
    if manifest.get("committed_marker") and not os.path.exists(
        os.path.join(path, COMMITTED_MARKER)
    ):
        _fail(
            f"artifact {path!r} is missing its {COMMITTED_MARKER} marker; "
            "the export was torn mid-write or the marker was deleted — "
            "re-export the artifact",
            registry,
        )
    return manifest


def _load_array(
    path: str,
    name: str,
    entry: Dict[str, Any],
    mmap: bool,
    registry: Optional[MetricsRegistry],
) -> np.ndarray:
    file_path = os.path.join(path, entry.get("file", f"{name}.npy"))
    if not os.path.exists(file_path):
        _fail(
            f"artifact {path!r}: array {name!r} file {file_path!r} is "
            "missing; the artifact is incomplete",
            registry,
        )
    try:
        array = np.load(file_path, mmap_mode="r" if mmap else None)
    except (ValueError, OSError) as error:
        _fail(
            f"artifact {path!r}: array {name!r} failed to load from "
            f"{file_path!r}: {error}",
            registry,
        )
    expected_shape = tuple(entry.get("shape", ()))
    if tuple(array.shape) != expected_shape:
        _fail(
            f"artifact {path!r}: array {name!r} has shape "
            f"{tuple(array.shape)} on disk but the manifest declares "
            f"{expected_shape}; the file was truncated or swapped",
            registry,
        )
    return array


def _load_ann_section(
    path: str,
    manifest: Dict[str, Any],
    entries: Dict[str, Dict[str, Any]],
    target: Sequence[np.ndarray],
    mmap: bool,
    registry: Optional[MetricsRegistry],
) -> Tuple[Dict[str, Optional[np.ndarray]], Dict[str, Any]]:
    """Load + validate a v2 manifest's ANN aux against the embeddings.

    Every inconsistency between the manifest and the aux arrays — a
    missing codes file, a scales/codes shape that disagrees with the
    target matrix, a truncated inverted list — raises
    :class:`~repro.resilience.ArtifactValidationError` naming the
    offending array, before the index ever scores with it.
    """
    params = dict(manifest["ann"])
    n_clusters = params.get("n_clusters")
    if isinstance(n_clusters, bool) or not isinstance(n_clusters, int) \
            or n_clusters < 1:
        _fail(
            f"artifact {path!r}: ann.n_clusters must be a positive int, "
            f"got {n_clusters!r}",
            registry,
        )
    quantize = bool(params.get("quantize", False))
    quant_rows = params.get("quant_rows")
    if isinstance(quant_rows, bool) or not isinstance(quant_rows, int) \
            or quant_rows < 1:
        _fail(
            f"artifact {path!r}: ann.quant_rows must be a positive int, "
            f"got {quant_rows!r}",
            registry,
        )
    n_target = int(target[0].shape[0])
    dim = sum(int(layer.shape[1]) for layer in target)

    required = ["ann_centroids", "ann_offsets", "ann_order"]
    if quantize:
        required += ["ann_codes", "ann_scales"]
    loaded: Dict[str, np.ndarray] = {}
    for name in required:
        if name not in entries:
            _fail(
                f"artifact {path!r}: schema {ARTIFACT_SCHEMA_V2!r} with "
                f"ann.quantize={quantize} requires array {name!r}, but the "
                "manifest has no entry for it",
                registry,
            )
        loaded[name] = _load_array(path, name, entries[name], mmap, registry)

    centroids = loaded["ann_centroids"]
    if centroids.ndim != 2 or centroids.shape != (n_clusters, dim):
        _fail(
            f"artifact {path!r}: array 'ann_centroids' has shape "
            f"{tuple(centroids.shape)}, expected ({n_clusters}, {dim}) for "
            "this embedding set",
            registry,
        )
    offsets = np.asarray(loaded["ann_offsets"])
    if (
        offsets.shape != (n_clusters + 1,)
        or not np.issubdtype(offsets.dtype, np.integer)
    ):
        _fail(
            f"artifact {path!r}: array 'ann_offsets' has shape "
            f"{tuple(offsets.shape)} dtype {offsets.dtype}, expected "
            f"integer ({n_clusters + 1},)",
            registry,
        )
    if (
        int(offsets[0]) != 0
        or np.any(np.diff(offsets) < 0)
        or int(offsets[-1]) != n_target
    ):
        _fail(
            f"artifact {path!r}: array 'ann_offsets' is not a monotone "
            f"partition of [0, {n_target}) — the inverted lists are "
            "truncated or scrambled",
            registry,
        )
    order = np.asarray(loaded["ann_order"])
    if order.shape != (n_target,) or not np.array_equal(
        np.sort(order), np.arange(n_target, dtype=order.dtype)
    ):
        _fail(
            f"artifact {path!r}: array 'ann_order' must be a permutation "
            f"of [0, {n_target})",
            registry,
        )
    if quantize:
        codes = loaded["ann_codes"]
        if codes.dtype != np.int8 or codes.shape != (n_target, dim):
            _fail(
                f"artifact {path!r}: array 'ann_codes' has shape "
                f"{tuple(codes.shape)} dtype {codes.dtype}, expected int8 "
                f"({n_target}, {dim})",
                registry,
            )
        scales = np.asarray(loaded["ann_scales"])
        expected_blocks = -(-n_target // quant_rows)
        if scales.shape != (expected_blocks,):
            _fail(
                f"artifact {path!r}: array 'ann_scales' has shape "
                f"{tuple(scales.shape)}, expected ({expected_blocks},) for "
                f"quant_rows={quant_rows} over {n_target} rows",
                registry,
            )
    ann: Dict[str, Optional[np.ndarray]] = {
        state_key: loaded.get(array_name)
        for state_key, array_name in _ANN_ARRAYS
    }
    return ann, params


def load_artifact(
    path: str,
    mmap: bool = True,
    check_finite: bool = True,
    verify: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> AlignmentArtifact:
    """Load an artifact directory back, memory-mapped by default.

    Validation order: manifest schema + ``_COMMITTED`` marker → declared
    array inventory (every ``{source,target}_layer_i`` for ``i <
    num_layers`` must exist) → per-array file/shape checks →
    layer-weight count → optional full non-finite scan
    (``check_finite``) → content verification per ``verify``:

    * ``"eager"`` — hash every file chunk against the manifest before
      returning; corruption raises here, naming file and byte range.
    * ``"lazy"`` (the default, also when ``None``) — start an
      :class:`ArtifactVerifier` thread; the returned artifact's
      ``verifier`` poisons queries once damage is found.  Steady-state
      query cost is one attribute read.
    * ``"off"`` — trust the bytes.

    Every failure raises :class:`~repro.resilience.ArtifactValidationError`
    naming the path and field.
    """
    registry = registry if registry is not None else get_registry()
    if verify is None:
        verify = "lazy"
    if verify not in ("eager", "lazy", "off"):
        raise ValueError(
            f"verify must be 'eager', 'lazy', or 'off', got {verify!r}"
        )
    manifest = _load_manifest(path, registry)
    num_layers = manifest["num_layers"]
    if not isinstance(num_layers, int) or num_layers < 1:
        _fail(
            f"artifact {path!r}: num_layers must be a positive int, got "
            f"{num_layers!r}",
            registry,
        )
    entries = manifest["arrays"]
    sides: Dict[str, List[np.ndarray]] = {side: [] for side in _SIDES}
    for side in _SIDES:
        for index in range(num_layers):
            name = f"{side}_layer_{index}"
            if name not in entries:
                _fail(
                    f"artifact {path!r}: manifest declares {num_layers} "
                    f"layers but has no entry for array {name!r}",
                    registry,
                )
            sides[side].append(
                _load_array(path, name, entries[name], mmap, registry)
            )
    for side in _SIDES:
        rows = sides[side][0].shape[0]
        for index, array in enumerate(sides[side]):
            if array.ndim != 2 or array.shape[0] != rows:
                _fail(
                    f"artifact {path!r}: {side} layer {index} has shape "
                    f"{array.shape}, expected 2-D with {rows} rows like "
                    "layer 0",
                    registry,
                )
    weights = [float(w) for w in manifest["layer_weights"]]
    if len(weights) != num_layers:
        _fail(
            f"artifact {path!r}: {len(weights)} layer_weights for "
            f"{num_layers} layers",
            registry,
        )
    if check_finite:
        for side in _SIDES:
            for index, array in enumerate(sides[side]):
                if not np.isfinite(array).all():
                    bad = int(np.count_nonzero(~np.isfinite(array)))
                    _fail(
                        f"artifact {path!r}: {side} layer {index} contains "
                        f"{bad} non-finite values; the artifact is corrupt "
                        "or was exported from a diverged model",
                        registry,
                    )
    ann: Optional[Dict[str, Optional[np.ndarray]]] = None
    ann_params: Optional[Dict[str, Any]] = None
    if manifest.get("schema") == ARTIFACT_SCHEMA_V2:
        ann, ann_params = _load_ann_section(
            path, manifest, entries, sides["target"], mmap, registry
        )
    declared_names = [
        f"{side}_layer_{index}"
        for side in _SIDES
        for index in range(num_layers)
    ]
    if ann is not None:
        declared_names.extend(
            array_name
            for state_key, array_name in _ANN_ARRAYS
            if ann.get(state_key) is not None
        )
    verifier: Optional[ArtifactVerifier] = None
    if verify == "eager":
        for name in declared_names:
            _verify_entry_file(path, name, entries[name], registry)
        registry.increment("serving.artifact.verified")
    elif verify == "lazy":
        verifier = ArtifactVerifier(
            path,
            {name: entries[name] for name in declared_names},
            registry=registry,
        )
    registry.increment("serving.artifact.loads")
    return AlignmentArtifact(
        path=path,
        manifest=manifest,
        source_embeddings=sides["source"],
        target_embeddings=sides["target"],
        layer_weights=weights,
        verifier=verifier,
        ann=ann,
        ann_params=ann_params,
    )


def verify_artifact(
    path: str, registry: Optional[MetricsRegistry] = None
) -> Dict[str, Any]:
    """Eagerly verify an artifact end to end; returns a report dict.

    Runs the full load-time validation plus chunkwise content hashing
    (``verify="eager"``) and a non-finite scan.  Raises
    :class:`~repro.resilience.ArtifactValidationError` naming the
    offending file (and byte range, for content damage) on the first
    problem; the CLI surface is ``repro verify-artifact``.
    """
    registry = registry if registry is not None else get_registry()
    artifact = load_artifact(
        path, mmap=True, check_finite=True, verify="eager",
        registry=registry,
    )
    entries = artifact.manifest["arrays"]
    report_arrays = {}
    total_bytes = 0
    for name in sorted(entries):
        entry = entries[name]
        file_path = os.path.join(path, entry.get("file", f"{name}.npy"))
        file_bytes = os.path.getsize(file_path)
        total_bytes += file_bytes
        report_arrays[name] = {
            "file": entry.get("file", f"{name}.npy"),
            "bytes": file_bytes,
            "chunks": len(entry.get("sha256_chunks", []) or []),
            "status": "ok",
        }
    registry.increment("serving.artifact.verifications")
    return {
        "path": path,
        "fingerprint": artifact.fingerprint,
        "num_layers": artifact.num_layers,
        "n_source": artifact.n_source,
        "n_target": artifact.n_target,
        "committed": os.path.exists(os.path.join(path, COMMITTED_MARKER)),
        "bytes": total_bytes,
        "arrays": report_arrays,
        "status": "ok",
    }
