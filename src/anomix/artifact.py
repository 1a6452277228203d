"""Model persistence and run manifests.

Models are stored as a versioned, self-describing JSON container. Each
layer's weights and bias are one base64 string of the array's
little-endian float64 bytes (`"<f8"`) in row-major order, shaped by
`layer_shapes` from the architecture block; the min-max bounds are
readable JSON numbers, Python's shortest round-trip repr. So a save/load
cycle reproduces scores bit for bit. The format version is
checked before any weight is interpreted, and the same rules run in both
directions: `save_model` writes only what `load_model` accepts. Every model
holds its min-max bounds and the one LeakyReLU slope. Models and
manifests go through `data.atomic_writer`, the one writer for every file
anomix produces, so an interrupted write leaves the previous file intact.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import NormState, write_json
from .errors import ContractViolationError, CorruptArtifactError
from .scorer import LAYER_NAMES, DenseLayer, ScorerParams, hidden_sizes, layer_shapes

FORMAT_NAME = "anomix-model"
FORMAT_VERSION = 2


@dataclass
class ModelArtifact:
    params: ScorerParams
    norm_state: NormState
    train_config: dict
    seed: int


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorruptArtifactError(message)


def save_model(artifact: ModelArtifact, path) -> None:
    """Write `json.dumps(payload, indent=1, allow_nan=False)` of the model's payload.

    Built from the live arrays, it must pass `load_model`'s rules before any file
    is opened.
    """
    params = artifact.params
    payload = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "architecture": {"d_in": params.d_in, "rep_dim": params.rep_dim, "h1": params.h1,
                         "h2": params.h2, "slope": params.slope},
        "layers": {name: {"weights": _base64(layer.weights), "bias": _base64(layer.bias)}
                   for name, layer in params.named_layers()},
        "normalization": None if artifact.norm_state is None else {
            "min": artifact.norm_state.mins.tolist(), "max": artifact.norm_state.maxs.tolist()},
        "train_config": artifact.train_config,
        "seed": artifact.seed,
    }
    _artifact_from_payload(payload, path)
    write_json(path, payload)


def _base64(array: np.ndarray) -> str:
    """`array`'s little-endian float64 bytes, row-major, as base64 text."""
    return base64.b64encode(array.astype("<f8", copy=False).tobytes()).decode("ascii")


def _layer_array(value, shape: tuple, where: str) -> np.ndarray:
    """The float64 array of `shape` held by the base64 text `value`; `where` names a fault."""
    _require(isinstance(value, str), f"{where} is {type(value).__name__}, not a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise CorruptArtifactError(f"{where} is not valid base64 ({exc})") from exc
    size = 8 * math.prod(shape)
    _require(len(raw) == size, f"{where} holds {len(raw)} bytes, not the {size} of shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token!r}")


def load_model(path) -> ModelArtifact:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except OSError as exc:
        raise CorruptArtifactError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, a NaN token, or nested past the recursion limit: no anomix writer made it.
        raise CorruptArtifactError(f"{path}: not valid JSON ({exc})") from exc
    return _artifact_from_payload(payload, path)


def _artifact_from_payload(payload, path) -> ModelArtifact:
    """The artifact `payload` describes, once it meets every rule of a model file at `path`."""
    _require(isinstance(payload, dict), f"{path}: not a model container")
    _require(payload.get("format") == FORMAT_NAME, f"{path}: not an {FORMAT_NAME} file")
    version = payload.get("format_version")
    _require(type(version) is int and version == FORMAT_VERSION,
             f"{path}: format version {version!r} unsupported (expected {FORMAT_VERSION})")

    arch = payload.get("architecture")
    _require(isinstance(arch, dict), f"{path}: missing architecture block")
    for key in ("d_in", "rep_dim", "h1", "h2"):
        _require(type(arch.get(key)) is int and arch[key] > 0,
                 f"{path}: architecture {key!r} is {arch.get(key)!r}, not a positive integer")
    d_in, rep_dim, h1, h2 = arch["d_in"], arch["rep_dim"], arch["h1"], arch["h2"]
    slope = arch.get("slope")
    _require(type(slope) is float and slope == ScorerParams.slope,
             f"{path}: architecture 'slope' is {slope!r}, not {ScorerParams.slope!r}")
    _require(rep_dim > 1, f"{path}: architecture 'rep_dim' is 1, which leaves no scoring unit")
    _require((h1, h2) == hidden_sizes(d_in, rep_dim), f"{path}: architecture violates the sizing rule")

    stored = payload.get("layers")
    _require(isinstance(stored, dict), f"{path}: missing layers block")
    built = []
    for name, shape in zip(LAYER_NAMES, layer_shapes(d_in, rep_dim)):
        block = stored.get(name)
        _require(isinstance(block, dict), f"{path}: missing layer {name!r}")
        weights = _layer_array(block.get("weights"), shape, f"{path}: layer {name!r} weights")
        bias = _layer_array(block.get("bias"), shape[:1], f"{path}: layer {name!r} bias")
        _require(bool(np.isfinite(weights).all() and np.isfinite(bias).all()),
                 f"{path}: layer {name!r} holds non-finite values")
        built.append(DenseLayer(weights, bias))
    params = ScorerParams(*built)

    norm = payload.get("normalization")
    _require(isinstance(norm, dict), f"{path}: missing normalization block")
    try:
        norm_state = NormState(norm.get("min"), norm.get("max"))
    except ContractViolationError as exc:
        raise CorruptArtifactError(f"{path}: {exc}") from exc
    _require(norm_state.mins.shape == (d_in,), f"{path}: normalization bounds mis-sized")

    for key in ("train_config", "seed"):
        _require(key in payload, f"{path}: missing {key}")
    train_config = payload["train_config"]
    _require(isinstance(train_config, dict), f"{path}: train_config is not an object")
    try:
        # A parsed file's config comes back equal unless a number read as inf (1e999).
        echo = json.loads(json.dumps(train_config, allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise CorruptArtifactError(f"{path}: train_config does not encode as JSON ({exc})") from exc
    _require(echo == train_config, f"{path}: train_config does not load back as saved "
                                   "(every key must be a string, every array a list)")
    seed = payload["seed"]
    _require(type(seed) is int, f"{path}: seed {seed!r} is not an integer")
    return ModelArtifact(
        params=params,
        norm_state=norm_state,
        train_config=train_config,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_fingerprint(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, *, command: str, config: dict, dataset_fingerprint: str | None,
                   seed: int, metrics: dict, wall_clock_s: float, outputs: dict) -> None:
    """One manifest per command run; enough to reproduce it (hash + seed).

    `outputs` maps each output's name to its path; `output_sha256` maps the
    same names to the SHA-256 of each file as written, so a directory whose
    files no longer match its manifest can be told apart.
    """
    record = {
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "dataset_fingerprint": dataset_fingerprint,
        "seed": seed,
        "metrics": metrics,
        "wall_clock_s": wall_clock_s,
        "outputs": outputs,
        "output_sha256": {name: file_fingerprint(path) for name, path in outputs.items()},
    }
    write_json(path, record)
