"""Model persistence and run manifests.

Models are stored as a versioned, self-describing JSON container with
float64 values written through Python's shortest round-trip repr, so a
save/load cycle reproduces scores bit for bit. The format version is
checked before any weight is interpreted, and non-finite values are
rejected both on save and on load. Models and manifests go through
`data.atomic_writer`, the one writer for every file anomix produces, so an
interrupted write leaves the previous file intact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import NormState, write_json
from .errors import CorruptArtifactError
from .nn import DenseLayer
from .scorer import LAYER_NAMES, ScorerParams, hidden_sizes

FORMAT_NAME = "anomix-model"
FORMAT_VERSION = 1


@dataclass
class ModelArtifact:
    params: ScorerParams
    norm_state: NormState | None
    train_config: dict
    seed: int


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorruptArtifactError(message)


def save_model(artifact: ModelArtifact, path) -> None:
    params = artifact.params
    layers = {}
    for name, layer in params.named_layers():
        if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()):
            raise CorruptArtifactError(f"refusing to save non-finite values in {name}")
        layers[name] = {
            "weights": layer.weights.tolist(),
            "bias": layer.bias.tolist(),
        }
    payload = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "architecture": {
            "d_in": params.d_in,
            "rep_dim": params.rep_dim,
            "h1": params.h1,
            "h2": params.h2,
            "slope": params.slope,
        },
        "layers": layers,
        "normalization": None if artifact.norm_state is None else {
            "min": artifact.norm_state.mins.tolist(),
            "max": artifact.norm_state.maxs.tolist(),
        },
        "train_config": artifact.train_config,
        "seed": artifact.seed,
    }
    write_json(path, payload, indent=1, allow_nan=False)


def _reject_constant(token: str):
    raise CorruptArtifactError(f"non-finite value {token!r} in model file")


def load_model(path) -> ModelArtifact:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except OSError as exc:
        raise CorruptArtifactError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorruptArtifactError(f"{path}: not valid JSON ({exc})") from exc
    _require(isinstance(payload, dict), f"{path}: not a model container")
    _require(payload.get("format") == FORMAT_NAME, f"{path}: not an {FORMAT_NAME} file")
    version = payload.get("format_version")
    _require(version == FORMAT_VERSION,
             f"{path}: format version {version!r} unsupported (expected {FORMAT_VERSION})")

    arch = payload.get("architecture")
    _require(isinstance(arch, dict), f"{path}: missing architecture block")
    for key in ("d_in", "rep_dim", "h1", "h2"):
        _require(type(arch.get(key)) is int and arch[key] > 0,
                 f"{path}: architecture {key!r} is {arch.get(key)!r}, not a positive integer")
    d_in, rep_dim, h1, h2 = arch["d_in"], arch["rep_dim"], arch["h1"], arch["h2"]
    slope = arch.get("slope")
    _require(type(slope) is float and 0.0 < slope < 1.0,
             f"{path}: architecture 'slope' is {slope!r}, not a number in (0, 1)")
    _require(rep_dim > 1, f"{path}: architecture 'rep_dim' is 1, which leaves no scoring unit")
    _require((h1, h2) == hidden_sizes(d_in, rep_dim), f"{path}: architecture violates the sizing rule")

    expected = {
        "rep_hidden": (h1, d_in),
        "rep_out": (rep_dim, h1),
        "score_hidden": (h2, rep_dim),
        "score_out": (1, h2),
    }
    stored = payload.get("layers")
    _require(isinstance(stored, dict), f"{path}: missing layers block")
    built = {}
    for name in LAYER_NAMES:
        block = stored.get(name)
        _require(isinstance(block, dict), f"{path}: missing layer {name!r}")
        weights = np.asarray(block.get("weights"), dtype=np.float64)
        bias = np.asarray(block.get("bias"), dtype=np.float64)
        _require(weights.shape == expected[name], f"{path}: layer {name!r} has shape {weights.shape}")
        _require(bias.shape == (expected[name][0],), f"{path}: layer {name!r} bias mis-sized")
        _require(bool(np.isfinite(weights).all() and np.isfinite(bias).all()),
                 f"{path}: layer {name!r} holds non-finite values")
        built[name] = DenseLayer(weights, bias)
    params = ScorerParams(
        rep_hidden=built["rep_hidden"], rep_out=built["rep_out"],
        score_hidden=built["score_hidden"], score_out=built["score_out"],
        d_in=d_in, rep_dim=rep_dim, h1=h1, h2=h2, slope=slope,
    )

    norm = payload.get("normalization")
    norm_state = None
    if norm is not None:
        _require(isinstance(norm, dict), f"{path}: malformed normalization block")
        mins = np.asarray(norm.get("min"), dtype=np.float64)
        maxs = np.asarray(norm.get("max"), dtype=np.float64)
        _require(mins.shape == (d_in,) and maxs.shape == (d_in,),
                 f"{path}: normalization bounds mis-sized")
        norm_state = NormState(mins, maxs)

    train_config = payload.get("train_config", {})
    _require(isinstance(train_config, dict), f"{path}: train_config is not an object")
    seed = payload.get("seed", 0)
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
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_fingerprint(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, *, command: str, config: dict, dataset_fingerprint: str | None,
                   seed: int, metrics: dict, wall_clock_s: float, outputs: dict) -> None:
    """One manifest per command run; enough to reproduce it (hash + seed)."""
    record = {
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "dataset_fingerprint": dataset_fingerprint,
        "seed": seed,
        "metrics": metrics,
        "wall_clock_s": wall_clock_s,
        "outputs": outputs,
    }
    write_json(path, record, indent=1, default=str)
