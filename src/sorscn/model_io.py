"""Versioned, checksummed model files.

A model saves as a single npz container holding every weight array plus one
JSON metadata member (dimensions, per-block scaling metadata, structure
history, schema version, and a sha256 digest over everything else). Loading
verifies the digest before trusting the arrays. Any schema version other
than the current one is refused.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict

import numpy as np

from .errors import CorruptFile, VersionMismatch
from .reservoir import EnsembleModel, StructureEvent, SubReservoir

SCHEMA_VERSION = 2


def _digest(arrays: dict, meta: dict) -> str:
    """sha256 over all arrays and the metadata, excluding the digest itself."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    public = {k: v for k, v in meta.items() if k != "checksum"}
    h.update(json.dumps(public, sort_keys=True).encode())
    return h.hexdigest()


def save_model(model: EnsembleModel, path) -> None:
    """Write the model losslessly; load_model(save_model(m)) predicts bitwise-equal."""
    arrays = {"readout": model.readout}
    for k, blk in enumerate(model.blocks):
        arrays[f"block{k}_input_weights"] = blk.input_weights
        arrays[f"block{k}_internal_weights"] = blk.internal_weights
        arrays[f"block{k}_bias"] = blk.bias
    meta = {
        "schema_version": SCHEMA_VERSION,
        "input_dim": model.input_dim,
        "output_dim": model.output_dim,
        "activation": model.activation,
        "stalled": model.stalled,
        "n_blocks": model.n_blocks,
        "blocks": [
            {
                "scale_lambda": blk.scale_lambda,
                "spectral_target": blk.spectral_target,
                "block_id": blk.block_id,
            }
            for blk in model.blocks
        ],
        "history": [asdict(ev) for ev in model.history],
    }
    meta["checksum"] = _digest(arrays, meta)
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.asarray(json.dumps(meta)), **arrays)


def _load_container(path) -> tuple[dict, dict]:
    try:
        with np.load(path, allow_pickle=False) as data:
            if "__meta__" not in data.files:
                raise CorruptFile(f"{path}: missing metadata member")
            meta = json.loads(str(data["__meta__"]))
            arrays = {name: data[name] for name in data.files if name != "__meta__"}
    except CorruptFile:
        raise
    except (zipfile.BadZipFile, OSError, EOFError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CorruptFile(f"{path}: unreadable container ({exc})") from exc
    return meta, arrays


def load_model(path) -> EnsembleModel:
    """Read a model file, verifying version and integrity."""
    meta, arrays = _load_container(path)
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise VersionMismatch(
            f"{path}: schema version {version!r}, reader supports {SCHEMA_VERSION}"
        )
    if meta.get("checksum") != _digest(arrays, meta):
        raise CorruptFile(f"{path}: checksum mismatch")

    try:
        return _model_from(meta, arrays)
    except KeyError as exc:
        raise CorruptFile(f"{path}: missing member {exc}") from exc


def _model_from(meta: dict, arrays: dict) -> EnsembleModel:
    blocks = []
    for k, blk_meta in enumerate(meta["blocks"]):
        blocks.append(
            SubReservoir(
                input_weights=arrays[f"block{k}_input_weights"],
                internal_weights=arrays[f"block{k}_internal_weights"],
                bias=arrays[f"block{k}_bias"],
                scale_lambda=float(blk_meta["scale_lambda"]),
                spectral_target=float(blk_meta["spectral_target"]),
                block_id=int(blk_meta["block_id"]),
            )
        )
    history = []
    for ev in meta["history"]:
        ev = dict(ev)
        if ev.get("margins") is not None:
            ev["margins"] = tuple(ev["margins"])
        history.append(StructureEvent(**ev))
    return EnsembleModel(
        blocks=blocks,
        readout=arrays["readout"],
        input_dim=int(meta["input_dim"]),
        output_dim=int(meta["output_dim"]),
        activation=meta.get("activation", "tanh"),
        history=history,
        stalled=bool(meta.get("stalled", False)),
    )
