"""Disk persistence of fitted pipelines: JSON + npz, no pickle.

A saved model is a directory with three files:

``manifest.json``
    The envelope: on-disk ``format_version``, the ``kind`` of the saved
    component, the library version that wrote it and the array count.  Loading
    validates this first so version mismatches fail with a clear message.
``state.json``
    The component's state dict (see :mod:`repro.serialization`) with every
    numpy array replaced by a placeholder.
``arrays.npz``
    The extracted arrays, stored losslessly with :func:`numpy.savez_compressed`
    and loaded with ``allow_pickle=False``.

The format is deliberately pickle-free: it is safe to load states from
untrusted sources (no code execution), diffable, and stable across Python and
numpy versions.  Floats stored in JSON round-trip exactly (shortest-repr), so
a reloaded pipeline reproduces its in-process scores bit for bit.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Any

import numpy as np

from ..compose.staged import StagedPipeline
from ..exceptions import PersistenceError
from ..serialization import pack_arrays, unpack_arrays

FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
STATE_FILE = "state.json"
ARRAYS_FILE = "arrays.npz"
SPEC_FILE = "spec.json"


def _library_version() -> str:
    import repro

    return str(getattr(repro, "__version__", "unknown"))


def save_state(state: dict, directory: str | Path) -> Path:
    """Write a component state dict to ``directory`` as JSON + npz.

    The directory is created if needed; existing model files in it are
    overwritten.  Returns the directory path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    packed, arrays = pack_arrays(state)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": state.get("kind"),
        "library_version": _library_version(),
        "n_arrays": len(arrays),
    }
    (directory / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2) + "\n")
    (directory / STATE_FILE).write_text(json.dumps(packed) + "\n")
    np.savez_compressed(directory / ARRAYS_FILE, **arrays)
    return directory


def load_state(directory: str | Path) -> dict:
    """Load a component state dict written by :func:`save_state`.

    Raises
    ------
    PersistenceError
        When the directory or any of its files is missing, unparseable, or was
        written by a newer on-disk format.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise PersistenceError(f"model directory {directory} does not exist")
    manifest = _read_json(directory / MANIFEST_FILE)
    format_version = manifest.get("format_version")
    if not isinstance(format_version, int):
        raise PersistenceError(
            f"manifest in {directory} has invalid format_version {format_version!r}"
        )
    if format_version > FORMAT_VERSION:
        raise PersistenceError(
            f"model in {directory} uses on-disk format {format_version}, but this "
            f"library only reads formats <= {FORMAT_VERSION}; upgrade the library"
        )
    packed = _read_json(directory / STATE_FILE)
    arrays_path = directory / ARRAYS_FILE
    if not arrays_path.exists():
        raise PersistenceError(f"model in {directory} is missing {ARRAYS_FILE}")
    try:
        with np.load(arrays_path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise PersistenceError(f"cannot read array archive {arrays_path}: {exc}") from exc
    state = unpack_arrays(packed, arrays)
    if not isinstance(state, dict):
        raise PersistenceError(f"state file in {directory} does not contain a state dict")
    return state


def _read_json(path: Path) -> Any:
    if not path.exists():
        raise PersistenceError(f"model file {path} does not exist")
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot parse {path}: {exc}") from exc


# ------------------------------------------------------------------- pipelines
def save_pipeline(pipeline: StagedPipeline, directory: str | Path) -> Path:
    """Save a fitted pipeline to ``directory``.

    The pipeline must be fitted; unfitted pipelines have nothing worth saving
    and ``to_state`` raises ``NotFittedError``.  Next to the binary state the
    pipeline's :class:`~repro.compose.spec.PipelineSpec` is written as a
    human-readable ``spec.json``, so a model directory documents — and can
    re-create, via ``python -m repro.serve fit --spec`` — its own
    configuration.
    """
    directory = save_state(pipeline.to_state(), directory)
    (directory / SPEC_FILE).write_text(pipeline.spec.to_json() + "\n")
    return directory


def load_pipeline(directory: str | Path) -> StagedPipeline:
    """Load a pipeline written by :func:`save_pipeline`.

    The reloaded pipeline reproduces the saved pipeline's ``predict_proba``
    outputs and risk scores exactly, and can ``refit_risk_model`` on fresh
    validation data.
    """
    state = load_state(directory)
    if state.get("kind") != StagedPipeline.STATE_KIND:
        raise PersistenceError(
            f"model in {directory} has kind {state.get('kind')!r}, "
            f"expected {StagedPipeline.STATE_KIND!r}"
        )
    return StagedPipeline.from_state(state)
