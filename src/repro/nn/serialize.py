"""Save/load module state dicts as npz archives.

Members are written ``ZIP_STORED``: the arrays are float weights and
packed bits, which deflate shrinks by only a few percent, while
inflating them was about half of a load.  Zip readers handle stored and
deflated members alike, so archives of either form load here and in
older builds.

Checkpoints are written **atomically** — serialized to a temporary file in
the destination directory, fsync'ed, then moved into place with
``os.replace`` — so a process killed mid-save can never leave a
half-written archive under the target name.  Every archive additionally
carries a versioned JSON *manifest* (stored as a uint8 array under
``__manifest__``) with a CRC32 checksum per array, so truncated or
bit-corrupted checkpoints are detected at load time with a
:class:`CheckpointError` instead of silently producing a garbage model.

Archives written by older versions of this module (no manifest) still
load; they simply skip integrity verification.  Named manifest sections
(:func:`manifest_section`) carry a subsystem's own JSON, such as a model
bundle's ``"bundle"`` provenance; a reader ignores the sections it does
not know, such as the ``"graph"`` topology some older pipeline
checkpoints carry.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zipfile
import zlib
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .layers import Module

__all__ = [
    "save_state", "load_state", "load_state_with_manifest", "load_manifest",
    "manifest_section", "save_module", "load_module", "CheckpointError",
    "MANIFEST_KEY", "FORMAT_VERSION",
]

#: Reserved archive member holding the JSON manifest (uint8 payload).
MANIFEST_KEY = "__manifest__"

#: Current checkpoint manifest format version.
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint is missing, truncated, corrupted, or mismatched."""


def _array_crc(array: np.ndarray) -> int:
    """CRC32 of an array's raw little-endian bytes (shape/dtype-agnostic)."""
    return zlib.crc32(np.ascontiguousarray(array)) & 0xFFFFFFFF


def _build_manifest(state: Dict[str, np.ndarray],
                    meta: Optional[Dict[str, Any]],
                    sections: Optional[Dict[str, Dict[str, Any]]] = None
                    ) -> Dict[str, Any]:
    manifest: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "arrays": {
            name: {
                "crc32": _array_crc(array),
                "shape": list(array.shape),
                "dtype": str(array.dtype),
            }
            for name, array in state.items()
        },
        "meta": meta or {},
    }
    if sections:
        manifest["sections"] = dict(sections)
    return manifest


def manifest_section(manifest: Optional[Dict[str, Any]],
                     name: str) -> Optional[Dict[str, Any]]:
    """Return a named manifest section (or None).

    Sections are free-form JSON sub-documents written via the
    ``sections`` argument of :func:`save_state`.  Subsystems use them to
    attach their own schema to a checkpoint without colliding with the
    pipeline ``meta`` — e.g. the serving layer's ``"bundle"`` section
    (see :mod:`repro.serve.bundle`).  Legacy archives (no manifest, or
    manifests written before sections existed) simply return None.
    """
    if manifest is None:
        return None
    sections = manifest.get("sections")
    if not isinstance(sections, dict):
        return None
    section = sections.get(name)
    return section if isinstance(section, dict) else None


def save_state(state: Dict[str, np.ndarray], path: str,
               meta: Optional[Dict[str, Any]] = None,
               sections: Optional[Dict[str, Dict[str, Any]]] = None
               ) -> None:
    """Atomically write a state dict (plus optional JSON ``meta``) to ``path``.

    The archive is first serialized to a temporary sibling file and then
    moved over ``path`` with ``os.replace``; readers never observe a
    partially-written checkpoint.  ``meta`` must be JSON-serializable and
    is embedded in the integrity manifest (see :func:`load_manifest`).
    ``sections`` optionally adds named JSON sub-documents to the manifest
    (see :func:`manifest_section`); adding a section does not bump the
    format version — readers that don't know a section ignore it.
    """
    if MANIFEST_KEY in state:
        raise ValueError(f"state key {MANIFEST_KEY!r} is reserved for the "
                         "checkpoint manifest")
    arrays = {name: np.asarray(value) for name, value in state.items()}
    manifest = _build_manifest(arrays, meta, sections)
    payload = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8)

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays, **{MANIFEST_KEY: payload})
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


#: A ``json.loads`` ``object_hook``, applied while the manifest parses.
ObjectHook = Optional[Callable[[Dict[str, Any]], Any]]


def _read_archive(path: str, object_hook: ObjectHook = None
                  ) -> Tuple[Dict[str, np.ndarray], Optional[Dict[str, Any]]]:
    """Read (state, manifest-or-None), wrapping IO/zip failures."""
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path!r}")
    try:
        state = {}
        with zipfile.ZipFile(path) as archive:
            for member in archive.infolist():
                # ``read`` inflates the whole member, so zipfile checks
                # its CRC-32 (``np.load`` stops at the array's last byte
                # and skips it).  For the manifest that CRC is the only
                # check there is.
                raw = io.BytesIO(archive.read(member))
                name = member.filename
                state[name[:-4] if name.endswith(".npy") else name] = \
                    np.lib.format.read_array(raw, allow_pickle=False)
    except Exception as exc:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise CheckpointError(
            f"cannot read checkpoint {path!r} (truncated or corrupted "
            f"archive): {exc}") from exc
    manifest = None
    payload = state.pop(MANIFEST_KEY, None)
    if payload is not None:
        try:
            manifest = json.loads(payload.tobytes().decode("utf-8"),
                                  object_hook=object_hook)
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} has an unreadable manifest: {exc}"
            ) from exc
    return state, manifest


def _verify(state: Dict[str, np.ndarray], manifest: Dict[str, Any],
            path: str) -> None:
    version = manifest.get("format_version")
    if not isinstance(version, int) or version < 1:
        raise CheckpointError(
            f"checkpoint {path!r} has an invalid manifest version "
            f"{version!r}")
    if version > FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} was written by a newer format "
            f"(version {version} > supported {FORMAT_VERSION})")
    declared = manifest.get("arrays", {})
    missing = sorted(set(declared) - set(state))
    extra = sorted(set(state) - set(declared))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint {path!r} does not match its manifest: "
            f"missing arrays {missing}, undeclared arrays {extra}")
    corrupt = [name for name, spec in declared.items()
               if _array_crc(state[name]) != spec.get("crc32")]
    if corrupt:
        raise CheckpointError(
            f"checkpoint {path!r} failed CRC32 verification for arrays "
            f"{sorted(corrupt)} — the file is corrupted")


def load_state_with_manifest(path: str, verify: bool = True,
                             object_hook: ObjectHook = None
                             ) -> Tuple[Dict[str, np.ndarray],
                                        Optional[Dict[str, Any]]]:
    """Read ``(state, manifest)``; ``manifest`` is None for legacy files.

    ``object_hook`` is handed to ``json.loads`` for the manifest, so a
    section's own encoding (a bundle's non-finite tags) is decoded in
    the one parse; a hook that raises ``ValueError`` makes the manifest
    unreadable (:class:`CheckpointError`).
    """
    state, manifest = _read_archive(path, object_hook)
    if verify and manifest is not None:
        _verify(state, manifest, path)
    return state, manifest


def load_state(path: str, verify: bool = True) -> Dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state`.

    With ``verify=True`` (default) the per-array CRC32 checksums of the
    manifest are validated and a :class:`CheckpointError` names the
    corrupted arrays.  Legacy archives without a manifest load unverified.
    """
    return load_state_with_manifest(path, verify=verify)[0]


def load_manifest(path: str) -> Optional[Dict[str, Any]]:
    """Return the JSON manifest of a checkpoint (None for legacy files)."""
    return _read_archive(path)[1]


def save_module(module: Module, path: str,
                meta: Optional[Dict[str, Any]] = None) -> None:
    """Serialize a module's parameters and buffers (atomically)."""
    save_state(module.state_dict(), path, meta=meta)


def load_module(module: Module, path: str) -> Module:
    """Load parameters and buffers into ``module`` in place.

    Raises a descriptive :class:`CheckpointError` — naming the file and
    listing the missing/unexpected keys — when the archive does not match
    the module's ``state_dict`` schema.
    """
    state = load_state(path)
    expected = set(module.state_dict())
    found = set(state)
    missing = sorted(expected - found)
    extra = sorted(found - expected)
    if missing or extra:
        raise CheckpointError(
            f"cannot load {type(module).__name__} from {path!r}: "
            f"state dict mismatch (missing keys {missing}, "
            f"unexpected keys {extra})")
    try:
        module.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"cannot load {type(module).__name__} from {path!r}: {exc}"
        ) from exc
    return module
