"""Deterministic on-disk formats for runs, embeddings and tables.

Every writer here produces byte-identical output for equal inputs: JSON is
emitted with sorted keys and the shortest round-trip float representation,
CSV with 17 significant digits and fixed column orders, and nothing ever
records wall-clock time or machine identity.  A run directory holds
``manifest.json`` (the configuration snapshot plus content digests of the
other files), the torus embedding, and the per-step convergence table.
The formats of the artifacts themselves live with their types (the
embedding's in ``newton``), so this module needs none of the solver.
"""

import functools
import hashlib
import json
import platform
from dataclasses import dataclass, field as _dc_field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import PersistenceError

__all__ = ["canonical_json", "save_json", "load_json", "emit_csv",
           "sha256_file", "RunManifest", "write_manifest", "load_manifest",
           "package_versions"]

MANIFEST_FORMAT = "kam-run/1"


def _tolist(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialise object of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, compact separators, trailing newline.

    The text is ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
    plus a newline: ASCII only, floats in their shortest round-trip form,
    numpy values written as the Python values their ``tolist()`` gives and
    tuples as lists.  Without indentation CPython runs its C encoder.
    ``python -m json.tool`` pretty-prints the result.  Anything json cannot
    encode, a cycle, or nesting beyond the recursion limit raises
    PersistenceError.
    """
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          default=_tolist) + "\n"
    except (TypeError, ValueError, RecursionError) as exc:
        raise PersistenceError(f"cannot serialise: {exc}") from exc


def save_json(path, obj) -> None:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_json(obj), encoding="utf-8", newline="\n")
    except OSError as exc:
        raise PersistenceError(f"cannot write {path}: {exc}") from exc


def load_json(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        raise PersistenceError(f"{path} is not valid JSON: {exc}") from exc


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit_csv(path, header, rows) -> None:
    """Write a table with a fixed header; floats carry 17 significant digits.

    An empty row list still produces the header line, so downstream readers
    always see the schema.
    """
    path = Path(path)
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise PersistenceError(f"cannot write {path}: {exc}") from exc


def sha256_file(path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
    except OSError as exc:
        raise PersistenceError(f"cannot digest {path}: {exc}") from exc
    return h.hexdigest()


def package_versions() -> dict:
    """Versions of the package, numpy, scipy and Python, for a manifest."""
    return {"revtori": _installed_version("revtori"), "numpy": np.__version__,
            "scipy": _installed_version("scipy"), "python": platform.python_version()}


@functools.cache
def _installed_version(name: str) -> str:
    """An installed distribution's version from its metadata, or "unknown".

    Reading metadata imports nothing, so recording scipy's version does not
    load scipy.  The read parses the whole metadata file, milliseconds for
    scipy's, so it happens once per process.
    """
    from importlib.metadata import PackageNotFoundError, version
    try:
        return version(name)
    except PackageNotFoundError:
        return "unknown"


@dataclass
class RunManifest:
    """Reproducibility record of one CLI run.

    ``outputs`` maps each artifact filename to its sha256 digest; equality
    of two manifests therefore certifies byte-identical artifacts.
    ``formats`` maps an artifact filename to the schema version of its
    content (for example ``convergence/2``), where one is declared.
    """

    name: str
    command: str
    config: dict
    seed: Optional[int] = None
    versions: dict = _dc_field(default_factory=package_versions)
    outputs: dict = _dc_field(default_factory=dict)
    formats: dict = _dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"format": MANIFEST_FORMAT, "name": self.name,
                "command": self.command, "config": self.config,
                "seed": self.seed, "versions": self.versions,
                "outputs": self.outputs, "formats": self.formats}

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
            raise PersistenceError(
                f"not a run manifest (format {data.get('format')!r}"
                f" != {MANIFEST_FORMAT!r})" if isinstance(data, dict)
                else "not a run manifest")
        try:
            return cls(name=str(data["name"]), command=str(data["command"]),
                       config=dict(data["config"]), seed=data.get("seed"),
                       versions=dict(data.get("versions", {})),
                       outputs=dict(data.get("outputs", {})),
                       formats=dict(data.get("formats", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"malformed run manifest: {exc}") from exc


def write_manifest(path, manifest: RunManifest) -> None:
    save_json(path, manifest.to_dict())


def load_manifest(path) -> RunManifest:
    return RunManifest.from_dict(load_json(path))

