"""Named-array archives in numpy's `.npz` layout: the form of feature
caches and fold checkpoints. Unlike `np.savez`, `save_archive` keeps the
path's suffix and stamps every member with the zip epoch (1980-01-01)
instead of the clock, so equal arrays give equal bytes."""

from __future__ import annotations

import zipfile

import numpy as np


def save_archive(path, arrays):
    """Write the name -> array dict `arrays` to `path`."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in arrays.items():
            with zf.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(
                    fh, np.asanyarray(value), allow_pickle=False
                )


def load_archive(path, parse, what):
    """`parse(members)` for the name -> array mapping of the archive at
    `path`, read with `allow_pickle=False`. Bytes that are not such an
    archive, and any error `parse` raises on its members, raise one
    ValueError naming `path` and the `what` it should hold."""
    with open(path, "rb") as fh:
        try:
            # zip magic: numpy would take a bare .npy, or a pickle, too
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("not an .npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                return parse(archive)
        except Exception as exc:
            # corrupt bytes raise what the readers hit: BadZipFile, TokenError, ...
            raise ValueError(f"{path}: not a {what}: {exc}") from exc
