"""Text file reads and atomic artifact writes.

Every input file (CSV, config, checkpoint, synth spec) is decoded by
`read_text`, so bytes that are not UTF-8 end in a FormatError naming the
file.

A reader of an artifact sees the previous file or the whole new one: each
artifact is written to a temporary file in the target's directory and
renamed over the target only once the write has finished, so a writer that
fails midway leaves the previous artifact in place and no partial file. There
is no fsync: this guards against failed writers, not against power loss.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from .errors import FormatError


def read_text(path):
    """Contents of a UTF-8 text file with its line endings as stored."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: not UTF-8 text (byte 0x{raw[exc.start]:02x} at offset {exc.start})"
        ) from None


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """A UTF-8 text file handle whose contents replace `path` when the block exits cleanly."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
