"""Text file reads, atomic artifact writes, and canonical JSON.

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
import json
import os
from pathlib import Path

from .errors import FiniteInputError, FormatError


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


def json_text(obj, dest):
    """obj as canonical JSON text; FiniteInputError naming `dest` for a NaN or infinity.

    JSON has no non-finite numbers, so such a value is an error rather than
    the invalid `NaN`/`Infinity` tokens. (An infinite condition number is
    reported as the string "inf" before it gets here.)
    """
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FiniteInputError(f"{dest}: {exc}; nothing written") from None


def write_json(path, obj):
    """obj as canonical JSON plus a newline, encoded before `path` is opened."""
    text = json_text(obj, path)
    with atomic_open(path) as fh:
        fh.write(text + "\n")
