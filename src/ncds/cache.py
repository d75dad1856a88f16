"""The optional on-disk cache of solved spaces (NCDS_CACHE_DIR).

An entry is a space's JSON document plus the CRC-32 of its canonical JSON.
A hit checks the entry against the format rules of `ncds.jsonformat` and
serves the stored document as it is, so it loads neither the series
algebra nor the solver.
"""

import binascii
import json
import os
from functools import lru_cache

from . import InputError


def cache_dir():
    return os.environ.get("NCDS_CACHE_DIR") or None


@lru_cache(maxsize=None)
def source_hash():
    """CRC-32 of the package's *.py sources, so that a kernel change never
    serves a space cached by other code.  (hashlib would load OpenSSL, about
    3 MB of resident memory in every `ncds` process.)"""
    pkg = os.path.dirname(os.path.abspath(__file__))
    crc = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                crc = binascii.crc32(name.encode() + b"\0" + fh.read() + b"\0", crc)
    return "%08x" % crc


def _entry_crc(entry):
    """CRC-32 of an entry's canonical JSON, stored in the file as "crc32"."""
    text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return "%08x" % binascii.crc32(text.encode())


def _cached_entry(path, space_id, weight):
    """The space document stored at path, or None unless the file holds a
    JSON object whose CRC matches, for this space and weight, that passes
    `jsonformat.check_space`: its dimension counts its basis, and it parses
    as a space."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (FileNotFoundError, ValueError):  # missing, or not JSON
        return None
    if not (isinstance(data, dict) and data.pop("crc32", None) == _entry_crc(data)
            and data.get("space") == space_id
            and data.get("weight") == weight):
        return None
    from .jsonformat import check_space  # a miss never loads it
    try:
        check_space(data)
    except InputError:
        return None
    return data


def cached_space(space_id, weight, compute):
    """The JSON document of the space that compute() returns, through a disk
    cache keyed by (space id, weight, source hash).

    A valid entry is returned as stored.  An entry that is not valid for
    (space id, weight), or whose stored CRC does not match its content, is
    recomputed and rewritten; writes are atomic, and a failed write leaves
    no temporary file behind.
    """
    d = cache_dir()
    if not d:
        return compute().to_json()
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-w%d-%s.json" % (space_id, weight, source_hash()))
    entry = _cached_entry(path, space_id, weight)
    if entry is not None:
        return entry
    entry = compute().to_json()
    import tempfile  # only a miss writes
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(dict(entry, crc32=_entry_crc(entry)), fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return entry
