"""Shared libraries built from the package's C sources.

``forkserver.c`` is the fork-server shim (see ``docs/external-targets.md``)
and ``mutate.c`` the round kernel, which makes a round's children (see
``truzz.mutation``) and scores them against a synthetic target (see
``truzz.target.CompiledTarget``); where it cannot be built, both are done
in Python, with the same results. Each is compiled once per host into ``$XDG_CACHE_HOME/truzz`` (``~/.cache/truzz``
by default) under a name holding the sha256 of its source, and found
there afterwards without a subprocess.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import stat
import tempfile
from importlib import resources
from typing import Optional

COMPILERS = ("cc", "gcc", "clang")


def _private(path: str, kind) -> bool:
    """Whether ``path``, not followed if it is a symlink, is a ``kind`` (a
    ``stat.S_IS*`` test) owned by this user and writable by no one else."""
    st = os.lstat(path)
    return kind(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


@functools.cache
def _source(stem: str) -> tuple[bytes, str]:
    """The source ``<stem>.c`` shipped in the package, and its sha256."""
    try:  # as random.py does: hashlib loads OpenSSL, about 2.5 ms of set-up
        from _sha256 import sha256
    except ImportError:  # CPython 3.12 and later name it _sha2
        from hashlib import sha256

    source = resources.files(__package__).joinpath(f"{stem}.c").read_bytes()
    return source, sha256(source).hexdigest()


def library(stem: str) -> Optional[bytes]:
    """Path of the shared library built from ``<stem>.c``, or None where
    there is none.

    A loaded library runs as code, so the cache is used only while its
    directory and the file are owned by this user and writable by no one
    else. A cache hit runs no subprocess.
    """
    source, digest = _source(stem)
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(root, "truzz")
    path = os.path.join(cache, f"{stem}-{digest}.so")
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        if not _private(cache, stat.S_ISDIR):
            return None
        if os.path.lexists(path):
            return os.fsencode(path) if _private(path, stat.S_ISREG) else None
        return _build(source, path, stem)
    except OSError:
        return None


def function(stem: str, name: str):
    """The ctypes function ``name`` of the library built from ``<stem>.c``,
    or None where it cannot be built or loaded. ctypes is imported here, so
    importing truzz loads none."""
    path = library(stem)
    if path is None:
        return None
    import ctypes

    try:
        return getattr(ctypes.CDLL(os.fsdecode(path)), name)
    except (OSError, AttributeError):
        return None


def _build(source: bytes, path: str, stem: str) -> Optional[bytes]:
    """Compile ``source`` into the shared library ``path`` with the first of
    ``COMPILERS`` found: to a temporary file beside it, then moved into
    place, and every other ``<stem>-*.so`` beside it deleted. None if there
    is no compiler or it fails."""
    import subprocess  # here, not with the module: a cache hit needs none

    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        return None
    fd, tmp = tempfile.mkstemp(prefix=f".{stem}-", dir=os.path.dirname(path))
    os.close(fd)
    try:
        command = [compiler, "-shared", "-fPIC", "-O2", "-o", tmp, "-x", "c", "-"]
        try:
            built = subprocess.run(command, input=source, capture_output=True, timeout=120)
        except subprocess.SubprocessError:
            return None
        if built.returncode != 0:
            return None
        os.chmod(tmp, 0o755)
        os.replace(tmp, path)
        directory, name = os.path.split(path)
        with os.scandir(directory) as entries:
            for entry in entries:
                if (entry.name != name and entry.name.startswith(f"{stem}-")
                        and entry.name.endswith(".so")
                        and entry.is_file(follow_symlinks=False)):
                    with contextlib.suppress(OSError):
                        os.unlink(entry.path)
        return os.fsencode(path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
