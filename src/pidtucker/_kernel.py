"""The compiled backend: build and load `_kernel.c` as an extension module.

The backend contract, stated here once.  Each function of the module has
one caller in the library, which also holds the reference code it must
match (numpy or plain Python):

    value       model.predict
    step        solver.sgd_step (reference: model.instance_gradient, applied)
    values      model.predict_batch
    sums        model._sums, behind model.rmse and model.regularized_loss
    records     datasets.write_records_csv, one block of rows a call; the
                reference writes each block it returns None for (_kernel.c)

- A caller runs the kernel when `library()` has loaded it, else the
  reference.  There is no switch for the backend.  All but records take
  f's handle (below) first and read the model, mean included, from it alone.
- The backends are bit-identical: the reference forms every sum in the
  kernel's order (model._dots, model._sums); records writes its bytes, or
  None.  The kernel's reuse of the previous row's g for a row with the same
  i keeps the bits a fresh g would, so predict, predict_batch, rmse and
  regularized_loss agree bit for bit in any row order (rmse is 0.0 on values
  predict_batch gave).
- Errors: a kernel raises IndexError (or TypeError, ValueError,
  OverflowError for an index that is not three integers) before touching
  any memory, and step raises FloatingPointError for a non-finite err,
  before it looks at the index.  The caller then runs the reference's own
  check (model.check_index, sparse._check_bounds), so both backends raise the
  same DataError, and sgd_step raises the reference's DivergenceError.
  Checks the library makes anyway (one value a cell, write_records_csv's
  bounds) run before either backend.  _kernel.c lists its own checks.

The module is compiled on first use with the system gcc and the Python
headers into a per-user cache directory ($XDG_CACHE_HOME/pidtucker, else
~/.cache/pidtucker), under a file name holding the interpreter's extension
ABI tag and a CRC-32 of the source, the compiler command, the machine and
that tag, so a new source version builds once per interpreter and later
processes only load it.  A fresh build deletes the other builds with the same
ABI tag that are more than a day old; builds for other ABI tags are never
touched.  A younger build is kept, so two checkouts with different sources
used alternately do not delete and rebuild each other's kernel every time.
Any failure (no gcc or no Python headers, an unwritable or foreign cache
directory, a file that will not load) makes `library()` return None.

`handle(f)` gives the kernel's view of one TuckerFactors, or None when the
library did not load: a packed pt_model struct, the whole model, of pointers
to the seven arrays in checkpoint order (f.arrays) and to a scratch buffer
(g's r2*r3 doubles first, then r1*r2 for pt_step's gt, of which pt_finish's
dn takes the first r2, so dn adds nothing to the size, then r1 + r2 + r3 for
the row gradients), the ranks, the dims (which the kernel checks every index
against) and f.mean.  The arrays are disjoint views of f.params, one
C-contiguous, writeable float64 block that TuckerFactors owns and has
checked against dims and ranks, so the kernel can take every TuckerFactors.
A TuckerFactors builds its handle once, when it is constructed, and keeps
it in f._kernel_handle, which every caller reads.  The handle stays valid
because the fields of a TuckerFactors, mean among them, are bound once and
its arrays are updated only in place.
"""

from __future__ import annotations

import os
import re
import struct
import threading
import time
import zlib
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernel.c")
_COMPILE = ("gcc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
_MODULE = "pidtucker._pt_kernel"  # _kernel.c defines PyInit__pt_kernel
_PT_MODEL = "8P3l3qd"  # pt_model: factor[3], core, bias[3], scratch, rank[3], dims[3], mean

# A fresh build deletes other builds with its ABI tag older than this.
_STALE_S = 24 * 3600

# What the module's value and step raise for an index they cannot take: one
# that is not a sequence of three integers, or lies outside dims.
INDEX_ERRORS = (IndexError, OverflowError, TypeError, ValueError)

_lock = threading.Lock()
_tried = False
_lib = None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "pidtucker"


def _file_name(source: bytes, abi: str) -> str:
    """Cache file name for this source, compiler command, machine and ABI tag.

    The name is kernel-<tag>-<crc>.so, where tag is abi (an extension suffix
    such as .cpython-311-x86_64-linux-gnu.so) without its dots and extension.
    """
    key = zlib.crc32(b"\0".join([source, " ".join(_COMPILE).encode(),
                                 os.uname().machine.encode(), abi.encode()]))
    return f"kernel-{abi.rsplit('.', 1)[0].lstrip('.')}-{key:08x}.so"


def _prune(built: Path) -> None:
    """Delete the other builds with built's ABI tag that are more than a day old.

    Only names kernel-<that tag>-<8 hex digits>.so qualify.  A deletion that
    fails is left for a later build.
    """
    tag = built.name[len("kernel-"): -len("-00000000.so")]
    pattern = re.compile(rf"kernel-{re.escape(tag)}-[0-9a-f]{{8}}\.so")
    stale = time.time() - _STALE_S
    for path in built.parent.iterdir():
        if path.name != built.name and pattern.fullmatch(path.name):
            try:
                if path.stat().st_mtime < stale:
                    path.unlink()
            except OSError:
                pass


def _include_dir() -> str:
    """The Python headers' directory; sysconfig is imported only to compile."""
    import sysconfig

    return sysconfig.get_path("include")


def _compile(source: bytes, target: Path) -> None:
    """Compile source into target through a temporary file in the same directory.

    Raises OSError when the compiler is missing, fails (as it does without
    the Python headers) or times out.
    """
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([*_COMPILE, "-I", _include_dir(), "-x", "c", "-", "-o", tmp],
                       input=source, capture_output=True, check=True, timeout=120)
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot compile the kernel: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    """Build the module if this source version has no cached build, then load it.

    Returns the extension module, or None when any step fails.
    """
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

    try:
        source = _SOURCE.read_bytes()
        cache = _cache_dir()
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = cache.stat()
        # Load nothing from a directory another user could write to.
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None
        path = cache / _file_name(source, EXTENSION_SUFFIXES[0])
        if not path.exists():
            _compile(source, path)
            _prune(path)
        loader = ExtensionFileLoader(_MODULE, str(path))
        module = loader.create_module(ModuleSpec(_MODULE, loader, origin=str(path)))
        loader.exec_module(module)
        return module
    except (OSError, ImportError):
        return None


def library():
    """The loaded kernel module, or None; built and loaded at most once per process."""
    global _tried, _lib
    if not _tried:
        with _lock:
            if not _tried:
                _lib = _load()
                _tried = True
    return _lib


class _Handle:
    """One TuckerFactors packed as a pt_model, with its arrays kept alive beside it."""

    __slots__ = ("arrays", "model", "value", "step", "values", "sums")

    def __init__(self, lib, f):
        ranks = f.core.shape
        # pt_form_g's g, then pt_step's gt (pt_finish's dn shares it) and row
        # gradients (_kernel.c).
        scratch = np.empty(ranks[0] * ranks[1] + sum(ranks) + ranks[1] * ranks[2])
        self.arrays = (*f.arrays, scratch)
        self.model = struct.pack(_PT_MODEL, *(a.ctypes.data for a in self.arrays), *ranks,
                                 *f.dims, f.mean)
        self.value, self.step, self.values, self.sums = lib.value, lib.step, lib.values, lib.sums


def handle(f):
    """The kernel handle for f, or None when the library did not load."""
    lib = library()
    return None if lib is None else _Handle(lib, f)
