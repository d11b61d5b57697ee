"""The native CDCL core: ``cdcl.c`` under :class:`IncrementalSatSolver`.

:class:`NativeSatSolver` runs the search of :mod:`repro.smt.sat` in C,
called through :mod:`ctypes`.  ``cdcl.c`` is a line-for-line port of the
Python core, so for the same calls it returns the same models and the same
``conflicts``, ``decisions`` and clause counts; the Python core stays the
reference and the fallback.

Clauses cross into C in bulk: :meth:`~NativeSatSolver.new_var` and
:meth:`~NativeSatSolver.add_clause` only append ``[len, lits...]`` records
to a buffer, which is replayed in order by one call when ``solve()`` runs or
``num_clauses`` is read.  A model comes back as one byte per variable behind
the read-only :class:`SatModel` mapping.

The library is built on first use, never at import: ``cc`` (or ``gcc``)
compiles ``cdcl.c`` into ``$XDG_CACHE_HOME/k2-repro`` (default
``~/.cache/k2-repro``), or a per-user temporary directory when that is not
writable.  The file name hashes the source, the flags and the compiler, so a
changed source or compiler builds afresh; builds go to a temporary file that
is moved into place, so concurrent processes never see a partial library.
Each library ends with a SHA-256 trailer over its contents, checked before
loading, so a truncated or corrupt file is rebuilt instead of loaded.
Without a working compiler :func:`available` warns once and the solver
facade uses the Python core.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import tempfile
import warnings
import weakref
from array import array
from collections.abc import Mapping
from pathlib import Path
from typing import List, Optional

from .sat import IncrementalSatSolver, SatResult

__all__ = ["NativeSatSolver", "SatModel", "available", "load"]

SOURCE = Path(__file__).with_name("cdcl.c")
#: No -march=native / -ffast-math: the VSIDS arithmetic must round exactly
#: as Python floats do.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_DIGEST = 32

# k2_solve results and the error codes of cdcl.c.
_UNSAT, _SAT, _ASSUMPTION_FAILED, _TIMEOUT = 0, 1, 2, 3
_ZERO_LIT, _UNALLOCATED, _NOMEM = -2, -3, -4


# --------------------------------------------------------------------------- #
# Building and loading
# --------------------------------------------------------------------------- #
def find_compiler() -> Optional[str]:
    """The C compiler used for the build: ``cc``, else ``gcc``, on PATH."""
    return shutil.which("cc") or shutil.which("gcc")


def cache_dirs() -> List[Path]:
    """Where the library is cached, in order of preference."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    user = getattr(os, "getuid", lambda: "user")()
    return [Path(base) / "k2-repro",
            Path(tempfile.gettempdir()) / f"k2-repro-{user}"]


def library_name(compiler: str) -> str:
    """Cache file name, keyed by the source, the flags and the compiler."""
    real = os.path.realpath(compiler)
    stat = os.stat(real)
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(repr((CFLAGS, real, stat.st_size, stat.st_mtime_ns,
                        platform.machine())).encode())
    return f"cdcl-{digest.hexdigest()[:16]}.so"


def compile_library(compiler: str, output: str) -> None:
    """Compile ``cdcl.c`` into the shared library ``output``.

    Raises :class:`RuntimeError` with the compiler's message on failure.
    """
    import subprocess  # only on a cache miss; keeps it out of start-up

    try:
        subprocess.run([compiler, *CFLAGS, "-o", output, str(SOURCE)],
                       check=True, capture_output=True, timeout=300)
    except subprocess.CalledProcessError as exc:
        message = exc.stderr.decode(errors="replace").strip() or str(exc)
        raise RuntimeError(f"{compiler} failed on {SOURCE.name}: "
                           f"{message}") from exc
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(str(exc)) from exc


def _verified(path: Path) -> bool:
    """True when ``path`` ends with a valid digest of its own contents."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    return len(data) > _DIGEST and \
        hashlib.sha256(data[:-_DIGEST]).digest() == data[-_DIGEST:]


def _open(path: Path) -> Optional[ctypes.CDLL]:
    if not _verified(path):
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:  # e.g. a cache folder on a noexec mount
        return None
    handle, buffer = ctypes.c_void_p, ctypes.c_void_p
    signatures = {
        "k2_new": ([], handle),
        "k2_free": ([handle], None),
        "k2_add": ([handle, buffer, ctypes.c_int, ctypes.c_int], ctypes.c_int),
        "k2_bad_index": ([handle], ctypes.c_int),
        "k2_solve": ([handle, buffer, ctypes.c_int, ctypes.c_longlong,
                      ctypes.c_char_p], ctypes.c_int),
        "k2_conflicts": ([handle], ctypes.c_longlong),
        "k2_decisions": ([handle], ctypes.c_longlong),
        "k2_num_clauses": ([handle], ctypes.c_longlong),
    }
    for name, (argtypes, restype) in signatures.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    return lib


def _build(directory: Path, name: str, compiler: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp",
                                dir=directory)
    os.close(fd)
    try:
        compile_library(compiler, temp)
        with open(temp, "rb+") as handle:
            digest = hashlib.sha256(handle.read()).digest()
            handle.write(digest)
        path = directory / name
        os.replace(temp, path)
        return path
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def load(directory: Optional[Path] = None) -> ctypes.CDLL:
    """Load the cached library, building it on a miss or a bad file.

    ``directory`` overrides :func:`cache_dirs`.  Raises :class:`RuntimeError`
    when the compiler fails or no folder yields a loadable library.
    """
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc or gcc) on PATH")
    name = library_name(compiler)
    errors = []
    for folder in [Path(directory)] if directory else cache_dirs():
        lib = _open(folder / name)
        if lib is not None:
            return lib
        try:
            path = _build(folder, name, compiler)
        except OSError as exc:  # an unwritable folder: try the next one
            errors.append(f"{folder}: {exc}")
            continue
        lib = _open(path)
        if lib is not None:
            return lib
        errors.append(f"{path}: the built library does not load")
    raise RuntimeError("; ".join(errors))


_UNTRIED = object()
#: The process's library: loaded once, ``None`` after a failed load.
_library_state = _UNTRIED


def _library() -> Optional[ctypes.CDLL]:
    # No lock: threads racing through the first call at worst build twice,
    # which the atomic replace in _build makes safe, whereas a lock held
    # while another thread forks a worker pool would deadlock the child.
    global _library_state
    if _library_state is _UNTRIED:
        try:
            _library_state = load()
        except RuntimeError as exc:
            _library_state = None
            warnings.warn(f"native SAT core unavailable ({exc}); "
                          "using the pure-Python core",
                          RuntimeWarning, stacklevel=3)
    return _library_state


def available() -> bool:
    """Whether :class:`NativeSatSolver` can run (builds on the first call).

    The first failure emits one :class:`RuntimeWarning` per process.
    """
    return _library() is not None


# --------------------------------------------------------------------------- #
# The solver
# --------------------------------------------------------------------------- #
class SatModel(Mapping):
    """Read-only ``{var: bool}`` view of a byte-per-variable model snapshot."""

    __slots__ = ("_bits",)

    def __init__(self, bits: bytes):
        self._bits = bits  # bits[0] is unused; variables start at 1

    def __getitem__(self, var: int) -> bool:
        if isinstance(var, int) and 0 < var < len(self._bits):
            return self._bits[var] == 1
        raise KeyError(var)

    def get(self, var, default=None):
        if isinstance(var, int) and 0 < var < len(self._bits):
            return self._bits[var] == 1
        return default

    def __len__(self) -> int:
        return len(self._bits) - 1

    def __iter__(self):
        return iter(range(1, len(self._bits)))


class NativeSatSolver(IncrementalSatSolver):
    """:class:`IncrementalSatSolver` whose database and search live in C.

    Overrides the internals only — ``solve`` itself is inherited, so code
    that wraps ``IncrementalSatSolver.solve`` sees both cores.  The Python
    core's per-variable state (``value``, ``trail``, ``clauses``, ...) is
    not mirrored; read ``num_clauses``, ``conflicts`` and ``decisions``.
    """

    def __init__(self, max_conflicts: Optional[int] = None):
        lib = _library()
        if lib is None:
            raise RuntimeError("the native SAT core is unavailable")
        self._lib = lib
        self._handle = lib.k2_new()
        if not self._handle:
            raise MemoryError("cannot allocate the native SAT core")
        weakref.finalize(self, lib.k2_free, self._handle)
        self.num_vars = 0
        self.max_conflicts = max_conflicts
        self.num_solves = 0
        self._pending = array("i")
        self._synced_vars = 0

    def __reduce__(self):
        # A copy would share (and double-free) the C solver behind _handle.
        raise TypeError("a native SAT core cannot be pickled or copied")

    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals) -> None:
        if not isinstance(literals, (list, tuple)):
            literals = list(literals)
        bound = self.num_vars
        if 0 in literals or literals and (max(literals) > bound
                                          or min(literals) < -bound):
            self._add_invalid(literals)
            return
        pending = self._pending
        pending.append(len(literals))
        pending.extend(literals)

    def _add_invalid(self, literals) -> None:
        """Replay one clause with a bad literal in C, which stops where the
        Python core would and so raises (or not) exactly as it does."""
        self._flush()
        limit = 2 ** 31 - 1
        record = array("i", [len(literals)])
        record.extend(max(-limit, min(limit, lit)) for lit in literals)
        code = self._lib.k2_add(self._handle, record.buffer_info()[0],
                                len(record), self.num_vars)
        if code in (_ZERO_LIT, _UNALLOCATED):
            lit = literals[self._lib.k2_bad_index(self._handle)]
            if code == _ZERO_LIT:
                raise ValueError("0 is not a valid literal")
            raise ValueError(f"literal {lit} references an unallocated variable")
        self._check(code)

    def _flush(self) -> None:
        pending = self._pending
        if pending or self._synced_vars != self.num_vars:
            self._pending = array("i")
            self._synced_vars = self.num_vars
            self._check(self._lib.k2_add(self._handle,
                                         pending.buffer_info()[0],
                                         len(pending), self.num_vars))

    @staticmethod
    def _check(code: int) -> None:
        if code == _NOMEM:
            raise MemoryError("the native SAT core ran out of memory")

    # ------------------------------------------------------------------ #
    @property
    def num_clauses(self) -> int:
        self._flush()
        return self._lib.k2_num_clauses(self._handle)

    @property
    def conflicts(self) -> int:
        return self._lib.k2_conflicts(self._handle)

    @property
    def decisions(self) -> int:
        return self._lib.k2_decisions(self._handle)

    def _backjump(self, target_level: int) -> None:
        """The C search always returns at level 0; nothing to undo."""

    def _solve(self, assumptions: List[int]) -> SatResult:
        self._flush()
        bound = self.num_vars
        if 0 in assumptions or assumptions and (max(assumptions) > bound
                                                or min(assumptions) < -bound):
            raise ValueError(f"assumptions {assumptions} reference "
                             "unallocated variables")
        lits = array("i", assumptions)
        model = ctypes.create_string_buffer(bound + 1)
        budget = -1 if self.max_conflicts is None else max(0, self.max_conflicts)
        code = self._lib.k2_solve(self._handle, lits.buffer_info()[0],
                                  len(lits), budget, model)
        if code == _TIMEOUT:
            raise TimeoutError(
                f"SAT solver exceeded {self.max_conflicts} conflicts")
        self._check(code)
        return SatResult(code == _SAT,
                         model=SatModel(model.raw) if code == _SAT else None,
                         conflicts=self.conflicts, decisions=self.decisions,
                         assumption_failed=code == _ASSUMPTION_FAILED)
