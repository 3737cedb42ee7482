"""Small dense linear algebra and seeded randomness used everywhere else.

Vectors and symmetric matrices are plain float64 numpy arrays; the helpers
here only validate and compute, they never mutate their inputs. Randomness
flows through :class:`RngState`, a (seed, stream) pair backed by the Philox
counter-based generator, so any consumer can derive independent substreams
from its own state without coordination.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

# values in one stacked (trials, size, dim) array of draws; workflow fits and
# concentration curves process trials in chunks of this size, and their
# results do not depend on it
STACK_LIMIT = 1 << 18


def check_fits(what: str, shape: tuple[int, ...], advice: str) -> None:
    """Refuse a float64 array of ``shape`` beyond physical memory or the array index range."""
    size = math.prod(shape) * 8
    limit = min(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), np.iinfo(np.intp).max)
    if size > limit:
        raise InputValidationError(
            f"{what} of shape {shape} need {size} bytes, beyond the {limit} that physical "
            f"memory and the array index range allow; {advice}"
        )


_INTEGER_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def check_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; it must be a Python or numpy integer, not a bool.

    ``minimum``, None, 0 or 1, is the least value allowed.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (minimum is not None and value < minimum)):
        raise InputValidationError(f"{name} must be {_INTEGER_KINDS[minimum]}")
    return int(value)


def as_vector(x, dim: int, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-d float64 array of length ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InputValidationError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if v.shape[0] == 0:
        raise InputValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise InputValidationError(f"{name} must be finite")
    if v.shape[0] != dim:
        raise InputValidationError(f"{name} must have dimension {dim}, got {v.shape[0]}")
    return v


def as_symmetric_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite, exactly symmetric square float64 array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputValidationError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise InputValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise InputValidationError(f"{name} must be finite")
    if not np.array_equal(a, a.T):
        raise InputValidationError(f"{name} must be symmetric (entry [i,j] == entry [j,i])")
    return a


def point_sums(stack: np.ndarray) -> np.ndarray:
    """``stack.sum(axis=1)`` of a (rows, n, d) stack, with the same bits.

    On a C-contiguous stack with d >= 2, numpy adds axis 1 in order, one
    point after the other, but its inner loop runs over the d entries of a
    point; ``np.cumsum`` adds in the same order and is about 2.5x faster at
    (16, 1000, 2). numpy's sum starts from +0.0, so ``+ 0.0`` turns the -0.0
    of an all -0.0 column into its +0.0 and changes no other value. At d = 1
    numpy sums pairwise, and other layouts set their own order, so ``sum``
    stays there. So does a stack over ``STACK_LIMIT`` values, where the
    (rows, n, d) cumsum would double the peak memory; every chunked caller
    stays under it.
    """
    if stack.shape[2] < 2 or stack.size > STACK_LIMIT or not stack.flags.c_contiguous:
        return stack.sum(axis=1)
    return np.cumsum(stack, axis=1)[:, -1] + 0.0


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


def _splitmix64(z: int) -> int:
    z = z & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngState:
    """Immutable (seed, stream) label for a Philox random stream.

    Identical states replay identical draw sequences. ``derive`` maps an
    integer index to a fresh, statistically independent stream, so callers
    can hand one state per trial (or per generation) to parallel work
    without any shared cursor.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for field_name, value in (("seed", self.seed), ("stream", self.stream)):
            if not 0 <= check_int(value, field_name) <= _MASK64:
                raise InputValidationError(f"{field_name} must fit in 64 unsigned bits")

    def derive(self, index: int) -> "RngState":
        """Return the ``index``-th child stream of this state."""
        if index < 0:
            raise InputValidationError("derive index must be nonnegative")
        mixed = _splitmix64(self.stream ^ _splitmix64((index + _SPLITMIX_GAMMA) & _MASK64))
        return RngState(self.seed, mixed)

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator positioned at the start of this stream.

        Its Philox key is ``(seed, stream)`` and its counter 0, the state
        ``Philox(key=...)`` builds, without the ``SeedSequence`` that call
        makes first and that draws entropy from the system.
        """
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_philox_key()(key)))


@functools.cache
def _philox_key() -> type:
    """The seed sequence class that hands Philox one given key.

    Philox asks its seed sequence for two 64-bit words, takes them as its
    key and keeps the sequence for its life, where ``Philox(key=...)`` keeps
    none; so the key is let go once read, and the class has no instance
    dict. It is a registered ``ISeedSequence``, not a subclass, which would
    bring a dict. It is built on first use, because naming ``numpy.random``
    when this module is imported would load it with every import.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey:
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            key, self.key = self.key, None
            return key

    ISeedSequence.register(PhiloxKey)
    return PhiloxKey


def as_generator(rng) -> np.random.Generator:
    """Accept an RngState or an already-open Generator and return a Generator."""
    if isinstance(rng, RngState):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InputValidationError(f"rng must be an RngState or numpy Generator, got {type(rng)!r}")


# ---------------------------------------------------------------------------
# Symmetric eigenproblems
# ---------------------------------------------------------------------------


def sym_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (validated), by ``np.linalg.eigh``.

    Returns ``(eigenvalues, eigenvectors)``: eigenvalues ascending,
    eigenvectors as orthonormal columns, so ``Q @ diag(w) @ Q.T``
    reconstructs ``m``. Each column is signed so that its largest-magnitude
    entry is positive, where entries within 8 ulps of the largest magnitude
    count as tied and the first of them wins; the sign LAPACK happens to
    return never reaches a caller, and neither does rounding noise between
    nearly equal entries (as in every 2-d PCA, whose eigenvectors sit at
    45 degrees).
    """
    values, vectors = np.linalg.eigh(as_symmetric_matrix(m))
    mags = np.abs(vectors)
    tied = mags >= mags.max(axis=0) * (1.0 - 8.0 * np.finfo(float).eps)
    pivots = np.argmax(tied, axis=0)
    signs = np.sign(vectors[pivots, np.arange(vectors.shape[1])])
    return values, vectors * signs

