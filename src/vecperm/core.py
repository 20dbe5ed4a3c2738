"""Tensor layouts, permutation maps and the reference permutation.

Conventions: dimension 0 is the innermost (stride-1) dimension everywhere.
A map ``sigma`` sends destination position ``j`` to source dimension
``sigma[j]``, so the new innermost dimension of the output is source
dimension ``sigma[0]``.  NumPy's ``transpose`` axes live in the opposite
(outer-to-inner) world; converters are provided for that boundary, and the
reference permutation (``naive_permute``) is ``np.transpose`` through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LayoutError",
    "TensorLayout",
    "PermutationMap",
    "compute_strides",
    "permuted_layout",
    "to_numpy_convention",
    "from_numpy_convention",
    "naive_permute",
    "dtype_for_width",
    "random_elements",
]

SUPPORTED_ELEM_WIDTHS = (4, 8)


class LayoutError(ValueError):
    """Raised for malformed layouts, maps or mismatched buffers."""


def dtype_for_width(elem_width: int) -> np.dtype:
    if elem_width == 4:
        return np.dtype("<u4")
    if elem_width == 8:
        return np.dtype("<u8")
    raise LayoutError(f"unsupported element width {elem_width}, expected one of {SUPPORTED_ELEM_WIDTHS}")


def compute_strides(dims: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Dense strides in elements for dims given innermost-first."""
    if len(dims) == 0:
        raise LayoutError("a layout needs at least one dimension")
    strides = [1]
    for d in dims[:-1]:
        if d < 1:
            raise LayoutError(f"dimension {d} is not positive")
        strides.append(strides[-1] * d)
    if dims[-1] < 1:
        raise LayoutError(f"dimension {dims[-1]} is not positive")
    return tuple(strides)


@dataclass(frozen=True)
class TensorLayout:
    """Dense row-major layout; ``dims[0]`` is the stride-1 dimension."""

    dims: tuple[int, ...]
    elem_width: int = 4
    strides: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.elem_width not in SUPPORTED_ELEM_WIDTHS:
            raise LayoutError(f"element width must be one of {SUPPORTED_ELEM_WIDTHS}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "strides", compute_strides(self.dims))

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def dtype(self) -> np.dtype:
        return dtype_for_width(self.elem_width)

    def shape_outer_first(self) -> tuple[int, ...]:
        return tuple(reversed(self.dims))


@dataclass(frozen=True)
class PermutationMap:
    """Bijection over dimension numbers; ``sigma[0]`` picks the new innermost."""

    sigma: tuple[int, ...]

    def __post_init__(self):
        sig = tuple(int(s) for s in self.sigma)
        object.__setattr__(self, "sigma", sig)
        if sorted(sig) != list(range(len(sig))):
            raise LayoutError(f"map {sig} is not a bijection on 0..{len(sig) - 1}")

    @property
    def rank(self) -> int:
        return len(self.sigma)

    def dest_position(self, dim: int) -> int:
        """Position dimension ``dim`` occupies in the output tensor."""
        return self.sigma.index(dim)


def permuted_layout(layout: TensorLayout, pmap: PermutationMap) -> TensorLayout:
    """Layout of the output tensor: output dim ``j`` is input dim ``sigma[j]``."""
    if pmap.rank != layout.rank:
        raise LayoutError(f"map rank {pmap.rank} does not match layout rank {layout.rank}")
    return TensorLayout(tuple(layout.dims[s] for s in pmap.sigma), layout.elem_width)


def to_numpy_convention(pmap: PermutationMap) -> tuple[int, ...]:
    """Axes for ``np.transpose`` realizing the same element bijection.

    Output axis ``i`` (outer-to-inner) reads input axis ``(n-1) - sigma[n-1-i]``.
    """
    n = pmap.rank
    return tuple((n - 1) - s for s in reversed(pmap.sigma))


def from_numpy_convention(axes: tuple[int, ...] | list[int]) -> PermutationMap:
    n = len(axes)
    sigma = [0] * n
    for i, a in enumerate(axes):
        sigma[(n - 1) - i] = (n - 1) - int(a)
    return PermutationMap(tuple(sigma))


def naive_permute(
    buf: np.ndarray | bytes, layout: TensorLayout, pmap: PermutationMap
) -> np.ndarray:
    """Reference out-of-place permutation: NumPy's transpose of ``buf``.

    ``buf`` is viewed in ``layout``'s outer-first shape and transposed by
    ``to_numpy_convention(pmap)``.  The result is always a fresh C-order
    1-D array in ``layout.dtype``, even for the identity map, so a caller
    may write into it.  Pure data movement on fixed-width words, no numeric
    interpretation.
    """
    data = np.frombuffer(buf, dtype=layout.dtype) if isinstance(buf, (bytes, bytearray)) else np.asarray(buf, dtype=layout.dtype)
    n = layout.num_elements
    if data.size != n:
        raise LayoutError(f"buffer holds {data.size} elements, layout expects {n}")
    permuted_layout(layout, pmap)  # a rank mismatch raises LayoutError, not NumPy's ValueError
    return np.transpose(data.reshape(layout.shape_outer_first()), to_numpy_convention(pmap)).flatten()


def random_elements(
    rng: np.random.Generator,
    layout: TensorLayout,
    high_rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Random elements over the full width of ``layout.dtype``.

    The low word is the 32-bit draw from ``rng`` that 4-byte data has always
    used, so 4-byte data for a seed is unchanged.  8-byte elements take
    their high word from ``high_rng`` (``rng`` when not given), which lets a
    caller add high words without moving ``rng``'s later draws.
    """
    n = layout.num_elements
    low = rng.integers(0, 2**32 - 1, size=n, dtype=np.uint32)
    if layout.elem_width == 4:
        return low
    high = (rng if high_rng is None else high_rng).integers(0, 2**32, size=n, dtype=np.uint64)
    return (high << np.uint64(32)) | low
