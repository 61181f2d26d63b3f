"""Dense linear algebra over GF(2^m).

Provides the handful of matrix primitives the coding layer needs:
multiplication, Gauss-Jordan reduction, rank, inversion, solving, and
null-space computation.  Matrices are plain numpy arrays of field-element
integers; every function takes the field as an explicit first argument
(explicit is better than implicit — and it keeps the arrays cheap).

These routines are exact: there is no floating point anywhere, so rank
decisions are never numerically ambiguous.  That exactness is what lets
the test-suite *certify* minimum distances by enumerating erasure
patterns.
"""

from __future__ import annotations

import numpy as np

from .field import GF

__all__ = [
    "gf_matmul",
    "gf_matmul_batch",
    "gf_mat_vec",
    "gf_identity",
    "gf_independent_columns",
    "gf_rref",
    "gf_rank",
    "gf_inv",
    "gf_solve",
    "gf_null_space",
    "gf_vandermonde",
]


def _as_matrix(field: GF, a) -> np.ndarray:
    arr = np.asarray(a, dtype=field.dtype)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def gf_identity(field: GF, n: int) -> np.ndarray:
    """The n x n identity matrix over the field."""
    return np.eye(n, dtype=field.dtype)


def gf_matmul(field: GF, a, b) -> np.ndarray:
    """Matrix product over GF(2^m).

    Implemented as a sum (XOR) of scaled rows — one vectorised pass per
    inner index, which is fast for the small-k by large-payload products
    that dominate encoding.
    """
    a = _as_matrix(field, a)
    b = _as_matrix(field, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=field.dtype)
    # Loops cover the (rows, k) code dimensions only; each addmul is one
    # vectorized pass over the full payload width.
    for i in range(a.shape[0]):  # reprolint: disable=RL002
        acc = out[i]
        row = a[i]
        for k in range(a.shape[1]):  # reprolint: disable=RL002
            field.addmul(acc, row[k], b[k])
    return out


def gf_matmul_batch(field: GF, a, batch) -> np.ndarray:
    """Multiply one matrix against a whole batch of stripes at once.

    ``a`` is ``(r, k)``; ``batch`` is ``(stripes, k, width)`` — one
    ``(k, width)`` payload per stripe.  Returns ``(stripes, r, width)``
    with ``out[s] = a @ batch[s]`` over the field.

    The contraction loops only over the k inner coefficients; each step
    is a single table gather across every stripe and byte simultaneously
    (full product table for m <= 8, split log/antilog tables above), so
    the per-stripe Python overhead of repeated :func:`gf_matmul` calls
    disappears.  This is the kernel under the codec engine's
    ``encode_stripes``/``reconstruct`` batched APIs.
    """
    a = _as_matrix(field, a)
    batch = np.asarray(batch, dtype=field.dtype)
    if batch.ndim != 3:
        raise ValueError(f"expected a (stripes, k, width) batch, got {batch.shape}")
    stripes, k, width = batch.shape
    if a.shape[1] != k:
        raise ValueError(f"shape mismatch: {a.shape} x {batch.shape}")
    rows = a.shape[0]
    if 0 in (stripes, rows, width, k):
        return np.zeros((stripes, rows, width), dtype=field.dtype)
    # Work on flattened (stripes * width) symbol planes: 1-D contiguous
    # gathers are the fastest thing numpy's fancy indexing does, and the
    # intp index conversion is paid once per input plane, not once per
    # (row, plane) product.
    flat = np.ascontiguousarray(batch.transpose(1, 0, 2)).reshape(k, -1)
    out = np.zeros((rows, stripes * width), dtype=field.dtype)
    table = field.mul_table
    # (k, rows) are code dimensions; every operation below acts on a
    # whole (stripes * width) symbol plane at once.
    for j in range(k):  # reprolint: disable=RL002
        plane = flat[j]
        column = a[:, j]
        index = None  # computed lazily, shared by every row needing it
        log_plane = None
        zero_mask = None
        for i in range(rows):  # reprolint: disable=RL002
            coeff = int(column[i])
            if coeff == 0:
                continue
            if coeff == 1:  # identity columns and XOR parities: plain xor
                out[i] ^= plane
            elif table is not None:
                if index is None:
                    index = plane.astype(np.intp)
                out[i] ^= table[coeff][index]
            else:  # m > 8: no full product table, use the split tables
                if log_plane is None:
                    log_plane = field._log[plane]
                    zero_mask = plane == 0
                scaled = field._exp[log_plane + field._log[coeff]]
                scaled[zero_mask] = 0
                out[i] ^= scaled
    return np.ascontiguousarray(
        out.reshape(rows, stripes, width).transpose(1, 0, 2)
    )


def gf_mat_vec(field: GF, a, v) -> np.ndarray:
    """Matrix-vector product over GF(2^m)."""
    v = np.asarray(v, dtype=field.dtype)
    if v.ndim != 1:
        raise ValueError("expected a 1-D vector")
    return gf_matmul(field, a, v.reshape(-1, 1)).reshape(-1)


def gf_rref(field: GF, a) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form.

    Returns ``(rref_matrix, pivot_columns)``.  Pivoting simply takes the
    first non-zero entry in the column — over an exact field any non-zero
    pivot is as good as any other.
    """
    mat = _as_matrix(field, a).copy()
    rows, cols = mat.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if mat[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[[r, pivot_row]] = mat[[pivot_row, r]]
        inv_pivot = field.inv(mat[r, c])
        mat[r] = field.mul(mat[r], inv_pivot)
        for i in range(rows):
            if i != r and mat[i, c] != 0:
                field.addmul(mat[i], mat[i, c], mat[r])
        pivots.append(c)
        r += 1
    return mat, pivots


def gf_rank(field: GF, a) -> int:
    """Rank of a matrix over GF(2^m)."""
    _, pivots = gf_rref(field, a)
    return len(pivots)


def gf_independent_columns(
    field: GF, a, candidates, target_rank: int | None = None
) -> list[int]:
    """Greedy prefix of ``candidates`` whose columns are independent.

    Scans the candidate column indices in order, accepting each column
    that increases the rank of the accepted set — the same selection the
    decoders' greedy survivor choice makes — but runs *one* incremental
    Gaussian elimination across the whole scan: each candidate is reduced
    against the current echelon basis (O(rank) axpys) instead of
    recomputing the rank of the accepted set from scratch per candidate.
    Stops early once ``target_rank`` columns are accepted (defaults to
    the row count, i.e. full rank).
    """
    a = _as_matrix(field, a)
    if target_rank is None:
        target_rank = a.shape[0]
    chosen: list[int] = []
    basis: list[tuple[int, np.ndarray]] = []  # (pivot row, normalised column)
    for idx in candidates:
        vector = a[:, idx].copy()
        for pivot, reduced in basis:
            coeff = vector[pivot]
            if coeff:
                field.addmul(vector, coeff, reduced)
        nonzero = np.flatnonzero(vector)
        if nonzero.size == 0:
            continue  # dependent on the accepted columns
        pivot = int(nonzero[0])
        vector = np.asarray(
            field.mul(vector, field.inv(vector[pivot])), dtype=field.dtype
        )
        basis.append((pivot, vector))
        chosen.append(int(idx))
        if len(chosen) == target_rank:
            break
    return chosen


def gf_inv(field: GF, a) -> np.ndarray:
    """Inverse of a square matrix; raises ValueError if singular."""
    mat = _as_matrix(field, a)
    n, m = mat.shape
    if n != m:
        raise ValueError(f"cannot invert non-square matrix of shape {mat.shape}")
    augmented = np.concatenate([mat, gf_identity(field, n)], axis=1)
    reduced, pivots = gf_rref(field, augmented)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over GF(2^m)")
    return reduced[:, n:]


def gf_solve(field: GF, a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for square non-singular ``a``.

    ``b`` may be a vector or a matrix of stacked right-hand sides (the
    common case when decoding: one column per payload byte position).
    """
    b_arr = np.asarray(b, dtype=field.dtype)
    vector_rhs = b_arr.ndim == 1
    if vector_rhs:
        b_arr = b_arr.reshape(-1, 1)
    x = gf_matmul(field, gf_inv(field, a), b_arr)
    return x.reshape(-1) if vector_rhs else x


def gf_null_space(field: GF, a) -> np.ndarray:
    """Basis for the right null space, rows = basis vectors.

    Used to derive a generator matrix from a parity-check matrix: the code
    C = {x : H xᵀ = 0} is exactly the null space of H.
    """
    mat = _as_matrix(field, a)
    rows, cols = mat.shape
    reduced, pivots = gf_rref(field, mat)
    free_cols = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free_cols), cols), dtype=field.dtype)
    for idx, free in enumerate(free_cols):
        basis[idx, free] = 1
        for row, pivot in enumerate(pivots):
            # x_pivot = -sum(coeff * x_free); minus is plus in char 2.
            basis[idx, pivot] = reduced[row, free]
    return basis


def gf_vandermonde(field: GF, rows: int, points) -> np.ndarray:
    """Vandermonde matrix V[i, j] = points[j] ** i over the field.

    With distinct non-zero evaluation points every square submatrix formed
    by choosing ``rows`` columns is invertible — the property that makes
    Reed-Solomon codes MDS (Appendix D of the paper).
    """
    points = [int(p) for p in points]
    if len(set(points)) != len(points):
        raise ValueError("Vandermonde evaluation points must be distinct")
    out = np.zeros((rows, len(points)), dtype=field.dtype)
    for j, p in enumerate(points):
        value = 1
        for i in range(rows):
            out[i, j] = value
            value = int(field.mul(value, p))
    return out
