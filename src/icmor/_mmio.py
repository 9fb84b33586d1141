"""Minimal Matrix Market reader/writer.

Accepts the ASCII ``array`` and ``coordinate`` formats (real or integer,
general or symmetric).  A hand-rolled parser is used instead of
``scipy.io.mmread`` so that malformed files can be reported with a line
number.
"""

import numpy as np

from .errors import ParseError

__all__ = ["read_matrix", "write_matrix"]


def read_matrix(path):
    """Read a Matrix Market file into a dense ndarray."""
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", path=path, line=1)

    header = lines[0].strip().split()
    if len(header) < 4 or header[0].lower() != "%%matrixmarket" or header[1].lower() != "matrix":
        raise ParseError("missing %%MatrixMarket matrix header", path=path, line=1)
    fmt = header[2].lower()
    field = header[3].lower()
    symmetry = header[4].lower() if len(header) > 4 else "general"
    if fmt not in ("array", "coordinate"):
        raise ParseError(f"unsupported format '{fmt}'", path=path, line=1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field '{field}'", path=path, line=1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry '{symmetry}'", path=path, line=1)

    # Skip comments and blank lines, keeping track of line numbers.
    body = [
        (i + 1, ln.strip())
        for i, ln in enumerate(lines[1:], start=1)
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise ParseError("missing size line", path=path, line=len(lines))

    size_line_no, size_line = body[0]
    sizes = size_line.split()
    entries = body[1:]
    try:
        dims = [int(s) for s in sizes]
    except ValueError:
        raise ParseError(f"bad size line '{size_line}'", path=path, line=size_line_no)
    if min(dims) < 0:
        raise ParseError(f"negative size in '{size_line}'", path=path, line=size_line_no)
    if symmetry == "symmetric" and len(dims) > 1 and dims[0] != dims[1]:
        raise ParseError(f"symmetric matrix is not square: '{size_line}'",
                         path=path, line=size_line_no)

    if fmt == "array":
        if len(dims) != 2:
            raise ParseError("array size line needs 'rows cols'", path=path, line=size_line_no)
        rows, cols = dims
        vals = []
        for line_no, ln in entries:
            for tok in ln.split():
                try:
                    vals.append(float(tok))
                except ValueError:
                    raise ParseError(f"bad value '{tok}'", path=path, line=line_no)
        if symmetry == "general":
            expected = rows * cols
        else:
            expected = rows * (rows + 1) // 2
        if len(vals) != expected:
            raise ParseError(
                f"expected {expected} values, found {len(vals)}",
                path=path, line=entries[-1][0] if entries else size_line_no,
            )
        M = np.zeros((rows, cols))
        k = 0
        # Column-major order per the Matrix Market convention.
        for j in range(cols):
            i0 = j if symmetry == "symmetric" else 0
            for i in range(i0, rows):
                M[i, j] = vals[k]
                k += 1
        if symmetry == "symmetric":
            M = M + np.tril(M, -1).T
        return M

    # coordinate
    if len(dims) != 3:
        raise ParseError("coordinate size line needs 'rows cols nnz'", path=path, line=size_line_no)
    rows, cols, nnz = dims
    if len(entries) != nnz:
        raise ParseError(
            f"expected {nnz} entries, found {len(entries)}",
            path=path, line=entries[-1][0] if entries else size_line_no,
        )
    M = np.zeros((rows, cols))
    for line_no, ln in entries:
        toks = ln.split()
        if len(toks) != 3:
            raise ParseError(f"expected 'i j value', got '{ln}'", path=path, line=line_no)
        try:
            i, j, v = int(toks[0]), int(toks[1]), float(toks[2])
        except ValueError:
            raise ParseError(f"bad entry '{ln}'", path=path, line=line_no)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParseError(f"index ({i},{j}) out of bounds", path=path, line=line_no)
        M[i - 1, j - 1] = v
        if symmetry == "symmetric" and i != j:
            M[j - 1, i - 1] = v
    return M


def write_matrix(path, M):
    """Write a dense matrix in Matrix Market 'array real general' format."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for j in range(M.shape[1]):
            for i in range(M.shape[0]):
                fh.write(f"{M[i, j]:.17g}\n")
