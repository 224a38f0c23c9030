"""Exact dense linear algebra over any scalar field in the tower.

Gaussian elimination is fraction-full (everything already lives in a
field) with one tuning knob the whole package relies on: within the
current column, the pivot is the candidate entry whose representation is
smallest, as measured by the field's size() metric.  Over Q that is bit
length, over Q(theta) the total bit length of the coordinates, over a
function field a term-count/degree mix.  Choosing small pivots keeps
intermediate entries from snowballing during the deeper eliminations in
the flag and grading computations.

Everything downstream (Lie algebra construction, adjoint gradings,
Hodge-piece intersections, Jacobian ranks) reduces to rank / kernel /
solve calls on these matrices.

fraction_free_rref is the one exception: it works on rows of
polynomials, without a field and without the size metric, for the flag
charts and their checks, where every division by a rational function
would cost a polynomial gcd.

INPUT conventions: a matrix is rows of field elements; vectors are
tuples; kernel_basis returns right-kernel vectors v with M v = 0.
"""

from __future__ import annotations

from .polys import divexact


class ExactMatrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        # a zero-row matrix carries no width information in its rows
        self.ncols = len(self.rows[0]) if self.rows else (ncols or 0)
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        zero = field.zero()
        return cls(field, [[zero] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, field, columns, nrows=None):
        if not columns:
            return cls.zeros(field, nrows or 0, 0)
        nrows = len(columns[0])
        return cls(field, [[col[i] for col in columns] for i in range(nrows)])

    def columns(self):
        return [tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)]

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        return ExactMatrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix(self.field, [[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
            bcols = other.columns()
            return ExactMatrix(
                self.field,
                [
                    [_dot(self.field, row, col) for col in bcols]
                    for row in self.rows
                ],
            )
        c = self.field.coerce(other)
        return ExactMatrix(self.field, [[a * c for a in row] for row in self.rows])

    __rmul__ = __mul__

    def apply_vector(self, v):
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(_dot(self.field, row, v) for row in self.rows)

    def transpose(self):
        return ExactMatrix(self.field, list(zip(*self.rows)) if self.rows else [])

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return ExactMatrix(
            self.field, [ra + rb for ra, rb in zip(self.rows, other.rows)]
        )

    def map_entries(self, fn):
        return ExactMatrix(self.field, [[fn(a) for a in row] for row in self.rows])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def _compat(self, other):
        if self.shape != other.shape or self.field != other.field:
            raise ValueError("incompatible matrices")

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.shape))

    def is_zero(self) -> bool:
        return all(self.field.is_zero(a) for row in self.rows for a in row)

    def __repr__(self):
        return "[" + "; ".join(" ".join(str(a) for a in row) for row in self.rows) + "]"


def _dot(field, u, v):
    total = field.zero()
    for a, b in zip(u, v):
        if not (field.is_zero(a) or field.is_zero(b)):
            total = total + a * b
    return total


def _eliminate(field, rows, ncols, reduced: bool):
    """In-place Gaussian elimination on a list of row lists.

    Returns the list of pivot columns.  With reduced=True the result is
    the reduced row echelon form (pivots one, zeros above and below).
    """
    pivots = []
    r = 0
    for col in range(ncols):
        best = None
        best_size = None
        for i in range(r, len(rows)):
            entry = rows[i][col]
            if field.is_zero(entry):
                continue
            s = field.size(entry)
            if best is None or s < best_size:
                best, best_size = i, s
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        inv = field.one() / rows[r][col]
        rows[r] = [a * inv for a in rows[r]]
        span = range(len(rows)) if reduced else range(r + 1, len(rows))
        for i in span:
            if i == r:
                continue
            factor = rows[i][col]
            if field.is_zero(factor):
                continue
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def fraction_free_rref(rows, ncols) -> list:
    """In-place fraction-free Gauss-Jordan elimination (Bareiss) on a
    list of row lists of Poly; returns the list of pivot columns.

    Each step takes a nonzero pivot p in the next column (the one with
    the fewest terms) and replaces every entry a outside the pivot row
    by (p a - b c) / prev, with b the entry in a's row and the pivot
    column, c the entry in the pivot row and a's column, and prev the
    previous pivot (one before the first step).  Up to sign, once k
    pivots are taken, every entry of the pivot rows is a k-minor of the
    input on those rows, and every other entry is a (k+1)-minor on the
    pivot rows and its own row; the columns are the pivot columns with
    the entry's own column put in (in a pivot row, in place of the
    row's pivot column).  By Sylvester's identity, as in Bareiss (1968),
    every division is then exact, and divexact raises if one is not.
    So nothing leaves the polynomial ring, and no gcd runs.  At the end
    the rows past the rank are zero and every pivot row has the last
    pivot as its pivot entry: dividing by it gives the reduced row
    echelon form, whose entries are therefore Cramer ratios.
    """
    pivots = []
    prev = None
    r = 0
    for col in range(ncols):
        best = None
        for i in range(r, len(rows)):
            terms = rows[i][col].terms
            if terms and (best is None or len(terms) < len(rows[best][col].terms)):
                best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        pivot_row = rows[r]
        p = pivot_row[col]
        zero = p.ring.zero()
        for i, row in enumerate(rows):
            if i == r:
                continue
            factor = row[col]
            row[col] = zero
            for j in range(ncols):
                if j == col:
                    continue
                if i < r and j == pivots[i]:
                    row[j] = p  # p * prev / prev
                    continue
                a = row[j]
                c = pivot_row[j]
                if factor.terms and c.terms:
                    value = p * a - factor * c if a.terms else -(factor * c)
                elif a.terms:
                    value = p * a
                else:
                    continue
                row[j] = value if prev is None else divexact(value, prev)
        pivots.append(col)
        prev = p
        r += 1
        if r == len(rows):
            break
    return pivots


def rref(m: ExactMatrix):
    """Reduced row echelon form.  Returns (ExactMatrix, pivot column list)."""
    rows = [list(r) for r in m.rows]
    pivots = _eliminate(m.field, rows, m.ncols, reduced=True)
    return ExactMatrix(m.field, rows) if rows else m, pivots


def rank(m: ExactMatrix) -> int:
    rows = [list(r) for r in m.rows]
    return len(_eliminate(m.field, rows, m.ncols, reduced=False))


def kernel_basis(m: ExactMatrix):
    """Basis of the right kernel {v : M v = 0} as a list of tuples.

    Each free column contributes one basis vector: entry one in the free
    slot, minus the rref column above the pivots.
    """
    field = m.field
    if m.ncols == 0:
        return []
    if m.nrows == 0:
        return [
            tuple(field.one() if i == j else field.zero() for i in range(m.ncols))
            for j in range(m.ncols)
        ]
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [field.zero()] * m.ncols
        v[free] = field.one()
        for row_idx, pcol in enumerate(pivots):
            v[pcol] = -reduced.rows[row_idx][free]
        basis.append(tuple(v))
    return basis


def solve_right(a: ExactMatrix, b: ExactMatrix):
    """Solve A X = B for X, A square invertible; ValueError when singular."""
    if a.nrows != a.ncols:
        raise ValueError("solve_right needs a square matrix")
    if b.nrows != a.nrows:
        raise ValueError("right-hand side has the wrong height")
    aug = a.hstack(b)
    reduced, pivots = rref(aug)
    if pivots != list(range(a.ncols)):
        raise ValueError("matrix is singular")
    return ExactMatrix(a.field, [row[a.ncols:] for row in reduced.rows[: a.ncols]])


def inverse(a: ExactMatrix) -> ExactMatrix:
    return solve_right(a, ExactMatrix.identity(a.field, a.nrows))


def intersection_basis(a: ExactMatrix, b: ExactMatrix):
    """Basis of (column space of A) intersected with (column space of B).

    Kernel vectors of [A | B] split as (x, y) with A x = -B y, so A x runs
    through the intersection.  The returned vectors are independent: x
    determines the kernel vector once y is eliminated by rref structure,
    and we re-check independence by rank.
    """
    if a.nrows != b.nrows:
        raise ValueError("ambient dimension mismatch")
    if a.ncols == 0 or b.ncols == 0:
        return []
    field = a.field
    vectors = (a.apply_vector(v[: a.ncols]) for v in kernel_basis(a.hstack(b)))
    # Kernel vectors with x = 0 contribute zero; filter and keep a basis.
    nonzero = [v for v in vectors if any(not field.is_zero(c) for c in v)]
    if not nonzero:
        return []
    reduced, pivots = rref(ExactMatrix(field, nonzero))
    return list(reduced.rows[: len(pivots)])
