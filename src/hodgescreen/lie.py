"""Matrix Lie algebras over Q and adjoint actions of diagonal cocharacters.

An algebra is handed around as an explicit basis of N x N rational
matrices.  Construction re-verifies what the classical constructors
guarantee by design: the basis is linearly independent and closed under
the commutator.  Arbitrary user-supplied bases are accepted on the same
terms; nothing downstream assumes semisimplicity or a classical shape.

The classical families are built as kernel problems.  For a symmetric or
antisymmetric invertible form J,

    so(J) / sp(J) = { X : X^T J + J X = 0 }

is the kernel of an explicit N^2 x N^2 rational matrix; the similitude
versions gsp / go append the scalar matrices.  Default forms are the
antidiagonal ones (+1 antidiagonal for the orthogonal family, +1/-1 split
for the symplectic family), which make diagonal cocharacters with
mirror-symmetric weights land in the normalizer.

The adjoint action of diag(lambda), for an integer vector lambda, needs
no matrix products at all:
[diag(lambda), X]_{ij} = (lambda_i - lambda_j) X_{ij}, so gl_N splits
into weight spaces spanned by the E_ij sharing one difference
lambda_i - lambda_j.  Each bracket [diag(lambda), b_l] is reduced
against the echelon basis; one leaving a residual raises
NormalizationError, which is the precise meaning of "lambda is not a
cocharacter of this group".  Past that check the algebra splits along
the same weight spaces, and adjoint_of_diagonal counts dim g_k as the
pivots of weight k in the echelon basis that construction already keeps:
no matrix is built and no rank is taken.

Each basis element is stored once, as a sparse {(i, j): Fraction} matrix,
because classical bases have one or two nonzero entries per element:
closure checking, membership and the grading all run on that form.
The dense ExactMatrix view of a basis is built only when asked for.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import BracketClosureError, NormalizationError
from .fields import QQ, parse_integer, parse_rational
from .linalg import ExactMatrix, kernel_basis

CLASSICAL_KINDS = ("gl", "sl", "so", "sp", "gsp", "go", "diag_torus")


def _entries(element, n: int) -> dict:
    """One basis element as {(i, j): Fraction} inside n x n, zeros dropped."""
    if isinstance(element, dict):
        for i, j in element:
            if i not in range(n) or j not in range(n):
                raise ValueError(f"basis entry at {(i, j)} outside {n} x {n}")
        entries = ((key, parse_rational(v)) for key, v in element.items())
        return {key: v for key, v in entries if v}
    m = element if isinstance(element, ExactMatrix) else ExactMatrix(QQ, element)
    if m.shape != (n, n):
        raise ValueError(f"basis matrix of shape {m.shape} in ambient dimension {n}")
    return {(i, j): v for i, row in enumerate(m.rows) for j, v in enumerate(row) if v}


def _sparse_to_matrix(sp: dict, n: int) -> ExactMatrix:
    return ExactMatrix(QQ, [[sp.get((i, j), 0) for j in range(n)] for i in range(n)])


def _sparse_mul(a: dict, b_by_row: dict) -> dict:
    out = {}
    for (i, k), va in a.items():
        for j, vb in b_by_row.get(k, ()):
            key = (i, j)
            s = out.get(key, 0) + va * vb
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _rows_of(sp: dict) -> dict:
    by_row = {}
    for (i, j), v in sp.items():
        by_row.setdefault(i, []).append((j, v))
    return by_row


def bracket_matrices(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[a, b] = ab - ba for dense rational matrices."""
    return a * b - b * a


class _SpanReducer:
    """Incremental echelon form over Q for sparse matrix-shaped vectors:
    each row is 1 at its pivot, its least key, and zero at the pivots of
    the rows before it."""

    def __init__(self):
        self.rows = []  # (pivot_key, row_dict), insertion order

    def reduce(self, vec: dict) -> dict:
        """The residual of vec against the rows: empty exactly when vec
        lies in their span."""
        v = dict(vec)
        for pivot, row in self.rows:
            c = v.get(pivot)
            if not c:
                continue
            for key, rv in row.items():
                s = v.get(key, 0) - c * rv
                if s == 0:
                    v.pop(key, None)
                else:
                    v[key] = s
        return v

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; False when it already lies in it."""
        residual = self.reduce(vec)
        if not residual:
            return False
        pivot = min(residual)
        pv = residual[pivot]
        self.rows.append((pivot, {k: v / pv for k, v in residual.items()}))
        return True


class MatLieAlgebra:
    """A Lie algebra given by an explicit matrix basis over Q.

    The ambient dimension n is read with parse_integer (no float or
    bool) and must be positive.  A basis element is an n x n ExactMatrix
    over QQ, its rows, or a {(i, j): value} dict with every key inside
    n x n.  Every entry goes once through parse_rational, zeros are
    dropped, and only this sparse form is kept: `basis` builds dense
    ExactMatrix objects on each access.
    """

    def __init__(self, ambient_dim: int, basis, name: str = "user"):
        self.ambient_dim = parse_integer(ambient_dim)
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        self.name = name
        self._sparse = [_entries(b, self.ambient_dim) for b in basis]
        self._reducer = _SpanReducer()
        for idx, sp in enumerate(self._sparse):
            if not self._reducer.insert(sp):
                raise ValueError(f"basis is linearly dependent (element {idx})")
        self._verify_closure()

    @property
    def basis(self) -> tuple:
        return tuple(_sparse_to_matrix(sp, self.ambient_dim) for sp in self._sparse)

    @property
    def dim(self) -> int:
        return len(self._sparse)

    def _verify_closure(self):
        by_row = [_rows_of(sp) for sp in self._sparse]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                ab = _sparse_mul(self._sparse[j], by_row[i])  # b_j b_i
                ba = _sparse_mul(self._sparse[i], by_row[j])  # b_i b_j
                for key, v in ab.items():
                    s = ba.get(key, 0) - v
                    if s == 0:
                        ba.pop(key, None)
                    else:
                        ba[key] = s
                if not ba:
                    continue
                if self._reducer.reduce(ba):
                    raise BracketClosureError(i, j)

    def contains(self, m) -> bool:
        """Whether the matrix m (in any form a basis element takes) lies
        in the algebra."""
        return not self._reducer.reduce(_entries(m, self.ambient_dim))

    def __repr__(self):
        return f"MatLieAlgebra({self.name}, ambient={self.ambient_dim}, dim={self.dim})"


def _unit(i: int, j: int) -> dict:
    return {(i, j): Fraction(1)}


def _default_form(kind: str, n: int) -> ExactMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if kind in ("so", "go"):
            rows[i][n - 1 - i] = Fraction(1)
        else:
            rows[i][n - 1 - i] = Fraction(1) if i < n // 2 else Fraction(-1)
    return ExactMatrix(QQ, rows)


def _form_matrix(form, n: int) -> ExactMatrix:
    m = form if isinstance(form, ExactMatrix) else ExactMatrix(QQ, form)
    if m.shape != (n, n):
        raise ValueError(f"form must be {n} x {n}")
    return m


def make_classical(kind: str, n: int, form=None) -> MatLieAlgebra:
    """Construct a classical algebra inside gl_n.

    INPUT: kind in gl / sl / so / sp / gsp / go / diag_torus; ambient
    dimension n, an integer; optional bilinear form for the four
    form-preserving kinds (defaults to the antidiagonal ones).

    OUTPUT: the full solution space of the defining linear conditions,
    with scalars appended for the similitude kinds.
    """
    if kind not in CLASSICAL_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {CLASSICAL_KINDS}")
    n = parse_integer(n)
    if n < 1:
        raise ValueError("ambient dimension must be positive")
    if kind in ("gl", "sl", "diag_torus"):
        if form is not None:
            raise ValueError(f"kind {kind!r} does not take a form")
        if kind == "gl":
            basis = [_unit(i, j) for i in range(n) for j in range(n)]
        elif kind == "diag_torus":
            basis = [_unit(i, i) for i in range(n)]
        else:
            basis = [_unit(i, j) for i in range(n) for j in range(n) if i != j]
            for i in range(n - 1):
                basis.append({(i, i): Fraction(1), (n - 1, n - 1): Fraction(-1)})
        return MatLieAlgebra(n, basis, name=f"{kind}({n})")

    if kind in ("sp", "gsp") and n % 2 != 0 and form is None:
        raise ValueError("symplectic kinds need even ambient dimension")
    j = _form_matrix(form, n) if form is not None else _default_form(kind, n)
    jt = j.transpose()
    want_symmetric = kind in ("so", "go")
    if want_symmetric and jt != j:
        raise ValueError("orthogonal kinds need a symmetric form")
    if not want_symmetric and jt != -j:
        raise ValueError("symplectic kinds need an antisymmetric form")
    from .linalg import rank as _rank

    if _rank(j) != n:
        raise ValueError("form must be invertible")

    # X |-> X^T J + J X as an n^2 x n^2 matrix acting on flattened X.
    zero = Fraction(0)
    rows = [[zero] * (n * n) for _ in range(n * n)]
    for a in range(n):
        for b in range(n):
            col = a * n + b
            for jj in range(n):
                rows[b * n + jj][col] += j.rows[a][jj]  # (E_ba J)_{b, jj}
            for ii in range(n):
                rows[ii * n + b][col] += j.rows[ii][a]  # (J E_ab)_{ii, b}
    condition = ExactMatrix(QQ, rows)
    basis = [{divmod(pos, n): x for pos, x in enumerate(v) if x} for v in kernel_basis(condition)]
    if kind in ("gsp", "go"):
        basis.append({(i, i): Fraction(1) for i in range(n)})
    return MatLieAlgebra(n, basis, name=f"{kind}({n})")


def direct_sum(a: MatLieAlgebra, b: MatLieAlgebra) -> MatLieAlgebra:
    """Block-diagonal sum acting on the direct sum of the ambient spaces."""
    off = a.ambient_dim
    shifted = [{(i + off, j + off): v for (i, j), v in sp.items()} for sp in b._sparse]
    return MatLieAlgebra(off + b.ambient_dim, a._sparse + shifted, name=f"{a.name}+{b.name}")


def adjoint_of_diagonal(algebra: MatLieAlgebra, lam) -> dict:
    """Levels {k: dim g_k} of the algebra under ad(diag(lambda)), by k
    ascending, or NormalizationError when diag(lambda) does not normalize
    it.  The weights are read with parse_integer, so every k is an int.
    dim g_k counts the echelon pivots (i, j) with
    lambda_i - lambda_j = k:
    - Each reducer row's pivot is its least key, and each row is zero at
      the pivots of the rows inserted before it.  So the pivots are
      distinct, a nonzero combination of rows has as least key the least
      pivot taking part, and the pivot set is the set of least keys of
      the span's nonzero elements.
    - A normalized algebra is the direct sum of its intersections g_k
      with the weight spaces.  These have disjoint supports, so the least
      keys split by weight, and weight k holds dim g_k of them.
    """
    weights = tuple(parse_integer(x) for x in lam)
    if len(weights) != algebra.ambient_dim:
        raise ValueError(
            f"lambda has length {len(weights)}, ambient dimension is {algebra.ambient_dim}"
        )
    for idx, sp in enumerate(algebra._sparse):
        bracket = {}
        for (i, j), v in sp.items():
            w = weights[i] - weights[j]
            if w != 0:
                bracket[(i, j)] = w * v
        if algebra._reducer.reduce(bracket):
            raise NormalizationError(idx)
    levels = Counter(weights[i] - weights[j] for (i, j), _ in algebra._reducer.rows)
    return dict(sorted(levels.items()))
