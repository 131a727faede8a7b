"""Exact matrix algebra over F and E.

Division-free characteristic polynomials (Berkowitz), valuation-aware
elimination with deterministic minimal-valuation pivoting, canonical
triangular bases of finitely generated O-modules, and the hermitian
congruence solver t(A)^sigma A = M.

All functions are pure; matrices are immutable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotSplit, PrecisionExhausted, SingularSystem
from .padic import INF, FieldConfig, PAdicScalar, QuadScalar, solve_norm_equation


class Matrix:
    """Dense immutable matrix with PAdicScalar or QuadScalar entries."""

    __slots__ = ("cfg", "rows", "cols", "entries", "kind")

    def __init__(self, cfg: FieldConfig, entries):
        self.cfg = cfg
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
        self.kind = "E" if any(
            isinstance(x, QuadScalar) for row in self.entries for x in row
        ) else "F"

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_rows(cfg: FieldConfig, rows, quad: bool = False) -> "Matrix":
        conv = (lambda v: v if isinstance(v, (PAdicScalar, QuadScalar)) else cfg.scalar(v))
        out = [[conv(v) for v in row] for row in rows]
        m = Matrix(cfg, out)
        return m.to_quad() if quad else m

    @staticmethod
    def identity(cfg: FieldConfig, n: int, quad: bool = False) -> "Matrix":
        one, zero = cfg.one(), cfg.zero()
        m = Matrix(cfg, [[one if i == j else zero for j in range(n)] for i in range(n)])
        return m.to_quad() if quad else m

    @staticmethod
    def zero(cfg: FieldConfig, rows: int, cols: int, quad: bool = False) -> "Matrix":
        z = cfg.quad(0, 0) if quad else cfg.zero()
        return Matrix(cfg, [[z] * cols for _ in range(rows)])

    @staticmethod
    def companion(cfg: FieldConfig, coeffs, quad: bool = False) -> "Matrix":
        """Companion matrix of t^m + c_{m-1} t^{m-1} + ... + c_0 with C e_k = e_{k+1}."""
        m = len(coeffs)
        cols = []
        for j in range(m - 1):
            cols.append([cfg.one() if i == j + 1 else cfg.zero() for i in range(m)])
        last = [-(c if isinstance(c, (PAdicScalar, QuadScalar)) else cfg.scalar(c)) for c in coeffs]
        cols.append(last)
        mat = Matrix(cfg, [[cols[j][i] for j in range(m)] for i in range(m)])
        return mat.to_quad() if quad else mat

    @staticmethod
    def hankel(cfg: FieldConfig, d, m: int) -> "Matrix":
        """The m x m Hankel matrix (d_{i+j}); needs d_0..d_{2m-2}."""
        return Matrix(cfg, [[d[i + j] for j in range(m)] for i in range(m)])

    def to_quad(self) -> "Matrix":
        if self.kind == "E":
            return self
        z = self.cfg.zero()
        return Matrix(self.cfg, [[QuadScalar(x, z) for x in row] for row in self.entries])

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return list(self.entries[i])

    def col(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix(self.cfg, [[self.entries[i][j] for j in col_idx] for i in row_idx])

    def block(self, r0, r1, c0, c1) -> "Matrix":
        return self.submatrix(range(r0, r1), range(c0, c1))

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other: "Matrix"):
        if self.kind == other.kind:
            return self, other
        return self.to_quad(), other.to_quad()

    def __add__(self, other):
        a, b = self._pair(other)
        return Matrix(a.cfg, [
            [a.entries[i][j] + b.entries[i][j] for j in range(a.cols)]
            for i in range(a.rows)
        ])

    def __sub__(self, other):
        a, b = self._pair(other)
        return Matrix(a.cfg, [
            [a.entries[i][j] - b.entries[i][j] for j in range(a.cols)]
            for i in range(a.rows)
        ])

    def __neg__(self):
        return Matrix(self.cfg, [[-x for x in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            a, b = self._pair(other)
            if a.cols != b.rows:
                raise ValueError("dimension mismatch")
            return Matrix(a.cfg, [
                [
                    _dot(a.entries[i], [b.entries[k][j] for k in range(b.rows)])
                    for j in range(b.cols)
                ]
                for i in range(a.rows)
            ])
        return Matrix(self.cfg, [[x * other for x in row] for row in self.entries])

    __rmul__ = __mul__

    def apply(self, vec):
        """Matrix times column vector (list of scalars)."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return [_dot(self.entries[i], vec) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cfg, [[self.entries[i][j] for i in range(self.rows)]
                                 for j in range(self.cols)])

    def sigma(self) -> "Matrix":
        return Matrix(self.cfg, [[x.sigma() for x in row] for row in self.entries])

    def sigma_transpose(self) -> "Matrix":
        return self.transpose().sigma()

    def is_hermitian(self, slack: int = 4) -> bool:
        if self.rows != self.cols:
            return False
        d = self.sigma_transpose() - self
        return all(
            x.is_zero_at_precision() or x.valuation_lower_bound() >= _ref_prec(x) - slack
            for row in d.entries for x in row
        )

    def is_integral(self) -> bool:
        return all(x.is_integral() for row in self.entries for x in row)

    def agrees(self, other: "Matrix", slack: int = 0) -> bool:
        a, b = self._pair(other)
        return all(
            a.entries[i][j].agrees(b.entries[i][j], slack)
            for i in range(a.rows) for j in range(a.cols)
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(x) for x in row) for row in self.entries
        )
        return f"Matrix[{body}]"


def _dot(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        term = x * y
        acc = term if acc is None else acc + term
    return acc


def _ref_prec(x) -> float:
    ap = x.abs_prec
    return x.cfg.D if ap is INF else min(ap, x.cfg.D)


# ----------------------------------------------------------------------
# characteristic polynomial (Berkowitz, division-free)


def charpoly(M: Matrix):
    """Monic characteristic polynomial of a square matrix.

    Returns ascending coefficients [c_0, ..., c_{n-1}, 1] of det(tI - M),
    computed without divisions so no precision is lost to p | k factors.
    """
    n = M.rows
    if n != M.cols:
        raise ValueError("charpoly of a non-square matrix")
    one = M.cfg.one() if M.kind == "F" else M.cfg.quad(1, 0)
    poly = [one]  # leading-first coefficients of the 0x0 charpoly
    for i in range(n - 1, -1, -1):
        a = M.entries[i][i]
        r = [M.entries[i][j] for j in range(i + 1, n)]
        c = [M.entries[j][i] for j in range(i + 1, n)]
        B_rows = [[M.entries[p][q] for q in range(i + 1, n)] for p in range(i + 1, n)]
        k = len(poly)  # current size + 1
        # Toeplitz column: t_0 = 1, t_1 = -a, t_{l} = -(r B^{l-2} c)
        t = [one, -a]
        w = list(c)
        for _ in range(k - 1):
            t.append(-_dot(r, w) if r else -M.cfg.zero() * one)
            w = [_dot(row, w) for row in B_rows] if B_rows else w
        new = []
        for idx in range(k + 1):
            acc = None
            for j in range(min(idx, k - 1) + 1):
                if idx - j < len(t):
                    term = t[idx - j] * poly[j]
                    acc = term if acc is None else acc + term
            new.append(acc)
        poly = new
    poly.reverse()  # ascending
    return poly


def charpoly_oracle(M: Matrix):
    """Cofactor-expansion det(tI - M) over polynomial lists (test oracle)."""
    n = M.rows
    cfg = M.cfg
    quad = M.kind == "E"
    zero = cfg.quad(0, 0) if quad else cfg.zero()
    one = cfg.quad(1, 0) if quad else cfg.one()

    def padd(p, q):
        out = []
        for i in range(max(len(p), len(q))):
            a = p[i] if i < len(p) else zero
            b = q[i] if i < len(q) else zero
            out.append(a + b)
        return out

    def pmul(p, q):
        out = [zero] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] = out[i + j] + x * y
        return out

    # entries of tI - M as linear polynomials
    P = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            diag = one if i == j else zero
            P[i][j] = [-(M.entries[i][j]), diag]

    def det(rows, cols):
        if len(rows) == 1:
            return P[rows[0]][cols[0]]
        acc = [zero]
        sign = 1
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = pmul(P[rows[0]][c], minor)
            if sign < 0:
                term = [-x for x in term]
            acc = padd(acc, term)
            sign = -sign
        return acc

    poly = det(list(range(n)), list(range(n)))
    while len(poly) < n + 1:
        poly.append(zero)
    return poly


# ----------------------------------------------------------------------
# elimination: val_det and linear solves


def _pivot_search(work, rows_left, cols_left):
    """Deterministic pivot: minimal valuation, ties by smallest row then column.

    Returns (i, j) or None when every remaining entry is exactly zero.
    Raises PrecisionExhausted when zero cannot be certified.
    """
    best = None
    fuzzy = False
    for i in rows_left:
        for j in cols_left:
            x = work[i][j]
            if x.is_exact_zero():
                continue
            if x.is_zero_at_precision():
                fuzzy = True
                continue
            v = x.valuation()
            if best is None or v < best[0]:
                best = (v, i, j)
    if best is not None:
        return best[1], best[2]
    if fuzzy:
        raise PrecisionExhausted("pivot search: submatrix is zero at precision only")
    return None


def val_det(M: Matrix):
    """Valuation of det(M); +inf when the determinant is exactly zero."""
    n = M.rows
    if n != M.cols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 0
    work = [list(row) for row in M.entries]
    rows_left = list(range(n))
    cols_left = list(range(n))
    total = 0
    while rows_left:
        piv = _pivot_search(work, rows_left, cols_left)
        if piv is None:
            return INF
        pi, pj = piv
        pivot = work[pi][pj]
        total += pivot.valuation()
        inv = pivot.inv()
        rows_left.remove(pi)
        cols_left.remove(pj)
        for i in rows_left:
            factor = work[i][pj] * inv
            if factor.is_exact_zero():
                continue
            for j in cols_left:
                work[i][j] = work[i][j] - factor * work[pi][j]
    return total


def solve_linear(A: Matrix, rhs):
    """x with A x = rhs (rhs a list or Matrix of columns)."""
    cols = rhs if isinstance(rhs, Matrix) else Matrix(A.cfg, [[v] for v in rhs])
    if A.kind == "E" or cols.kind == "E":
        A, cols = A.to_quad(), cols.to_quad()
    n = A.rows
    if n != A.cols or cols.rows != n:
        raise ValueError("dimension mismatch")
    work = [list(A.entries[i]) + list(cols.entries[i]) for i in range(n)]
    perm = []
    rows_left = list(range(n))
    cols_left = list(range(n))
    while rows_left:
        piv = _pivot_search(work, rows_left, cols_left)
        if piv is None:
            raise SingularSystem("exactly singular system")
        pi, pj = piv
        perm.append((pi, pj))
        inv = work[pi][pj].inv()
        rows_left.remove(pi)
        cols_left.remove(pj)
        for i in rows_left:
            factor = work[i][pj] * inv
            if factor.is_exact_zero():
                continue
            for j in range(len(work[i])):
                work[i][j] = work[i][j] - factor * work[pi][j]
    # back substitution in reverse pivot order
    sol = [[None] * cols.cols for _ in range(n)]
    for pi, pj in reversed(perm):
        inv = work[pi][pj].inv()
        for b in range(cols.cols):
            acc = work[pi][n + b]
            for (qi, qj) in perm:
                if sol[qj][b] is not None and qj != pj:
                    acc = acc - work[pi][qj] * sol[qj][b]
            sol[pj][b] = acc * inv
    if isinstance(rhs, Matrix):
        return Matrix(A.cfg, sol)
    return [sol[i][0] for i in range(n)]


def inverse(A: Matrix) -> Matrix:
    return solve_linear(A, Matrix.identity(A.cfg, A.rows, quad=(A.kind == "E")))


# ----------------------------------------------------------------------
# canonical triangular module bases over the local ring


def _unit_part_scalar(x):
    """x * p^-val as a scalar (the unit factor of x)."""
    cfg = x.cfg
    v = x.valuation()
    pv = PAdicScalar.exact(cfg, Fraction(cfg.p) ** (-v))
    return x * pv


def hnf_basis(columns, cfg: FieldConfig, quad: bool = False):
    """Canonical triangular basis of the O-module generated by the columns.

    Returns (matrix, pivot_rows): the matrix has one column per pivot row,
    column j has its topmost nonzero entry p^(k_j) on the diagonal row
    pivot_rows[j], entries above it vanish, and every entry below a pivot row
    i is digit-truncated modulo p^(k_i).  Two generating sets of the same
    module produce the identical (exact) matrix.  Full rank iff
    len(pivot_rows) == ambient dimension.
    """
    if not columns:
        raise ValueError("no generators")
    m = len(columns[0])
    promote = (lambda v: v if isinstance(v, (PAdicScalar, QuadScalar)) else cfg.scalar(v))
    cols = [[promote(x) for x in col] for col in columns]
    if quad:
        z = cfg.zero()
        cols = [[x if isinstance(x, QuadScalar) else QuadScalar(x, z) for x in col] for col in cols]
    exact_zero = (lambda: cfg.quad(0, 0)) if quad else (lambda: cfg.zero())

    fixed = []  # (pivot_row, column)
    active = cols
    for i in range(m):
        # pick pivot column: minimal valuation at row i, ties by column order
        best = None
        fuzzy = False
        for idx, col in enumerate(active):
            x = col[i]
            if x.is_exact_zero():
                continue
            if x.is_zero_at_precision():
                fuzzy = True
                continue
            v = x.valuation()
            if best is None or v < best[0]:
                best = (v, idx)
        if best is None:
            if fuzzy:
                raise PrecisionExhausted(f"rank undecidable at row {i}")
            continue  # no pivot in this row: lower-rank module
        v, idx = best
        col = active.pop(idx)
        # normalize: divide by the unit part, snap pivot to exact p^v
        unit = _unit_part_scalar(col[i])
        uinv = unit.inv()
        col = [x * uinv for x in col]
        col[i] = promote(Fraction(cfg.p) ** v) if not quad else QuadScalar(
            cfg.scalar(Fraction(cfg.p) ** v), cfg.zero())
        # eliminate row i from the remaining columns (difference is exactly zero)
        pinv = promote(Fraction(cfg.p) ** (-v)) if not quad else QuadScalar(
            cfg.scalar(Fraction(cfg.p) ** (-v)), cfg.zero())
        for other in active:
            if other[i].is_exact_zero():
                continue
            factor = other[i] * pinv
            for r in range(i + 1, m):
                other[r] = other[r] - factor * col[r]
            other[i] = exact_zero()
        fixed.append((i, col))

    # drop exhausted generators; remaining active columns must be zero
    for other in active:
        for x in other:
            if x.is_exact_zero():
                continue
            if x.is_zero_at_precision():
                raise PrecisionExhausted("dependent generator not certifiably zero")
            raise AssertionError("nonzero residual column after elimination")

    # reduce below-diagonal entries mod the pivot of their row, snapping exact
    pivot_rows = [i for i, _ in fixed]
    cols_fixed = [col for _, col in fixed]
    kexp = {}
    for i, col in fixed:
        kexp[i] = col[i].valuation() if not quad else col[i].a.valuation()
    for pos, (i, coli) in enumerate(fixed):
        pinv = Fraction(cfg.p) ** (-kexp[i])
        pinv_s = promote(pinv) if not quad else QuadScalar(cfg.scalar(pinv), cfg.zero())
        for qos in range(pos):
            colj = cols_fixed[qos]
            x = colj[i]
            if x.is_exact_zero():
                continue
            red = x.truncate_below(kexp[i])
            t = (x - red) * pinv_s
            for r in range(i, m):
                colj[r] = colj[r] - t * coli[r]
            colj[i] = red
    # final snap: truncate every entry to an exact value (entries below the
    # last pivot row of their column are already exact by the reductions)
    out = []
    for col in cols_fixed:
        snapped = []
        for r in range(m):
            x = col[r]
            if x.is_exact_zero() or x.is_exact:
                snapped.append(x)
            else:
                # can only happen for rows without pivots (lower-rank case)
                snapped.append(x.truncate_below(_entry_snap_bound(x)))
        out.append(snapped)
    mat = Matrix(cfg, [[out[j][i] for j in range(len(out))] for i in range(m)])
    return mat, pivot_rows


def _entry_snap_bound(x) -> int:
    ap = x.abs_prec
    if ap is INF:
        return x.cfg.D
    return int(ap)


# ----------------------------------------------------------------------
# hermitian congruence: t(A)^sigma A = M


def hermitian_split(M: Matrix) -> Matrix:
    """A with t(A)^sigma A = M, for nonsingular hermitian M of even val_det.

    Congruence-diagonalize (pulling minimal-valuation off-diagonal entries
    onto the diagonal with a trace move when needed), repair odd-valuation
    diagonal pairs using one norm equation per pair, then scale rows by norm
    solutions.  Raises NotSplit when val_det is odd.
    """
    cfg = M.cfg
    M = M.to_quad()
    m = M.rows
    if m != M.cols:
        raise ValueError("hermitian_split of a non-square matrix")
    vd = val_det(M)
    if vd is INF:
        raise NotSplit("singular hermitian matrix")
    if vd % 2 != 0:
        raise NotSplit(f"val(det) = {vd} is odd: form not congruent to identity")

    work = [list(row) for row in M.entries]
    # accumulated basis: basis[j] = coordinates of the j-th working basis
    # vector in the original basis; M = sigma-t(B^-1) D (B^-1) at the end.
    basis = Matrix.identity(cfg, m, quad=True)
    basis_cols = [basis.col(j) for j in range(m)]

    def h_apply_colop(j, i, t):
        """basis e_j += t * e_i, updating Gram (congruence)."""
        for r in range(m):
            basis_cols[j][r] = basis_cols[j][r] + t * basis_cols[i][r]
        # Gram update: col j += t * col i, then row j += sigma(t) * row i
        for r in range(m):
            work[r][j] = work[r][j] + work[r][i] * t
        ts = t.sigma()
        for c in range(m):
            work[j][c] = work[j][c] + ts * work[i][c]

    def h_swap(i, j):
        basis_cols[i], basis_cols[j] = basis_cols[j], basis_cols[i]
        for r in range(m):
            work[r][i], work[r][j] = work[r][j], work[r][i]
        work[i], work[j] = work[j], work[i]

    def val_or_none(x):
        if x.is_exact_zero() or x.is_zero_at_precision():
            return None
        return x.valuation()

    for k in range(m):
        # minimal valuation in the remaining block; prefer the diagonal
        best_diag = None
        best_off = None
        for i in range(k, m):
            v = val_or_none(work[i][i])
            if v is not None and (best_diag is None or v < best_diag[0]):
                best_diag = (v, i)
            for j in range(i + 1, m):
                v = val_or_none(work[i][j])
                if v is not None and (best_off is None or v < best_off[0]):
                    best_off = (v, i, j)
        if best_diag is None and best_off is None:
            raise NotSplit("form degenerate on remaining block")
        if best_off is not None and (best_diag is None or best_off[0] < best_diag[0]):
            # trace move: e_i += t e_j with t*M_ij = p^w makes M_ii of valuation w
            w, i, j = best_off
            t = QuadScalar(cfg.scalar(Fraction(cfg.p) ** w), cfg.zero()) / work[i][j]
            h_apply_colop(i, j, t)
            best_diag = (w, i)
        _, i = best_diag
        if i != k:
            h_swap(k, i)
        pivot = work[k][k]
        pinv = pivot.inv()
        for j in range(k + 1, m):
            x = work[k][j]
            if x.is_exact_zero():
                continue
            h_apply_colop(j, k, -(pinv * x))

    # diagonal now; pair up odd-valuation entries
    diag_idx = list(range(m))
    odd = [i for i in diag_idx if work[i][i].f_part().valuation() % 2 != 0]
    assert len(odd) % 2 == 0
    p = cfg.p
    for i, j in zip(odd[::2], odd[1::2]):
        # scale so both entries have valuation exactly 1
        for idx in (i, j):
            v = work[idx][idx].f_part().valuation()
            s = (v - 1) // 2
            sc = QuadScalar(cfg.scalar(Fraction(p) ** (-s)), cfg.zero())
            for r in range(m):
                basis_cols[idx][r] = basis_cols[idx][r] * sc
            work[idx][idx] = work[idx][idx] * sc * sc
        di = work[i][i].f_part()
        dj = work[j][j].f_part()
        # find x with N(x) = (p^2 - dj)/di: then the vector x e_i + e_j has
        # length p^2; substitute it for e_j and re-orthogonalize e_i
        target = (cfg.scalar(p * p) - dj) / di
        x = solve_norm_equation(target, cfg)
        h_apply_colop(j, i, x)
        pivot = work[j][j]
        pinv = pivot.inv()
        xcross = work[j][i]
        if not xcross.is_exact_zero():
            h_apply_colop(i, j, -(pinv * xcross))

    # all diagonal entries have even valuation now: scale by norm solutions
    scale = []
    for i in range(m):
        delta = work[i][i].f_part()
        nu = solve_norm_equation(delta, cfg)
        scale.append(nu)

    B = Matrix(cfg, [[basis_cols[j][r] for j in range(m)] for r in range(m)])
    Binv = inverse(B)
    # M = sigma-t(Binv) * D * Binv with D = diag(N(nu_i)); A := diag(nu_i) * Binv
    A_rows = []
    for i in range(m):
        A_rows.append([scale[i] * Binv.entries[i][j] for j in range(m)])
    return Matrix(cfg, A_rows)
