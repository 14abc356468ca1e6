"""Scalar and matrix-valued linear fractional transformations (LFTs).

A parameter-dependent matrix G(p) is stored as a constant coefficient
matrix M = [[A, B], [C, D]] in feedback with a diagonal block of
normalized parameters Delta = diag(delta_1 I, delta_2 I, ...):

    G = A + B Delta (I - D Delta)^-1 C

Each physical parameter p is mapped internally to delta in [-1, 1] via
p = center + spread * delta with center = (lower + upper) / 2 and
spread = (upper - lower) / 2.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "Param",
    "HalfTanParam",
    "Expr",
    "Const",
    "Ref",
    "LftMatrix",
    "LftError",
    "WellPosednessError",
    "EvaluationError",
    "as_expr",
    "lift_scalar",
    "lift_matrix",
    "constant",
    "eye",
    "zeros",
    "hstack",
    "vstack",
    "block",
    "blockdiag",
    "rotation_lft_half",
    "rotation_lft_quarter",
    "rotation_about_axis",
    "reduce_lft",
]

KINDS = ("uncertain", "varying", "design")

# Largest admitted 1-norm condition number of the balanced I - D Delta.
_COND_LIMIT = 1e13
# Points per batched solve of ``LftMatrix.evaluate``: it bounds the stacked
# arrays (points x channels x (cols + channels)) whatever the grid size.
EVAL_BLOCK = 64
# Slack of the out-of-bounds test, in the parameter's own units.
_BOUNDS_TOL = 1e-9
# Cap on the sweeps of the channel balancing (it converges in a few).
_BALANCE_SWEEPS = 50


class LftError(Exception):
    pass


class WellPosednessError(LftError):
    pass


class EvaluationError(LftError):
    """An LFT, or the nonlinear model, cannot be evaluated at a point;
    ``index`` is the point's position in the sequence given to
    ``LftMatrix.evaluate`` or ``sample_model`` (0 for a single point)."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# Parameters and rational expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A named scalar parameter with nominal value and bounds."""

    name: str
    nominal: float
    lower: float
    upper: float
    kind: str = "uncertain"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        if not (self.lower <= self.nominal <= self.upper):
            raise ValueError(
                f"parameter {self.name!r}: need lower <= nominal <= upper, "
                f"got {self.lower}, {self.nominal}, {self.upper}"
            )

    @property
    def center(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def spread(self) -> float:
        return 0.5 * (self.upper - self.lower)

    def normalize(self, value: float) -> float:
        if self.spread == 0.0:
            return 0.0
        return (value - self.center) / self.spread


@dataclass(frozen=True)
class HalfTanParam:
    """A tangent-substitution angle parameter.

    ``param`` holds t = tan(theta/2) for variant "half" or
    t' = tan(theta/4) for variant "quarter"; the substitution makes
    rotation matrices rational in the parameter.
    """

    base_angle_name: str
    param: Param
    variant: str = "half"

    def __post_init__(self):
        if self.variant not in ("half", "quarter"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "quarter" and not (
            -1.0 < self.param.lower and self.param.upper < 1.0
        ):
            raise ValueError(
                "quarter-angle parameter must have range inside (-1, 1)"
            )

    @classmethod
    def from_angle(
        cls,
        name: str,
        nominal: float,
        lower: float,
        upper: float,
        kind: str = "varying",
        variant: str = "half",
    ) -> "HalfTanParam":
        """Build from an angle range in radians."""
        div = 2.0 if variant == "half" else 4.0
        p = Param(
            f"t_{name}",
            float(np.tan(nominal / div)),
            float(np.tan(lower / div)),
            float(np.tan(upper / div)),
            kind,
        )
        return cls(name, p, variant)

    def angle_of(self, t_value: float) -> float:
        div = 2.0 if self.variant == "half" else 4.0
        return div * float(np.arctan(t_value))

    @property
    def angle_nominal(self) -> float:
        return self.angle_of(self.param.nominal)


class Expr:
    """Rational expression over parameters: {+, -, *, /, integer powers}."""

    def __add__(self, other):
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other):
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other):
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other):
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other):
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other):
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other):
        return BinOp("/", as_expr(other), self)

    def __neg__(self):
        return BinOp("-", Const(0.0), self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("only integer powers are allowed in LFT expressions")
        return PowOp(self, n)

    def value(self, point: Mapping[str, float]) -> float:
        raise NotImplementedError

    def params(self) -> list[Param]:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    v: float

    def value(self, point):
        return float(self.v)

    def params(self):
        return []

    def __repr__(self):
        return repr(self.v)


@dataclass(frozen=True)
class Ref(Expr):
    p: Param

    def value(self, point):
        return float(point[self.p.name])

    def params(self):
        return [self.p]

    def __repr__(self):
        return self.p.name


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    a: Expr
    b: Expr

    def value(self, point):
        x, y = self.a.value(point), self.b.value(point)
        if self.op == "+":
            return x + y
        if self.op == "-":
            return x - y
        if self.op == "*":
            return x * y
        return x / y

    def params(self):
        seen, out = set(), []
        for p in self.a.params() + self.b.params():
            if p.name not in seen:
                seen.add(p.name)
                out.append(p)
        return out

    def __repr__(self):
        return f"({self.a!r} {self.op} {self.b!r})"


@dataclass(frozen=True)
class PowOp(Expr):
    a: Expr
    n: int

    def value(self, point):
        return self.a.value(point) ** self.n

    def params(self):
        return self.a.params()

    def __repr__(self):
        return f"({self.a!r})**{self.n}"


Scalar = Union[float, int, Param, Expr]
_NUMBERS = (int, float, np.floating, np.integer)


def as_expr(x: Scalar) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, Param):
        return Ref(x)
    if isinstance(x, _NUMBERS):
        return Const(float(x))
    raise TypeError(f"cannot interpret {x!r} as a rational expression")


# ---------------------------------------------------------------------------
# LFT matrices
# ---------------------------------------------------------------------------


def _solve_with_cond(
    dm: np.ndarray, rhs: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solutions and 1-norm condition numbers of the stacked I - D Delta_k.

    ``deltas`` holds one row of normalized channel values per point and
    ``rhs`` is [C, I]: one batched LU solve gives each point's
    (I - D Delta_k)^-1 C and, from the appended identity, its inverse, so
    the condition number is exact, not estimated.  An exactly singular
    I - D Delta_k reports an infinite condition number and a NaN solution.
    """
    n = dm.shape[0]
    lhs = dm * deltas[:, None, :]
    np.subtract(np.eye(n), lhs, out=lhs)
    singular = []
    try:
        # rhs[None]: a stack of one matrix, as numpy 1.x and 2.x both read
        # it (numpy 1.x would take a 2-D b beside a 3-D a as vectors)
        x = np.linalg.solve(lhs, rhs[None])
    except np.linalg.LinAlgError:
        # one singular point fails the whole stack: solve point by point
        x = np.full((len(lhs),) + rhs.shape, np.nan)
        for k in range(len(lhs)):
            try:
                x[k] = np.linalg.solve(lhs[k], rhs)
            except np.linalg.LinAlgError:
                singular.append(k)
    inv = x[..., -n:]
    cond = (
        np.abs(lhs, out=lhs).sum(axis=-2).max(axis=-1)
        * np.abs(inv, out=inv).sum(axis=-2).max(axis=-1)
    )
    cond[singular] = math.inf
    return x[..., :-n], cond


def _channel_scales(m: "LftMatrix") -> np.ndarray:
    """Power-of-two channel scales s that balance the LFT (Osborne).

    Balances the graph whose nodes are the Delta channels plus one node
    for the external ports: channel i reaches channel j through D[j, i],
    enters the output through column i of B and is fed by row i of C.
    Scaling z_i and w_i by 1/s_i multiplies column i of B and D by s_i
    and divides row i of C and D by s_i, which leaves G unchanged.  Each
    step scales one node by the power of two that best equalizes the
    2-norms of its in- and out-couplings, as LAPACK's ``gebal`` does, and
    is kept only if it shrinks their sum by 5 %.
    """
    d = m.ndelta
    w = np.zeros((d + 1, d + 1))  # squared couplings, node d = ports
    w[:d, :d] = m.d**2
    np.fill_diagonal(w, 0.0)
    w[:d, d] = (m.c**2).sum(axis=1)
    w[d, :d] = (m.b**2).sum(axis=0)
    log2s = np.zeros(d + 1)
    for _ in range(_BALANCE_SWEEPS):
        col, row = w.sum(axis=0), w.sum(axis=1)
        moved = False
        for i in range(d + 1):
            # Python floats: arithmetic on numpy scalars costs more
            c, r = col.item(i), row.item(i)
            if not (0.0 < c < math.inf and 0.0 < r < math.inf):
                continue  # unbalanceable (or non-finite) node: leave it
            # s^4 = r / c balances node i
            k = round((math.log2(r) - math.log2(c)) / 4.0)
            f = 4.0**k  # s^2
            if k == 0 or (
                math.sqrt(c * f) + math.sqrt(r / f)
                >= 0.95 * (math.sqrt(c) + math.sqrt(r))
            ):
                continue
            col -= w[i, :] * (1.0 - 1.0 / f)
            row += w[:, i] * (f - 1.0)
            w[i, :] /= f
            w[:, i] *= f
            col[i], row[i] = c * f, r / f
            log2s[i] += k
            moved = True
        if not moved:
            break
    return np.exp2(log2s[:d] - log2s[d])


class _EvalPlan(NamedTuple):
    """What ``LftMatrix.evaluate`` needs besides the points (per channel)."""

    names: tuple          # parameter names, in order of first channel
    channel: np.ndarray   # channel -> index into names
    center: np.ndarray
    spread: np.ndarray    # 1 where the parameter's spread is 0 ...
    fixed: np.ndarray     # ... at these channels, whose delta is 0
    lower: np.ndarray     # bounds, widened by _BOUNDS_TOL
    upper: np.ndarray
    b: np.ndarray         # balanced B, D and [C, I]
    dm: np.ndarray
    rhs: np.ndarray


class LftMatrix:
    """A rows x cols matrix-valued rational function of parameters."""

    __slots__ = ("m", "rows", "cols", "delta", "_plan")

    def __init__(self, m: np.ndarray, rows: int, cols: int, delta: tuple[Param, ...]):
        m = np.asarray(m, dtype=float)
        d = len(delta)
        if m.shape != (rows + d, cols + d):
            raise ValueError(
                f"coefficient matrix shape {m.shape} inconsistent with "
                f"({rows}+{d}, {cols}+{d})"
            )
        self.m = m
        self.rows = rows
        self.cols = cols
        self.delta = tuple(delta)
        self._plan = None

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def ndelta(self) -> int:
        return len(self.delta)

    @property
    def a(self) -> np.ndarray:
        return self.m[: self.rows, : self.cols]

    @property
    def b(self) -> np.ndarray:
        return self.m[: self.rows, self.cols :]

    @property
    def c(self) -> np.ndarray:
        return self.m[self.rows :, : self.cols]

    @property
    def d(self) -> np.ndarray:
        return self.m[self.rows :, self.cols :]

    @property
    def delta_structure(self) -> list[tuple[str, int]]:
        order: list[str] = []
        counts: dict[str, int] = {}
        for p in self.delta:
            if p.name not in counts:
                counts[p.name] = 0
                order.append(p.name)
            counts[p.name] += 1
        return [(n, counts[n]) for n in order]

    def occurrences(self, name: str) -> int:
        return sum(1 for p in self.delta if p.name == name)

    def params(self) -> list[Param]:
        seen, out = set(), []
        for p in self.delta:
            if p.name not in seen:
                seen.add(p.name)
                out.append(p)
        return out

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self,
        point: Mapping[str, float] | Iterable[Mapping[str, float]],
        strict: bool = False,
    ) -> np.ndarray:
        """Numeric value at a parameter point, or stacked over points.

        ``point`` maps parameter names to values (a missing name is an
        error) and gives a rows x cols array; a sequence of such mappings
        gives a (points, rows, cols) array, solved in blocks of
        ``EVAL_BLOCK`` points with one batched solve per block.  A value
        outside its parameter's bounds is accepted, or rejected if
        ``strict``.  The first point that misses a parameter, is rejected
        or is ill-posed raises an ``EvaluationError`` whose ``index`` is its
        position.
        """
        if isinstance(point, Mapping):
            return self._evaluate_block([point], 0, strict)[0]
        points = list(point)
        if len(points) <= EVAL_BLOCK:
            return self._evaluate_block(points, 0, strict)
        return np.concatenate([
            self._evaluate_block(points[i : i + EVAL_BLOCK], i, strict)
            for i in range(0, len(points), EVAL_BLOCK)
        ])

    def _evaluate_block(self, points: list, base: int, strict: bool) -> np.ndarray:
        k = len(points)
        if self.ndelta == 0:
            return np.repeat(self.a[None], k, axis=0)
        plan = self._eval_plan()
        width = len(plan.names)
        try:
            vals = [[float(pt[n]) for n in plan.names] for pt in points]
        except KeyError:
            stop = next(
                i for i, pt in enumerate(points)
                if not all(n in pt for n in plan.names)
            )
            vals = [[float(pt[n]) for n in plan.names] for pt in points[:stop]]
        else:
            stop = k
        x = np.array(vals, dtype=float).reshape(len(vals), width)[:, plan.channel]
        if strict:
            outside = ~((plan.lower <= x) & (x <= plan.upper)).all(axis=1)
            if outside.any():
                stop = int(np.argmax(outside))
                x = x[:stop]
        deltas = (x - plan.center) / plan.spread
        deltas[:, plan.fixed] = 0.0
        sol, cond = _solve_with_cond(plan.dm, plan.rhs, deltas)
        ill = ~(cond <= _COND_LIMIT)  # a NaN (from a NaN value) fails too
        fail = int(np.argmax(ill)) if ill.any() else stop
        if fail < k:
            # raises for a missing or rejected value, as in channel order
            self._check_point(points[fail], strict, base + fail)
            raise EvaluationError(
                "ill-posed LFT at requested point "
                f"(balanced cond {cond[fail]:.2e})",
                base + fail,
            )
        return self.a + (plan.b * deltas[:, None, :]) @ sol

    def _check_point(self, point: Mapping, strict: bool, index: int) -> None:
        """The checks of one point's channels, in channel order: raise for a
        missing parameter or a rejected value.  Only points that fail a
        batched check come here."""
        for p in self.delta:
            if p.name not in point:
                raise EvaluationError(
                    f"parameter {p.name!r} missing from point", index
                )
            v = float(point[p.name])
            if strict and not (
                p.lower - _BOUNDS_TOL <= v <= p.upper + _BOUNDS_TOL
            ):
                raise EvaluationError(
                    f"parameter {p.name!r} value {v} outside "
                    f"[{p.lower}, {p.upper}]",
                    index,
                )

    def _eval_plan(self) -> "_EvalPlan":
        """Per-matrix set-up of ``evaluate``, built once."""
        if self._plan is None:
            names = list(dict.fromkeys(p.name for p in self.delta))
            spread = np.array([p.spread for p in self.delta])
            b, c, dm = self._balanced_blocks()
            self._plan = _EvalPlan(
                names=tuple(names),
                channel=np.array([names.index(p.name) for p in self.delta]),
                center=np.array([p.center for p in self.delta]),
                spread=np.where(spread == 0.0, 1.0, spread),
                fixed=np.flatnonzero(spread == 0.0),
                lower=np.array([p.lower - _BOUNDS_TOL for p in self.delta]),
                upper=np.array([p.upper + _BOUNDS_TOL for p in self.delta]),
                b=b,
                dm=dm,
                rhs=np.hstack([c, np.eye(self.ndelta)]),
            )
        return self._plan

    @property
    def nominal(self) -> np.ndarray:
        return self.evaluate({p.name: p.nominal for p in self.delta})

    def check_wellposed(self) -> None:
        if self.ndelta == 0:
            return
        plan = self._eval_plan()
        nominal = np.array([[p.normalize(p.nominal) for p in self.delta]])
        _, cond = _solve_with_cond(plan.dm, plan.rhs, nominal)
        if not cond[0] <= _COND_LIMIT:
            raise WellPosednessError(
                "LFT is ill-posed at the nominal parameter point "
                f"(balanced cond {cond[0]:.2e})"
            )

    def _balanced_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(B S, S^-1 C, S^-1 D S) with S the balancing channel scales.

        The rescaling is by powers of two, so it is exact, and it commutes
        with Delta, so the balanced blocks realize the same matrix.  The
        well-posedness gate measures the balanced I - D Delta, which makes
        it (up to the radix of the balancing) independent of how the
        channels happen to be scaled.
        """
        s = _channel_scales(self)
        return (
            self.b * s[None, :],
            self.c / s[:, None],
            self.d * (s[None, :] / s[:, None]),
        )

    def balanced(self) -> "LftMatrix":
        """The same LFT with its Delta channels balanced exactly."""
        if self.ndelta == 0:
            return self
        r, c = self.rows, self.cols
        m = self.m.copy()
        m[:r, c:], m[r:, :c], m[r:, c:] = self._balanced_blocks()
        return LftMatrix(m, r, c, self.delta)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other) -> "LftMatrix":
        o = _as_lft(other)
        if self.shape != o.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {o.shape}")
        r, c = self.shape
        d1, d2 = self.ndelta, o.ndelta
        if not d1 and not d2:
            return LftMatrix(self.m + o.m, r, c, ())
        m = np.zeros((r + d1 + d2, c + d1 + d2))
        m[:r, :c] = self.a + o.a
        m[:r, c : c + d1] = self.b
        m[:r, c + d1 :] = o.b
        m[r : r + d1, :c] = self.c
        m[r + d1 :, :c] = o.c
        m[r : r + d1, c : c + d1] = self.d
        m[r + d1 :, c + d1 :] = o.d
        return LftMatrix(m, r, c, self.delta + o.delta)

    def __radd__(self, other):
        return _as_lft(other) + self

    def __sub__(self, other):
        return self + (-_as_lft(other))

    def __rsub__(self, other):
        return _as_lft(other) + (-self)

    def __neg__(self) -> "LftMatrix":
        m = self.m.copy()
        m[: self.rows, :] = -m[: self.rows, :]
        return LftMatrix(m, self.rows, self.cols, self.delta)

    def scale(self, k: float) -> "LftMatrix":
        m = self.m.copy()
        m[: self.rows, :] = k * m[: self.rows, :]
        return LftMatrix(m, self.rows, self.cols, self.delta)

    def __mul__(self, k):
        if isinstance(k, (int, float, np.floating)):
            return self.scale(float(k))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other) -> "LftMatrix":
        o = _as_lft(other)
        if self.cols != o.rows:
            raise ValueError(f"inner dimensions {self.cols} vs {o.rows}")
        r, k, c = self.rows, self.cols, o.cols
        d1, d2 = self.ndelta, o.ndelta
        if not d1 and not d2:
            return LftMatrix(self.m @ o.m, r, c, ())
        m = np.zeros((r + d1 + d2, c + d1 + d2))
        m[:r, :c] = self.a @ o.a
        m[:r, c : c + d1] = self.b
        m[:r, c + d1 :] = self.a @ o.b
        m[r : r + d1, :c] = self.c @ o.a
        m[r : r + d1, c : c + d1] = self.d
        m[r : r + d1, c + d1 :] = self.c @ o.b
        m[r + d1 :, :c] = o.c
        m[r + d1 :, c + d1 :] = o.d
        return LftMatrix(m, r, c, self.delta + o.delta)

    def __rmatmul__(self, other):
        return _as_lft(other) @ self

    @property
    def T(self) -> "LftMatrix":
        r, c = self.rows, self.cols
        d = self.ndelta
        m = np.zeros((c + d, r + d))
        m[:c, :r] = self.a.T
        m[:c, r:] = self.c.T
        m[c:, :r] = self.b.T
        m[c:, r:] = self.d.T
        return LftMatrix(m, c, r, self.delta)

    def left_divide(self) -> "LftMatrix":
        """M^-1 N for this LFT read as [M | N], M its first ``rows`` columns,
        on the same Delta channels and checked well-posed at the nominal
        point.  With A = [A1 A2] and C = [C1 C2] split alike, M X = N gives

            X = A1^-1 A2 + B' Delta (I - D' Delta)^-1 C',
            B' = -A1^-1 B,  C' = C1 A1^-1 A2 - C2,  D' = D - C1 A1^-1 B.
        """
        n, w = self.rows, self.cols - self.rows
        if w < 0:
            raise ValueError("left division requires at least as many columns as rows")
        a1, a2 = np.split(self.a, [n], axis=1)
        c1, c2 = np.split(self.c, [n], axis=1)
        x = np.hstack([a2, self.b])
        if not np.triu(a1, 1).any() and (np.diag(a1) == 1.0).all():
            # unit lower triangular, as a tree's I - E in tree order: the
            # Neumann series of the strict part ends after at most n terms,
            # and it keeps the exact zeros that a pivoted solve would fill
            # with round-off
            strict = np.tril(a1, -1)
            term = x
            while term.any():
                term = -strict @ term
                x = x + term
            x_a, x_b = np.split(x, [w], axis=1)
            c_x_a = c1 @ x_a
        else:
            # A1^-1 [A2 B] and C1 A1^-1 come from solves: multiplying by an
            # explicit A1^-1 loses accuracy in proportion to cond(A1)
            # wherever the LFT is evaluated away from delta = 0
            try:
                x_a, x_b = np.split(np.linalg.solve(a1, x), [w], axis=1)
                c_x_a = np.linalg.solve(a1.T, c1.T).T @ a2
            except np.linalg.LinAlgError as exc:
                raise WellPosednessError(
                    "nominal coefficient block singular; LFT inverse undefined"
                ) from exc
        m = np.block([[x_a, -x_b], [c_x_a - c2, self.d - c1 @ x_b]])
        out = LftMatrix(m, n, w, self.delta)
        out.check_wellposed()
        return out

    def inv(self) -> "LftMatrix":
        """Inverse of a square LFT matrix G: the left division of [G | I]."""
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        return hstack([self, eye(self.rows)]).left_divide()

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "LftMatrix":
        rows = list(rows)
        cols = list(cols)
        d = self.ndelta
        m = np.zeros((len(rows) + d, len(cols) + d))
        m[: len(rows), : len(cols)] = self.a[np.ix_(rows, cols)]
        m[: len(rows), len(cols) :] = self.b[rows, :]
        m[len(rows) :, : len(cols)] = self.c[:, cols]
        m[len(rows) :, len(cols) :] = self.d
        return LftMatrix(m, len(rows), len(cols), self.delta)

    def reorder_delta(self, perm: Sequence[int]) -> "LftMatrix":
        """Permute the Delta channels (perm maps new index -> old index)."""
        perm = list(perm)
        if sorted(perm) != list(range(self.ndelta)):
            raise ValueError("invalid permutation")
        r, c = self.rows, self.cols
        m = self.m.copy()
        bi = [c + i for i in perm]
        ri = [r + i for i in perm]
        m = m[:, [*range(c), *bi]][[*range(r), *ri], :]
        return LftMatrix(m, r, c, tuple(self.delta[i] for i in perm))

    def sorted_by_kind(self) -> "LftMatrix":
        """Group Delta channels as (uncertain, varying, design)."""
        order = {k: i for i, k in enumerate(KINDS)}
        perm = sorted(
            range(self.ndelta),
            key=lambda i: (order[self.delta[i].kind], self.delta[i].name, i),
        )
        return self.reorder_delta(perm)

    def __repr__(self):
        return (
            f"LftMatrix({self.rows}x{self.cols}, "
            f"delta={self.delta_structure})"
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "coefficients": self.m.tolist(),
            "delta_structure": [
                {"param": n, "repetitions": k} for n, k in self.delta_structure
            ],
            "parameters": [
                {
                    "name": p.name,
                    "kind": p.kind,
                    "nominal": p.nominal,
                    "lower": p.lower,
                    "upper": p.upper,
                }
                for p in self.params()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LftMatrix":
        params = {
            q["name"]: Param(
                q["name"], q["nominal"], q["lower"], q["upper"], q["kind"]
            )
            for q in data["parameters"]
        }
        delta: list[Param] = []
        for entry in data["delta_structure"]:
            delta.extend([params[entry["param"]]] * entry["repetitions"])
        return cls(
            np.array(data["coefficients"], dtype=float),
            data["rows"],
            data["cols"],
            tuple(delta),
        )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def constant(value) -> LftMatrix:
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    return LftMatrix(arr, arr.shape[0], arr.shape[1], ())


def eye(n: int) -> LftMatrix:
    return constant(np.eye(n))


def zeros(rows: int, cols: int) -> LftMatrix:
    return constant(np.zeros((rows, cols)))


def from_param(p: Param) -> LftMatrix:
    """Lift a single parameter to a 1x1 LFT: p = center + spread * delta."""
    if p.spread == 0.0:
        return constant([[p.center]])
    m = np.array([[p.center, p.spread], [1.0, 0.0]])
    return LftMatrix(m, 1, 1, (p,))


def lift_scalar(expr: Scalar) -> LftMatrix:
    """Lift a rational expression to a 1x1 LFT matrix."""
    expr = as_expr(expr)
    if isinstance(expr, Const):
        return constant([[expr.v]])
    if isinstance(expr, Ref):
        return from_param(expr.p)
    if isinstance(expr, PowOp):
        base = lift_scalar(expr.a)
        n = expr.n
        if n == 0:
            return constant([[1.0]])
        inv = n < 0
        out = base
        for _ in range(abs(n) - 1):
            out = out @ base
        if inv:
            try:
                out = out.inv()
            except WellPosednessError as exc:
                raise WellPosednessError(
                    f"sub-expression {expr!r} vanishes at the nominal point"
                ) from exc
        return out
    assert isinstance(expr, BinOp)
    a = lift_scalar(expr.a)
    b = lift_scalar(expr.b)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a @ b
    try:
        binv = b.inv()
    except WellPosednessError as exc:
        raise WellPosednessError(
            f"denominator {expr.b!r} vanishes at the nominal point"
        ) from exc
    return a @ binv


def lift_matrix(entries: Sequence[Sequence[Scalar]]) -> LftMatrix:
    """Lift a nested list of scalars/expressions to a matrix LFT; plain
    numbers give one constant, equal to the block of their 1x1 lifts."""
    rows = [list(row) for row in entries]
    if all(isinstance(e, _NUMBERS) for row in rows for e in row):
        return constant(rows)
    return block([[lift_scalar(e) for e in row] for row in rows])


# ---------------------------------------------------------------------------
# Stacking
# ---------------------------------------------------------------------------


def _as_lft(x) -> LftMatrix:
    return x if isinstance(x, LftMatrix) else constant(x)


class _Array(NamedTuple):
    """A constant array in a block grid, with the members of an LftMatrix
    that ``block`` and ``blockdiag`` read, so that no LFT is built for it."""

    m: np.ndarray
    rows: int
    cols: int
    delta: tuple = ()


def _block_part(x) -> "LftMatrix | _Array":
    """An LFT as it is; anything else as ``constant`` reads it."""
    if isinstance(x, LftMatrix):
        return x
    arr = np.atleast_2d(np.asarray(x, dtype=float))
    return _Array(arr, *arr.shape)


def _place(m: np.ndarray, r: int, c: int, ro: int, co: int, do: int, b) -> None:
    """Copy block b's A, B, C and D into the coefficient matrix ``m`` of an
    r x c LFT, its A at (ro, co) and its channels from ``do`` on."""
    h, w, n, bm = b.rows, b.cols, len(b.delta), b.m
    m[ro : ro + h, co : co + w] = bm[:h, :w]
    if n:
        m[ro : ro + h, c + do : c + do + n] = bm[:h, w:]
        m[r + do : r + do + n, co : co + w] = bm[h:, :w]
        m[r + do : r + do + n, c + do : c + do + n] = bm[h:, w:]


def block(rows: Sequence[Sequence[LftMatrix]]) -> LftMatrix:
    """Block matrix of a grid of LFTs (or constant arrays), in one pass.

    The blocks of a grid row share its row count, and every grid row
    spans the same number of columns.  The Delta channels are those of
    the blocks in row-major order; each block's A, B, C and D are copied
    into place in one coefficient matrix, a constant array's straight
    from the array.
    """
    grid = [[_block_part(b) for b in row] for row in rows]
    heights = [row[0].rows for row in grid]
    c = sum(b.cols for b in grid[0])
    for row, h in zip(grid, heights):
        if any(b.rows != h for b in row):
            raise ValueError("block: row counts differ within a block row")
        if sum(b.cols for b in row) != c:
            raise ValueError("block: column counts differ between block rows")
    r = sum(heights)
    delta = tuple(p for row in grid for b in row for p in b.delta)
    m = np.zeros((r + len(delta), c + len(delta)))
    ro = do = 0
    for row, h in zip(grid, heights):
        co = 0
        for b in row:
            _place(m, r, c, ro, co, do, b)
            co += b.cols
            do += len(b.delta)
        ro += h
    return LftMatrix(m, r, c, delta)


def hstack(blocks: Iterable[LftMatrix]) -> LftMatrix:
    return block([list(blocks)])


def vstack(blocks: Iterable[LftMatrix]) -> LftMatrix:
    return block([[b] for b in blocks])


def blockdiag(blocks: Sequence[LftMatrix]) -> LftMatrix:
    """Block-diagonal matrix of LFTs (or constant arrays), channels in block
    order; the off-diagonal blocks are left as the zeros they start as."""
    parts = [_block_part(b) for b in blocks]
    r = sum(b.rows for b in parts)
    c = sum(b.cols for b in parts)
    delta = tuple(p for b in parts for p in b.delta)
    m = np.zeros((r + len(delta), c + len(delta)))
    ro = co = do = 0
    for b in parts:
        _place(m, r, c, ro, co, do, b)
        ro, co, do = ro + b.rows, co + b.cols, do + len(b.delta)
    return LftMatrix(m, r, c, delta)


# ---------------------------------------------------------------------------
# Rotation LFTs
# ---------------------------------------------------------------------------

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation_lft_half(t: HalfTanParam) -> LftMatrix:
    """2x2 rotation [[cos, -sin], [sin, cos]] with 2 occurrences of t.

    Realizes the Cayley form R = (I + tJ)(I - tJ)^-1 with J the unit
    skew matrix, which is exact for t = tan(theta/2).
    """
    if t.variant != "half":
        raise ValueError("rotation_lft_half requires a half-angle parameter")
    p = t.param
    if p.spread == 0.0:
        th = t.angle_nominal
        return constant(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        )
    # w = t z with t = center + spread * delta: absorb the affine map
    # into the coefficient matrix by splitting t z = center z + spread w.
    # y = u + 2 t J x, z = x, x = u + t J x  =>  use direct derivation:
    # y = u + 2w', z = J u + J w', w' = t z  (w' = t J x).
    # With x = (I - tJ)^-1 u: y = u + 2tJx. Channels z = x, w = delta z,
    # and t = c0 + s0 delta absorb the normalization affinely.
    c0, s0 = p.center, p.spread
    i2 = np.eye(2)
    zinv = np.linalg.inv(i2 - c0 * _J2)
    a = i2 + 2.0 * c0 * _J2 @ zinv
    b = 2.0 * s0 * (c0 * _J2 @ zinv @ _J2 + _J2)
    c = zinv
    d = s0 * zinv @ _J2
    m = np.block([[a, b], [c, d]])
    return LftMatrix(m, 2, 2, (p, p))


def rotation_lft_quarter(t_prime: HalfTanParam) -> LftMatrix:
    """2x2 rotation with 4 occurrences of t' = tan(theta/4)."""
    if t_prime.variant != "quarter":
        raise ValueError("rotation_lft_quarter requires a quarter-angle parameter")
    half = HalfTanParam(t_prime.base_angle_name, t_prime.param, "half")
    r_half = rotation_lft_half(half)
    return r_half @ r_half


def rotation_about_axis(axis: np.ndarray, t: HalfTanParam) -> LftMatrix:
    """3x3 rotation about a fixed unit axis, parameterized by t."""
    r = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(r) - 1.0) > 1e-12:
        raise ValueError("axis must have unit norm")
    # orthonormal basis (e1, e2, r) with e1 x e2 = r
    seed = np.array([1.0, 0.0, 0.0])
    if abs(r @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = seed - (seed @ r) * r
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(r, e1)
    q = np.column_stack([e1, e2, r])
    r2 = rotation_lft_half(t) if t.variant == "half" else rotation_lft_quarter(t)
    core = blockdiag([r2, eye(1)])
    return constant(q) @ core @ constant(q.T)


# ---------------------------------------------------------------------------
# Structural reduction
# ---------------------------------------------------------------------------

# Rank decisions in reduce_lft: singular values below this fraction of the
# balanced coupling norm of a parameter's channels count as zero, and
# those below _WEAK times it wait until no stronger direction is left.
_REDUCE_RTOL = 1e-12
_WEAK = 1e6


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float array, bit for bit: the same dot
    product over the same memory order, without the checks it makes."""
    v = x.ravel(order="K")
    return math.sqrt(v.dot(v))


def _reachable_bases(big: np.ndarray, r: int, c: int, spans: list, tols: list) -> list:
    """Orthonormal bases of the reachable channels of the r x c LFT ``big``,
    one per parameter's channel block a:b of ``spans``.

    The reachable channels span the least subspace V = V_1 + V_2 + ...
    with range(C_j) in V_j and D_jk V_k in V_j for all blocks j, k (Beck &
    D'Andrea): the first step takes the columns of C, each later one D
    times the directions the last step added.  Block j keeps an
    orthogonal Q_j, its reachable directions first, and seeks new ones in
    their complement.  A direction counts as zero within ``tols[j]``; one
    within ``_WEAK`` times that waits, scaled by its singular value, until
    no stronger one is left, so that round-off along a direction that a
    later step adds is not taken for a channel of its own.  A residual
    within the tolerance needs no SVD, nor does a single direction left.
    Returns Q_j's first k_j columns, or None if all of block j is reachable.
    """
    dm = big[r:, c:]
    qs: list = [None] * len(spans)  # None: the identity, while k_j = 0
    ks = [0] * len(spans)
    waiting: list = [None] * len(spans)
    x, scale = big[r:, :c], _WEAK  # a direction above scale * tol is strong
    while True:
        added = []
        for j, (a, b) in enumerate(spans):
            k, q, tol = ks[j], qs[j], tols[j]
            if k == b - a:
                continue
            y = x[a:b] if waiting[j] is None else np.hstack([x[a:b], waiting[j]])
            y = y if q is None else q[:, k:].T @ y
            waiting[j] = None
            norm = _norm(y)
            if norm <= tol:
                continue
            if k == b - a - 1:  # one direction left: its singular value is the norm
                s = np.array([norm])
                q = np.ones((1, 1)) if q is None else q
            else:
                u, s, _ = np.linalg.svd(y, full_matrices=y.shape[0] > y.shape[1])
                if q is None:
                    q = qs[j] = u
                else:
                    q[:, k:] = q[:, k:] @ u
            new = np.count_nonzero(s > scale * tol)
            held = np.count_nonzero(s > tol) - new
            if held:
                waiting[j] = q[:, k + new : k + new + held] * s[new : new + held]
            if new:
                added.append(dm[:, a:b] @ q[:, k : k + new])
                ks[j] += new
        if added:
            x, scale = np.hstack(added), _WEAK
        elif scale > 1.0 and any(w is not None for w in waiting):
            x, scale = dm[:, :0], 1.0  # no strong direction left: take the waiting ones
        else:
            break
    return [
        None if k == b - a else (np.zeros((b - a, 0)) if q is None else q[:, :k])
        for (a, b), k, q in zip(spans, ks, qs)
    ]


def _restrict(big: np.ndarray, r: int, c: int, spans: list, bases: list) -> np.ndarray:
    """``big`` on each block's basis V_j: rows by V_j^T, then columns by V_j."""
    parts = [big[:r]]
    for (a, b), v in zip(spans, bases):
        parts.append(big[r + a : r + b] if v is None else v.T @ big[r + a : r + b])
    big = np.vstack(parts)
    parts = [big[:, :c]]
    for (a, b), v in zip(spans, bases):
        parts.append(big[:, c + a : c + b] if v is None else big[:, c + a : c + b] @ v)
    return np.hstack(parts)


def reduce_lft(m: LftMatrix) -> LftMatrix:
    """Structured (n-D) Kalman reduction of the Delta channels.

    Each round balances the channels exactly (``LftMatrix.balanced``),
    groups them by parameter and keeps the reachable channels
    (``_reachable_bases``), then, on the transposed array, the observable
    ones, by an orthogonal change of basis of each parameter that loses
    some.  It sees all parameters at once, so redundancy that spans
    several goes too (g + g keeps g's channels).  A direction counts as
    zero below 1e-12 times the balanced norm of its parameter's rows and
    columns, so no decision depends on how the channels happen to be
    scaled, nor on the BLAS thread count.  Rounds repeat until one removes nothing, and
    return its balanced input as it is.  The result evaluates to the same
    matrix, with occurrence counts that never increase: up to round-off,
    except where a parameter's coefficients span many decades and a
    channel below the tolerance still carries about 1e-9 of the value
    (p**-2 + 19683 / p keeps 1 channel, not 2).
    """
    r, c = m.rows, m.cols
    while m.ndelta:
        m = m.balanced()
        groups: dict = {}  # name -> channels, in order of first channel
        for i, p in enumerate(m.delta):
            groups.setdefault(p.name, []).append(i)
        order = [i for idx in groups.values() for i in idx]
        big = m.m[np.ix_([*range(r), *(r + i for i in order)], [*range(c), *(c + i for i in order)])]
        sizes = [len(idx) for idx in groups.values()]
        for observe in (False, True):
            spans = [(e - n, e) for n, e in zip(sizes, np.cumsum(sizes).tolist())]
            tols = [_REDUCE_RTOL * max(_norm(big[r + a : r + b]), _norm(big[:, c + a : c + b]))
                    for a, b in spans]
            # observability is reachability of the transpose, copied in C order
            # (numpy picks its BLAS routine, and so its rounding, by memory order)
            view, vr, vc = (big.T.copy(), c, r) if observe else (big, r, c)
            bases = _reachable_bases(view, vr, vc, spans, tols)
            if any(v is not None for v in bases):
                view = _restrict(view, vr, vc, spans, bases)
                big = view.T if observe else view
                sizes = [n if v is None else v.shape[1] for n, v in zip(sizes, bases)]
        if sum(sizes) == m.ndelta:
            break
        params = [m.delta[idx[0]] for idx in groups.values()]
        m = LftMatrix(big, r, c, tuple(p for p, n in zip(params, sizes) for _ in range(n)))
    return m
