"""Convex quadratic programming with certified primal-dual output.

Dense Mehrotra predictor-corrector interior-point solver for

    minimize    0.5 x'Qx + c'x + offset
    subject to  A_eq x  = b_eq
                A_in x <= b_in
                lb <= x <= ub

Every variable is box bounded, so bounded feasible problems always have a
primal-dual pair.  The KKT residual attached to a solution is recomputed
from the returned values, never read from solver internals.  Problems of
any dense shapes can be solved as a batch (one interior point loop over a
leading batch axis, the vectors padded to the widest shape and each
shape's matrices kept unpadded), which is what the network simulator uses
to step all agents at once.  Elements leave the loop as they converge or
fail, so the Newton steps run on the unfinished ones only, and the
certificates of each shape are recomputed in one vectorized pass.  A
batch's re-solve is warm: it first tries each settled element's previous
active set, with the inverse of that active set's KKT matrix kept from its
last try, and keeps what passes tol; an element the interior point leaves
unconverged is polished on active sets.  Both accept on the certificate
that the solution then reports.

An element whose Q is nonzero takes one interior-point step length, the
smaller of its primal and dual ones; an LP element (Q = 0) takes the two
separately, as Mehrotra's LP method does.  Separate lengths are not valid
for QP (Nocedal & Wright, Numerical Optimization, section 16.6), and on
QP elements warm solves cycled on them until the stall rule sent them to
a cold start.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

_FIX_TOL = 1e-12  # lb == ub within this -> variable pinned via an equality row
# Stacked variables up to which a coupled QP is solved dense: below about
# 150 the dense factorization costs less per iteration than the per-group
# calls of block elimination (random N x 2 x 2: 14 against 21 ms at N = 50,
# 43 against 24 ms at N = 100), and small oracles keep the dense arithmetic.
_DENSE_MAX = 256
_PSD_TOL = 1e-9


class QpError(Exception):
    """Base class for solver failures.

    A batch solve tags its error with the failed ``element`` and that
    element's effective ``form``; a caller that knows whose problem the
    element is may set ``agent``, which then leads the message.
    """

    element: int | None = None
    form: QpStandardForm | None = None
    agent: int | None = None

    def __str__(self) -> str:
        msg = super().__str__()
        return msg if self.agent is None else f"agent {self.agent}: {msg}"


class QpInfeasibleError(QpError):
    """No feasible point exists; carries a Farkas-type certificate when available."""

    def __init__(self, message: str, certificate: np.ndarray | None = None):
        super().__init__(message)
        self.certificate = certificate
        self.status = "infeasible"


class QpNumericalError(QpError):
    """The interior-point iteration broke down on a (presumably) feasible problem."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.status = "numerical-error"


@dataclass
class QpStandardForm:
    """Box-bounded convex QP with optional linear equalities and inequalities.

    ``offset`` is a constant added to the reported objective.
    """

    Q: np.ndarray
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.lb = np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.asarray(self.ub, dtype=float).ravel()
        n = self.Q.shape[0]
        if self.A_eq is not None:
            self.A_eq = np.asarray(self.A_eq, dtype=float).reshape(-1, n)
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
        if self.A_in is not None:
            self.A_in = np.asarray(self.A_in, dtype=float).reshape(-1, n)
            self.b_in = np.asarray(self.b_in, dtype=float).ravel()

    @property
    def dim(self) -> int:
        return self.Q.shape[0]


@dataclass
class CoupledForm:
    """Block QPs joined by S shared inequality rows.

        minimize    sum_k (0.5 x_k'Q_k x_k + c_k'x_k + offset_k)  (+ cost * v)
        subject to  x_k in the feasible set of ``blocks[k]``
                    sum_k coupling[k] @ x_k  (- v)  <= rhs
                    lb <= v <= ub

    The trailing variable v exists when ``extra = (cost, lb, ub)`` is
    given and enters every coupling row with coefficient -1.  ``dense()``
    is the same problem as one QpStandardForm: the blocks stacked
    block-diagonally in order, the S coupling rows last among the
    inequality rows and v last among the variables.  ``solve_qp`` reports
    the solution in the layout of ``dense()``, however it solves it.
    """

    blocks: list[QpStandardForm]
    coupling: list[np.ndarray]   # (S, blocks[k].dim) each
    rhs: np.ndarray              # (S,)
    extra: tuple[float, float, float] | None = None

    def dense(self) -> QpStandardForm:
        starts = np.cumsum([0] + [f.dim for f in self.blocks]).tolist()
        n = starts[-1] + (self.extra is not None)
        Q = np.zeros((n, n))
        c, lb, ub = np.zeros(n), np.zeros(n), np.zeros(n)
        offset = 0.0
        eq_rows, eq_rhs, in_rows, in_rhs = [], [], [], []
        coupling = np.zeros((self.rhs.shape[0], n))
        for f, mat, s0 in zip(self.blocks, self.coupling, starts):
            cols = slice(s0, s0 + f.dim)
            Q[cols, cols] = f.Q
            c[cols], lb[cols], ub[cols] = f.c, f.lb, f.ub
            offset += f.offset
            for a, b, rows, rhs in ((f.A_eq, f.b_eq, eq_rows, eq_rhs),
                                    (f.A_in, f.b_in, in_rows, in_rhs)):
                if a is not None:
                    block = np.zeros((a.shape[0], n))
                    block[:, cols] = a
                    rows.append(block)
                    rhs.append(b)
            coupling[:, cols] = mat
        if self.extra is not None:
            c[-1], lb[-1], ub[-1] = self.extra
            coupling[:, -1] = -1.0
        return QpStandardForm(
            Q=Q, c=c, lb=lb, ub=ub,
            A_eq=np.concatenate(eq_rows) if eq_rows else None,
            b_eq=np.concatenate(eq_rhs) if eq_rhs else None,
            A_in=np.concatenate(in_rows + [coupling]),
            b_in=np.concatenate(in_rhs + [self.rhs]), offset=offset)


_FORM_ARRAYS = ("Q", "c", "lb", "ub", "A_eq", "b_eq", "A_in", "b_in")


def save_form(form: QpStandardForm, path) -> None:
    """Write ``form`` as JSON; floats keep full round-trip precision."""
    doc = {"format": "rsdd-qp", "version": 1, "offset": float(form.offset)}
    for name in _FORM_ARRAYS:
        v = getattr(form, name)
        doc[name] = None if v is None else v.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_form(path) -> QpStandardForm:
    """Read a form written by save_form; load(save(f)) is bit-exact."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "rsdd-qp":
        raise ValueError("not a QP form document")
    return QpStandardForm(offset=doc["offset"],
                          **{name: doc[name] for name in _FORM_ARRAYS})


@dataclass
class PrimalDualSolution:
    """Primal point plus multipliers for every constraint family."""

    x: np.ndarray
    eq_mult: np.ndarray
    ineq_mult: np.ndarray
    box_lower_mult: np.ndarray
    box_upper_mult: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    status: str = "optimal"


@dataclass
class BatchSolution:
    """The solutions of one ``QpBatch.solve``, element k for form k.

    Each field holds ``PrimalDualSolution``'s field of every element with
    a leading batch axis; x, the multipliers and the box multipliers are
    padded with zeros to the widest element, whose own widths are
    ``widths[k]`` = (n, equality rows, inequality rows).  ``sol[k]`` (k
    negative too) and iteration give each element's ``PrimalDualSolution``:
    views of its own entries, and Python scalars.  Every array but
    ``widths`` (the batch's own, read-only) is new on every solve and
    shares no memory with the batch.
    """

    x: np.ndarray                # (B, n)
    eq_mult: np.ndarray          # (B, equality rows)
    ineq_mult: np.ndarray        # (B, inequality rows)
    box_lower_mult: np.ndarray   # (B, n)
    box_upper_mult: np.ndarray   # (B, n)
    objective: np.ndarray        # (B,)
    kkt_residual: np.ndarray     # (B,)
    iterations: np.ndarray       # (B,) int
    widths: np.ndarray           # (B, 3) int

    def __len__(self) -> int:
        return len(self.objective)

    def __getitem__(self, k: int) -> PrimalDualSolution:
        k = range(len(self))[k]  # negative k counts from the end; IndexError past it
        n, m_eq, m_in = self.widths[k].tolist()
        return PrimalDualSolution(self.x[k, :n], self.eq_mult[k, :m_eq],
                                  self.ineq_mult[k, :m_in], self.box_lower_mult[k, :n],
                                  self.box_upper_mult[k, :n], float(self.objective[k]),
                                  float(self.kkt_residual[k]), int(self.iterations[k]))

    def _put(self, at, cert) -> None:
        """Write ``_Shape._certify``'s multipliers, residuals and objectives
        of one shape's elements into the entries of forms ``at``."""
        eq_mult, ineq_mult, lo, hi, kkt, obj = cert
        self.eq_mult[at, :eq_mult.shape[1]] = eq_mult
        self.ineq_mult[at, :ineq_mult.shape[1]] = ineq_mult
        self.box_lower_mult[at, :lo.shape[1]] = lo
        self.box_upper_mult[at, :hi.shape[1]] = hi
        self.kkt_residual[at] = kkt
        self.objective[at] = obj


@dataclass
class KktResiduals:
    """The four KKT error norms of a candidate primal-dual pair."""

    stationarity: float
    primal_feasibility: float
    dual_feasibility: float
    complementarity: float

    @property
    def max(self) -> float:
        return max(self.stationarity, self.primal_feasibility,
                   self.dual_feasibility, self.complementarity)


def kkt_residuals(form: QpStandardForm, sol: PrimalDualSolution) -> KktResiduals:
    """Recompute KKT residuals of ``sol`` for ``form`` from scratch.

    Pure function of the candidate values; does not trust anything cached on
    the solution object.  ``QpBatch`` certifies its solutions with the same
    arithmetic over the whole batch at once; this is the one-form reference.
    """
    x = np.asarray(sol.x, dtype=float)
    grad = form.Q @ x + form.c - sol.box_lower_mult + sol.box_upper_mult
    primal = 0.0
    comp = 0.0
    dual = max(0.0, -_amin(sol.box_lower_mult), -_amin(sol.box_upper_mult))
    if form.A_eq is not None and form.A_eq.shape[0]:
        grad = grad + form.A_eq.T @ sol.eq_mult
        primal = max(primal, np.abs(form.A_eq @ x - form.b_eq).max())
    if form.A_in is not None and form.A_in.shape[0]:
        grad = grad + form.A_in.T @ sol.ineq_mult
        slack = form.b_in - form.A_in @ x
        primal = max(primal, max(0.0, -_amin(slack)))
        dual = max(dual, -_amin(sol.ineq_mult))
        comp = max(comp, np.abs(sol.ineq_mult * slack).max())
    primal = max(primal,
                 max(0.0, (form.lb - x).max()),
                 max(0.0, (x - form.ub).max()))
    comp = max(comp,
               np.abs(sol.box_lower_mult * (x - form.lb)).max(),
               np.abs(sol.box_upper_mult * (form.ub - x)).max())
    return KktResiduals(np.abs(grad).max(), primal, max(0.0, dual), comp)


def _amin(a) -> float:
    a = np.asarray(a)
    return float(a.min()) if a.size else 0.0


def _amax_abs(a: np.ndarray) -> np.ndarray:
    """Row-wise max absolute value; zero for empty trailing axis."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return np.abs(a).max(axis=-1)


def _mv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    if not mat.size:  # no rows or no columns: the zeros that matmul gives
        return np.zeros(mat.shape[:-1])
    return (mat @ vec[..., None])[..., 0]


def _row_mean(v: np.ndarray) -> np.ndarray:
    """``v.mean(axis=1)`` bit for bit: the same sum over the same count,
    without ``mean``'s own argument handling."""
    return np.add.reduce(v, axis=1) / v.shape[1]


def _reduce_rows(ufunc: np.ufunc, a: np.ndarray, initial) -> np.ndarray:
    """``ufunc.reduce(a, axis=1, initial=initial)`` of a 2-D ``a``.

    numpy reduces a short last axis one row at a time, at a cost per row:
    a row-wise maximum of (200, 8) took 11 us, of (1000, 8) 44 us (2-core
    x86 box, numpy 2.4).  An array with more rows than columns is
    therefore copied transposed and reduced along its first axis, across
    all rows at once (5 and 12 us); the choice reads the shape alone, and
    a wide array, such as a few elements of many rows, stays row-wise.
    The two layouts combine each row's entries in different orders, so
    only order-free reductions use this: ``np.maximum``, ``np.minimum``
    and ``np.logical_and`` give the same value in any order (NaN
    propagates either way; of a +0.0 and a -0.0, which compare equal,
    either may come out).  A sum or a mean would round differently, and
    stays row-wise where it is.
    """
    if a.shape[0] > a.shape[1]:
        return ufunc.reduce(np.ascontiguousarray(a.T), axis=0, initial=initial)
    return ufunc.reduce(a, axis=1, initial=initial)


def validate_form(form: QpStandardForm) -> None:
    """Raise ValueError on any malformed field of ``form``."""
    _validate_forms([form])


def _validate_forms(forms: list[QpStandardForm]) -> None:
    """Raise ``validate_form``'s ValueError for the first malformed form.

    The forms whose arrays share their shapes are checked as one stack
    (``_checks``); a form's fault is the first check it fails.
    """
    layouts: dict[tuple, list[int]] = {}
    for k, f in enumerate(forms):
        layouts.setdefault(tuple(None if v is None else v.shape
                                 for v in (getattr(f, name) for name in _FORM_ARRAYS)),
                           []).append(k)
    faults = []
    for idx in layouts.values():
        fault: dict[int, str] = {}
        for message, failed in _checks([forms[k] for k in idx]):
            for j in np.flatnonzero(np.broadcast_to(failed, (len(idx),))):
                fault.setdefault(idx[j], message)
            if len(fault) == len(idx):
                break
        faults += fault.items()
    if faults:
        raise ValueError(min(faults)[1])


def _checks(forms: list[QpStandardForm]):
    """The checks of ``validate_form`` in order, over forms whose arrays
    share their shapes: (message, failed) pairs, ``failed`` one flag per
    form.  A shape check fails for every form alike, and ends the checks."""
    f0, K = forms[0], len(forms)
    n = f0.dim
    stacks: dict[str, np.ndarray] = {}

    def stack(name):
        if name not in stacks:
            stacks[name] = np.stack([getattr(f, name) for f in forms])
        return stacks[name]

    def finite(*names):
        return np.logical_and.reduce([np.isfinite(stack(name)).reshape(K, -1).all(axis=1)
                                      for name in names])

    if f0.Q.shape != (n, n):
        yield "Q must be square", True
        return
    for name in ("c", "lb", "ub"):
        if getattr(f0, name).shape != (n,):
            yield f"{name} has wrong length", True
            return
        yield f"{name} must be finite", ~finite(name)
    q_finite = finite("Q")
    yield "Q must be finite", ~q_finite
    yield "lb must not exceed ub", (stack("lb") > stack("ub")).any(axis=1)
    Q = np.where(q_finite[:, None, None], stack("Q"), 0.0)  # only finite ones are left
    yield "Q must be symmetric", np.abs(Q - Q.transpose(0, 2, 1)).max(
        axis=(1, 2), initial=0.0) > _PSD_TOL
    qs = 0.5 * (Q + Q.transpose(0, 2, 1))
    if n:
        yield "Q must be positive semidefinite", np.linalg.eigvalsh(qs).min(axis=1) < (
            -_PSD_TOL * np.maximum(1.0, np.abs(qs).max(axis=(1, 2))))
    for a, b, kind in (("A_eq", "b_eq", "equality"), ("A_in", "b_in", "inequality")):
        mat, rhs = getattr(f0, a), getattr(f0, b)
        if (mat is None) != (rhs is None):
            yield f"{a} and {b} must be given together", True
            return
        if mat is not None:
            if mat.shape[1] != n or mat.shape[0] != rhs.shape[0]:
                yield f"{kind} system has inconsistent shape", True
                return
            yield f"{kind} system must be finite", ~finite(a, b)


def shape_key(form: QpStandardForm) -> tuple:
    """What the forms of one batch share: dimension, equality and
    inequality row counts, and which variables are pinned (lb == ub)."""
    return (form.dim,
            0 if form.A_eq is None else form.A_eq.shape[0],
            0 if form.A_in is None else form.A_in.shape[0],
            (np.abs(form.ub - form.lb) <= _FIX_TOL).tobytes())


def shape_groups(forms: list[QpStandardForm]) -> list[list[int]]:
    """The indices of ``forms`` grouped by ``shape_key``: the groups in the
    order their first member appears, each in index order."""
    groups: dict[tuple, list[int]] = {}
    for i, form in enumerate(forms):
        groups.setdefault(shape_key(form), []).append(i)
    return list(groups.values())


class _Shape:
    """The forms of one ``shape_key``, stacked: the data of their matvecs,
    Newton systems, active-set solves and certificates.

    The internal equality system is the forms' equality rows, then one row
    per pinned variable; the inequality system G is the forms' inequality
    rows, then the lower and upper box rows of the free variables.  Only
    h changes between repeated solves, so each element's active-set KKT
    matrix is a function of its active set alone, and ``_active_set_try``
    keeps it and its inverse from one warm solve to the next.
    """

    def __init__(self, forms: list[QpStandardForm]):
        n, m_eq, m_in, _ = shape_key(forms[0])
        fixed = np.abs(forms[0].ub - forms[0].lb) <= _FIX_TOL
        self.forms = forms
        self.n = n
        self.m_in = m_in
        self.m_eq = m_eq
        self.fixed = fixed
        self.free = ~fixed
        nf = self.nf = int(self.free.sum())
        B = len(forms)
        self.Q = np.stack([0.5 * (f.Q + f.Q.T) for f in forms])
        self.Q_form = np.stack([f.Q for f in forms])  # certificates grade these
        self.offset = np.array([f.offset for f in forms])
        self.c = np.stack([f.c for f in forms])
        self.lb = np.stack([f.lb for f in forms])
        self.ub = np.stack([f.ub for f in forms])
        self.b_in = (np.stack([f.b_in for f in forms])
                     if m_in else np.zeros((B, 0)))
        a_in = (np.stack([f.A_in for f in forms])
                if m_in else np.zeros((B, 0, n)))
        n_fix = int(fixed.sum())
        self.me = m_eq + n_fix
        self.A = np.zeros((B, self.me, n))
        self.b = np.zeros((B, self.me))
        if m_eq:
            self.A[:, :m_eq, :] = np.stack([f.A_eq for f in forms])
            self.b[:, :m_eq] = np.stack([f.b_eq for f in forms])
        if n_fix:
            cols = np.where(fixed)[0]
            self.A[:, m_eq + np.arange(n_fix), cols] = 1.0
            self.b[:, m_eq:] = self.lb[:, cols]
        eye = np.eye(n)[self.free]
        self.mi = m_in + 2 * nf
        self.G = np.concatenate(
            [a_in, np.broadcast_to(-eye, (B, nf, n)), np.broadcast_to(eye, (B, nf, n))],
            axis=1)
        self.GT = np.ascontiguousarray(self.G.transpose(0, 2, 1))
        self.AT = np.ascontiguousarray(self.A.transpose(0, 2, 1))
        self._K = None  # the active-set KKT cache, made by the first try

    def _h(self) -> np.ndarray:
        return np.concatenate(
            [self.b_in, -self.lb[:, self.free], self.ub[:, self.free]], axis=1)

    def _certify(self, x, y, z, grad_rest=None, k=slice(None)):
        """Multipliers (equality, inequality, lower and upper box), KKT
        residuals and objectives of the elements ``k`` (all by default) at
        their iterates ``x``, ``y`` and ``z``, in one pass.

        Computes the gradient, slacks and products of ``kkt_residuals``
        for each element, in the same order of operations, and takes the
        largest of the same terms (a maximum is exact in any order), so
        the two agree bit for bit: the violations as one negated minimum
        of the signed terms (lb - x is exactly -(x - lb)), the rest as one
        maximum of absolute values.  ``grad_rest`` adds the gradient of
        rows outside the batch (the coupling rows of a coupled QP) last.
        """
        m_in, m_eq, nf = self.m_in, self.m_eq, self.nf
        lb, ub, c = self.lb[k], self.ub[k], self.c[k]
        eq_mult, ineq_mult = y[:, :m_eq], z[:, :m_in]
        lo, hi = z[:, m_in:m_in + nf], z[:, m_in + nf:]
        if nf < self.n:
            lo, hi = np.zeros_like(x), np.zeros_like(x)
            lo[:, self.free], hi[:, self.free] = z[:, m_in:m_in + nf], z[:, m_in + nf:]
            theta = y[:, m_eq:]
            lo[:, self.fixed] = np.maximum(0.0, -theta)
            hi[:, self.fixed] = np.maximum(0.0, theta)
        grad = _mv(self.Q_form[k], x) + c - lo + hi
        above, below = x - lb, ub - x
        signed = [above, below, lo, hi]          # each violated where negative
        products = [lo * above, hi * below]      # each off by its absolute value
        if m_eq:
            a_eq = self.A[k, :m_eq]
            grad = grad + _mv(a_eq.transpose(0, 2, 1), eq_mult)
            products.append(_mv(a_eq, x) - self.b[k, :m_eq])
        if m_in:
            a_in = self.G[k, :m_in]
            grad = grad + _mv(a_in.transpose(0, 2, 1), ineq_mult)
            slack = self.b_in[k] - _mv(a_in, x)
            signed += [slack, ineq_mult]
            products.append(ineq_mult * slack)
        if grad_rest is not None:
            grad = grad + grad_rest
        products.append(grad)
        kkt = np.maximum(
            _reduce_rows(np.maximum, np.abs(np.concatenate(products, axis=1)), 0.0),
            -_reduce_rows(np.minimum, np.concatenate(signed, axis=1), 0.0))
        # Two-operand products only: a three-operand einsum sums in an
        # order that depends on the batch size.
        obj = (0.5 * np.einsum("bi,bi->b", x, _mv(self.Q[k], x))
               + np.einsum("bi,bi->b", c, x))
        return eq_mult, ineq_mult, lo, hi, kkt, obj + self.offset[k]

    def _active_set_try(self, k, h, act):
        """The KKT points of elements ``k`` on their active rows ``act``,
        at right-hand sides ``h``, and their certificates (``_certify``).

        Each element keeps its last ``_active_set_system`` and that
        system's inverse, keyed by the active set they belong to: Q, A and
        G never change, and ``b_in`` and ``ub`` enter only the right-hand
        side.  A try on the kept active set (a hit) is the two matvecs of
        ``_active_set_point``; the other elements' systems (misses) are
        built and inverted together first.  Hits and misses run the same
        arithmetic on the same matrices, so a result does not depend on
        when its system was built.  The gate admits no more active rows
        than free directions, so every system has 2n rows.  A try of every
        element reads the kept arrays through views, not index arrays.
        """
        if self._K is None:
            B, N, W = len(self.forms), 2 * self.n, self.n - self.me
            self._key, self._built = np.zeros((B, self.mi), dtype=bool), np.zeros(B, dtype=bool)
            self._K, self._Kinv = np.empty((B, N, N)), np.empty((B, N, N))
            self._held, self._on = np.empty((B, W), dtype=np.intp), np.empty((B, W), dtype=bool)
        s = slice(None) if len(k) == len(self.forms) else k
        miss = ~(self._built[s] & _reduce_rows(np.logical_and, self._key[s] == act, True))
        if miss.any():
            j = k[miss]
            K, self._held[j], self._on[j] = _active_set_system(self.Q[j], self.A[j], self.G[j],
                                                               act[miss])
            self._K[j] = K
            self._Kinv[j] = _solve_kkt(K, np.broadcast_to(np.eye(K.shape[-1]), K.shape),
                                       self.n, K.shape[-1] - self.n)
            self._key[j], self._built[j] = act[miss], True
        x, y, z = _active_set_point(self._K[s], partial(_mv, self._Kinv[s]), self.c[s],
                                    self.b[s], h, self._held[s], self._on[s])
        return x, y, z, self._certify(x, y, z, k=s)

    def _polish(self, j, h, x0, z0, tol):
        """Active-set crossover for stalled element ``j`` at right-hand
        sides ``h``, from its interior-point iterate ``x0``, ``z0``.

        Guesses the active rows from the iterate (``_active_set``), solves
        the KKT system on them as the active-set try does
        (``_active_set_system``, ``_active_set_point``), and repairs the
        guess with the primal-dual rule act = {i : z_i - (h_i - G_i x) > 0}
        until the certificate (``_certify``) meets tol.  Returns (x, y, z)
        or None if no visited active set qualifies; weakly active rows
        resolve to either side with a zero multiplier, which is exactly the
        case that stalls the interior point.
        """
        k = [j]
        G, h = self.G[k], h[None]
        act = _active_set(h - _mv(G, x0[None]), z0[None])[0]
        seen = set()
        for _ in range(_POLISH_ROUNDS):
            key = act.tobytes()
            if key in seen:
                return None
            seen.add(key)
            K, order, on = _active_set_system(self.Q[k], self.A[k], G, act)
            solve = partial(_solve_kkt, K, n=self.n, me=K.shape[-1] - self.n)
            x, y, z = _active_set_point(K, solve, self.c[k], self.b[k], h, order, on)
            if self._certify(x, y, z, k=k)[4][0] <= tol:
                return x[0], y[0], z[0]
            act = (z - (h - _mv(G, x))) > 0.0
        return None


class QpBatch:
    """QPs of any shapes solved by one interior-point loop.

    Low-level repeated-solve API: the constituent matrices are assembled
    once; callers may overwrite entries of ``b_in`` and ``ub`` between
    ``solve`` calls (the relaxed local problems of the distributed method
    only change their coupling right-hand side from round to round), and
    nothing else.  The inequality right-hand sides h are kept in one
    buffer, into which each solve writes ``b_in`` and ``ub``; their
    ``-lb`` part is written once, so ``lb`` is read-only.  A batch's first
    solve is cold and each later one warm; a cold re-solve is a new batch.

    The forms of one ``shape_key`` make one ``_Shape`` (``shapes``, in the
    order their first form appears), whose matrices are stacked unpadded.
    Each shape's elements are consecutive rows of the batch (``_rows``),
    in input order: row ``row[k]`` holds form ``k = _order[row[k]]``.  The
    batch's vectors (``c``, ``b``, ``lb``, ``ub``, ``b_in`` and the
    iterates) are padded to the widest shape with entries that change
    nothing (zero, and one for the slacks and h of pad rows), and each
    shape's vectors are views into them.

    Each element goes through the sequence of attempts of ``solve``.  Each
    attempt and the interior point's stall and exit rules act per element,
    and run once over the whole batch; only the matvecs, the Newton
    systems and the active-set solves go shape by shape.  Finished
    elements leave the interior-point loop, and each shape's KKT
    certificates are computed together, in the same order of operations as
    ``kkt_residuals``, so each element's result is bit-identical to solving
    it alone.  The active-set try and the polish accept on the
    certificate that the solution then reports, and every element is
    certified once per solve.  ``solve`` returns one ``BatchSolution``: x,
    the multipliers, objectives, certificates and iteration counts as
    arrays in input order, written shape by shape, with no per-element
    object; ``sol[k]`` makes form k's ``PrimalDualSolution`` on demand.

    Each element's active-set KKT matrix and its inverse are kept, keyed
    by the active set, from one solve to the next (``_Shape`` holds
    them): while an element's active set holds, its try is two batched
    matvecs with no assembly and no factorization.  Unlike the interior
    point's matrices, which change every iteration, one inversion serves
    every solve on the same active set.
    """

    def __init__(self, forms: list[QpStandardForm], validate: bool = True):
        if not forms:
            raise ValueError("empty batch")
        if validate:
            _validate_forms(forms)
        groups = shape_groups(forms)
        self.forms = forms
        self.shapes = [_Shape([forms[k] for k in idx]) for idx in groups]
        sizes = [len(idx) for idx in groups]
        ends = np.cumsum(sizes).tolist()
        self._rows = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
        self._order = np.concatenate(groups)  # the form in each row
        self.row = np.argsort(self._order)
        self._at = [self._order[rows] for rows in self._rows]  # each shape's forms
        # Where a shape's solutions go: a slice when its forms are
        # consecutive in input order (always so for one shape).
        self._put_at = [slice(at[0], at[-1] + 1) if (np.diff(at) == 1).all() else at
                        for at in self._at]
        self.n, self.me, self.mi = (max(getattr(sh, w) for sh in self.shapes)
                                    for w in ("n", "me", "mi"))
        self._widths = np.repeat([[sh.n, sh.m_eq, sh.m_in] for sh in self.shapes], sizes,
                                 axis=0)[self.row]  # each form's, as BatchSolution has them
        self._widths.flags.writeable = False  # every solution shares it
        # A solution's multiplier widths: the most equality and inequality rows.
        self._mult_widths = self._widths[:, 1:].max(axis=0).tolist()
        B = len(forms)
        for name, width in (("c", self.n), ("b", self.me), ("lb", self.n),
                            ("ub", self.n), ("b_in", self._mult_widths[1])):
            padded = np.zeros((B, width))
            for sh, rows in zip(self.shapes, self._rows):
                own = getattr(sh, name)
                padded[rows, :own.shape[1]] = own
                setattr(sh, name, padded[rows, :own.shape[1]])
            setattr(self, name, padded)
        # The -lb part of h, written once; _h writes b_in and ub around it.
        self._h_kept = np.ones((B, self.mi))
        for sh, rows in zip(self.shapes, self._rows):
            self._h_kept[rows, sh.m_in:sh.m_in + sh.nf] = -sh.lb[:, sh.free]
            sh.lb.flags.writeable = False
        self.lb.flags.writeable = False
        parts = [_Stacked(sh.Q, sh.A, sh.AT, sh.G, sh.GT) for sh in self.shapes]
        own = np.arange(self.mi) < np.repeat([sh.mi for sh in self.shapes], sizes)[:, None]
        self._ops = (parts[0] if len(parts) == 1 else  # one shape has no pad rows
                     _Mixed(parts, self._rows, (self.n, self.me, self.mi), own * 1.0))
        # More active rows than free directions cannot be independent.
        self._free_dirs = np.repeat([sh.n - sh.me for sh in self.shapes], sizes)
        # The last solution, each element's active set there, and whether
        # the next solve tries that active set first.
        self._warm: tuple[np.ndarray, np.ndarray] | None = None
        self._act: np.ndarray | None = None
        self._gate = np.zeros(B, dtype=bool)

    def _h(self) -> np.ndarray:
        """Every element's inequality right-hand sides (``_Shape._h``),
        padded with ones: the kept buffer, with the current ``b_in`` and
        ``ub`` written in.  The next call overwrites it."""
        h = self._h_kept
        for sh, rows in zip(self.shapes, self._rows):
            h[rows, :sh.m_in] = sh.b_in
            h[rows, sh.m_in + sh.nf:sh.mi] = sh.ub if sh.nf == sh.n else sh.ub[:, sh.free]
        return h

    def _locate(self, k: int) -> tuple[_Shape, int, int]:
        """The shape of form ``k``, its index in that shape, and its row."""
        r = int(self.row[k])
        s = next(s for s, rows in enumerate(self._rows) if r < rows.stop)
        return self.shapes[s], r - self._rows[s].start, r

    def solve(self, tol: float = 1e-8, max_iter: int = 200) -> BatchSolution:
        """Solve all batched problems: one ``BatchSolution``, whose element
        k is form k's solution.

        The first solve of a batch is cold; each later one is warm.  Each
        element goes through one sequence of attempts, and each attempt runs
        on the elements that no earlier one converged:

        1. On a warm solve only, the active-set try
           (``_Shape._active_set_try``): an element the gate admits (the
           same active set in its last two solutions, every row of the last
           clearly active or inactive, and no more active rows than free
           directions) is re-solved on that active set, by the inverse of
           its KKT matrix, kept from its last try on that active set or
           else built and inverted now.  It keeps the result, with 0
           iterations, if the result's certificate (``_Shape._certify``,
           the residual the solution reports) passes tol.
        2. The interior point (``_ipm``), from each start in turn: on a warm
           solve first from the element's last solution, with slacks and
           multipliers floored by how far the moved right-hand side left
           that solution infeasible, then cold.  A warm solve is thus never
           less robust than a cold one.
        3. The polish (``_Shape._polish``), an active-set crossover from
           the interior point's best iterate, built and certified as the
           active-set try is; it keeps the result, with ``max_iter``
           iterations, if the certificate passes tol.
        4. ``_diagnose`` of the first element, in input order, still
           unconverged, which raises.

        An element without inequality rows (every variable pinned) needs
        none of them: its x is fixed and its multipliers follow from
        stationarity.  An accepted try writes its certificate into the
        solution at once; the other elements are certified after the last
        attempt, shape by shape, so every element is certified once.  Every
        solve keeps its solution and active sets for the next, in arrays
        the returned solution does not share.

        A settled warm solve, in which the try certifies every element,
        costs its arithmetic: writing ``b_in`` and ``ub`` into the kept h,
        each shape's try and certificate, and the next solve's gate.  It
        makes no interior-point start, residual or retry array and scans
        no element for steps 2 to 4 (``_solve_left``); a shape whose every
        element the gate admits is tried, and its results written, through
        slices rather than index arrays.
        """
        h = self._h()
        B = len(self.forms)
        x, y, z = np.zeros((B, self.n)), np.zeros((B, self.me)), np.zeros((B, self.mi))
        iters = np.full(B, -1)
        for sh, rows in zip(self.shapes, self._rows):
            if sh.mi == 0:
                xs = 0.5 * (sh.lb + sh.ub)
                x[rows, :sh.n] = xs
                y[rows, :sh.me] = [np.linalg.lstsq(sh.AT[j], -(sh.Q[j] @ xs[j] + sh.c[j]),
                                                   rcond=None)[0] for j in range(len(xs))]
                iters[rows] = 0
        m_eq, m_in = self._mult_widths
        sol = BatchSolution(np.empty((B, self.n)), np.zeros((B, m_eq)),
                            np.zeros((B, m_in)), np.zeros((B, self.n)),
                            np.zeros((B, self.n)), np.empty(B), np.empty(B),
                            np.empty(B, dtype=iters.dtype), self._widths)
        uncertified = np.ones(B, dtype=bool)  # the rows no active-set try certified
        if self._warm is not None:
            gate = self._gate & (iters < 0)
            for sh, rows, at, put_at in zip(self.shapes, self._rows, self._at, self._put_at):
                k = gate[rows].nonzero()[0]
                if not k.size:
                    continue
                every = k.size == len(at)  # then rows and solutions are slices
                r = rows if every else rows.start + k
                xa, ya, za, cert = sh._active_set_try(k, h[r, :sh.mi], self._act[r, :sh.mi])
                ok = cert[4] <= tol
                if not ok.all():
                    if not ok.any():
                        continue
                    k, xa, ya, za = k[ok], xa[ok], ya[ok], za[ok]
                    r, every = rows.start + k, False
                    cert = tuple(v[ok] for v in cert)
                x[r, :sh.n], y[r, :sh.me], z[r, :sh.mi] = xa, ya, za
                iters[r] = 0
                sol._put(put_at if every else at[k], cert)
                uncertified[r] = False
        if (iters < 0).any():  # the rest of the attempts, for the elements left
            x, y, z, iters = self._solve_left(h, x, y, z, iters, tol, max_iter)
        if uncertified.any():
            for sh, rows, at, put_at in zip(self.shapes, self._rows, self._at, self._put_at):
                # The rest are certified against the current right-hand sides.
                k = uncertified[rows].nonzero()[0]
                if not k.size:
                    continue
                xs, ys, zs = x[rows, :sh.n], y[rows, :sh.me], z[rows, :sh.mi]
                if k.size == len(at):  # every element: views, no copies
                    sol._put(put_at, sh._certify(xs, ys, zs))
                else:
                    sol._put(at[k], sh._certify(xs[k], ys[k], zs[k], k=k))
        np.take(x, self.row, axis=0, out=sol.x)
        np.take(iters, self.row, out=sol.iterations)
        self._warm = (x, z)  # no copies: the solution holds none of their memory
        act, clear = _active_set(h - self._ops.Gx(x), z)
        same = self._act is not None and _reduce_rows(np.logical_and, act == self._act, True)
        self._gate = clear & same & (act.sum(axis=1) <= self._free_dirs)
        self._act = act
        return sol

    def _solve_left(self, h, x, y, z, iters, tol, max_iter):
        """Steps 2 to 4 of ``solve`` for the rows whose ``iters`` are still
        negative: the interior point from each start, the polish, and the
        diagnosis of the first element in input order left unconverged.
        Returns the iterates (x, y, z) and ``iters``, written in place or,
        when the interior point took every row, its own arrays."""
        B = len(self.forms)
        x0 = 0.5 * (self.lb + self.ub)
        res = np.full(B, np.inf)
        starts = [(x0, None)] if self._warm is None else [self._warm, (x0, None)]
        for start, z_init in starts:
            todo = iters < 0
            if todo.all():  # the batch's own arrays, no copies
                x, y, z, iters, res = _ipm(self._ops, self.c, self.b, h, start, tol,
                                           max_iter, z_init=z_init)
            elif todo.any():
                x[todo], y[todo], z[todo], iters[todo], res[todo] = _ipm(
                    self._ops.take(todo), self.c[todo], self.b[todo], h[todo], start[todo],
                    tol, max_iter, z_init=None if z_init is None else z_init[todo])
        for k in self._order[iters < 0]:
            # Degenerate optima (weakly active rows) can stall the interior
            # point above tol; an active-set crossover from the best iterate
            # usually lands on the exact solution.
            sh, j, r = self._locate(k)
            fix = sh._polish(j, h[r, :sh.mi], x[r, :sh.n], z[r, :sh.mi], tol)
            if fix is not None:
                x[r, :sh.n], y[r, :sh.me], z[r, :sh.mi] = fix
                iters[r] = max_iter
        failed = self._order[iters < 0]
        if failed.size:
            k = int(failed.min())
            sh, _, r = self._locate(k)
            self._diagnose(k, x0[r, :sh.n], h[r, :sh.mi], int(max_iter), float(res[r]))
        return x, y, z, iters

    def _effective_form(self, k: int) -> QpStandardForm:
        """Form ``k`` with the batch's current right-hand sides.

        ``b_in`` and ``ub`` may have been overwritten since construction;
        a failure report must carry the problem actually solved.
        """
        sh, j, _ = self._locate(k)
        kwargs: dict = {"lb": sh.lb[j].copy(), "ub": sh.ub[j].copy()}
        if sh.m_in:
            kwargs["b_in"] = sh.b_in[j].copy()
        return dataclasses.replace(self.forms[k], **kwargs)

    def _diagnose(self, k: int, x0: np.ndarray, h: np.ndarray,
                  iterations: int, residual: float):
        """Raise the error of failed form ``k``, tagged with the element
        and its effective form; ``x0`` and ``h`` are the element's own."""
        err = self._classify(k, x0, h, iterations, residual)
        err.element = k
        err.form = self._effective_form(k)
        raise err

    def _classify(self, k: int, x0: np.ndarray, h: np.ndarray,
                  iterations: int, residual: float) -> QpError:
        """Inconsistent equalities, infeasible, or breakdown."""
        sh, j, _ = self._locate(k)
        A, b, G = sh.A[j], sh.b[j], sh.G[j]
        if sh.me:
            xls, *_ = np.linalg.lstsq(A, b, rcond=None)
            r = A @ xls - b
            if np.abs(r).max() > 1e-7 * (1.0 + np.abs(b).max()):
                cert = -r / np.linalg.norm(r)
                return QpInfeasibleError(
                    f"equality system inconsistent (element {k})", certificate=cert)
        try:
            t_star, cert = _phase1(A, b, G, h, x0)
        except QpNumericalError as exc:
            return QpNumericalError(f"{exc} (element {k})", exc.iterations, exc.residual)
        if t_star > 1e-6:
            return QpInfeasibleError(
                f"no feasible point (element {k}, phase-1 slack {t_star:.3e})",
                certificate=cert)
        return QpNumericalError(
            f"interior-point breakdown on a feasible problem (element {k})",
            iterations=iterations, residual=residual)

def solve_qp(form: QpStandardForm | CoupledForm, tol: float = 1e-8,
             max_iter: int = 200, validate: bool = True) -> PrimalDualSolution:
    """Solve one QP and return a certified primal-dual pair.

    Parameters
    ----------
    form : QpStandardForm or CoupledForm
        Problem data; boxes must be finite.  A coupled form is solved as
        ``form.dense()`` up to ``_DENSE_MAX`` stacked variables or with one
        block, and by block elimination (``_solve_coupled``) beyond; the
        solution is laid out as for ``form.dense()`` either way.
    tol : float
        Target for the recomputed KKT residual (max of the four norms).
    max_iter : int
        Interior-point iteration cap.
    validate : bool
        Check the form invariants (symmetry, PSD within 1e-9, shapes) first.

    Raises
    ------
    QpInfeasibleError
        After a phase-1 feasibility solve certifies there is no feasible point.
    QpNumericalError
        Breakdown on a problem phase 1 believes is feasible.
    """
    if isinstance(form, CoupledForm):
        if validate:
            _validate_coupled(form)
        n = sum(f.dim for f in form.blocks) + (form.extra is not None)
        if n > _DENSE_MAX and len(form.blocks) > 1 and (
                form.extra is None or form.extra[2] - form.extra[1] > _FIX_TOL):
            return _solve_coupled(form, tol, max_iter)
        form, validate = form.dense(), False
    return QpBatch([form], validate=validate).solve(tol=tol, max_iter=max_iter)[0]


def _validate_coupled(form: CoupledForm) -> None:
    """Raise ValueError on a malformed part of ``form``: the first malformed
    block (``_validate_forms``), then the coupling rows, their right-hand
    side and ``extra``."""
    _validate_forms(form.blocks)
    s_dim = form.rhs.shape[0]
    for f, mat in zip(form.blocks, form.coupling, strict=True):
        if mat.shape != (s_dim, f.dim) or not np.all(np.isfinite(mat)):
            raise ValueError("coupling rows have wrong shape or are not finite")
    if not np.all(np.isfinite(form.rhs)):
        raise ValueError("coupling right-hand side must be finite")
    if form.extra is not None and not (np.all(np.isfinite(form.extra))
                                       and form.extra[1] <= form.extra[2]):
        raise ValueError("trailing variable needs a finite cost and box, lb <= ub")


def _flat(parts) -> np.ndarray:
    return np.concatenate([np.ravel(p) for p in parts])[None]


class _Coupled:
    """The operators of one coupled QP, a batch of one over flat vectors.

    x is [each group's blocks, v], y is [each group's equality rows], and
    z, s and h are [each group's inequality rows, v's lower and upper box
    rows, the S coupling rows].  Blocks that share a ``shape_key`` form a
    group, held as a ``_Shape``, whose Newton systems are factorized as
    one batch.  The Newton step eliminates the blocks and solves the S x S
    Schur complement of the coupling rows (Woodbury), bordered by v's row
    when v exists, so no n_total x n_total matrix is ever formed.  The
    proximal shift of the block factorizations scales with the largest
    entry of the blocks' Q.  The QP takes one step length (``qp``) when
    some block's Q is nonzero, as its dense stack does.
    """

    pad = None
    mean = staticmethod(_row_mean)

    def __init__(self, groups: list[_Shape], coupling: list[np.ndarray], has_v: bool):
        self.groups = groups
        self.C = coupling                                  # (B, S, n) per group
        self.CT = [np.ascontiguousarray(m.transpose(0, 2, 1)) for m in coupling]
        self.has_v = has_v
        self.S = coupling[0].shape[1]
        self.P = _pair_rotation(coupling)
        self.prox = _PROX * max([1.0] + [float(np.abs(g.Q).max()) for g in groups if g.n])
        self.qp = np.array([any(g.Q.any() for g in groups)])
        self.n = sum(g.c.size for g in groups) + has_v
        self.me = sum(g.b.size for g in groups)
        self.mi = sum(len(g.forms) * g.mi for g in groups) + 2 * has_v + self.S

    @staticmethod
    def _parts(vec, widths, groups):
        """Views of each group's part of flat ``vec``, shaped (B, width)."""
        out, start = [], 0
        for g, w in zip(groups, widths):
            size = len(g.forms) * w
            out.append(vec[0, start:start + size].reshape(len(g.forms), w))
            start += size
        return out

    def xs(self, x):
        return self._parts(x, [g.n for g in self.groups], self.groups)

    def ys(self, y):
        return self._parts(y, [g.me for g in self.groups], self.groups)

    def zs(self, z):
        """The groups' parts, v's two box rows and the coupling rows."""
        rows = self.mi - self.S
        return (self._parts(z, [g.mi for g in self.groups], self.groups),
                z[0, rows - 2 * self.has_v:rows], z[0, rows:])

    def Qx(self, x):
        out = np.zeros_like(x)
        for g, xg, og in zip(self.groups, self.xs(x), self.xs(out)):
            og[...] = _mv(g.Q, xg)
        return out

    def Ax(self, x):
        out = np.empty((1, self.me))
        for g, xg, og in zip(self.groups, self.xs(x), self.ys(out)):
            og[...] = _mv(g.A, xg)
        return out

    def ATy(self, y):
        out = np.zeros((1, self.n))
        for g, yg, og in zip(self.groups, self.ys(y), self.xs(out)):
            og[...] = _mv(g.AT, yg)
        return out

    def coupling_rows(self, x):
        """sum_k C_k x_k (- v): the left-hand sides of the coupling rows."""
        total = sum(_mv(m, xg).sum(axis=0) for m, xg in zip(self.C, self.xs(x)))
        return total - x[0, -1] if self.has_v else total

    def Gx(self, x):
        out = np.empty((1, self.mi))
        groups, v_rows, rows = self.zs(out)
        for g, xg, og in zip(self.groups, self.xs(x), groups):
            og[...] = _mv(g.G, xg)
        if self.has_v:
            v_rows[:] = (-x[0, -1], x[0, -1])
        rows[:] = self.coupling_rows(x)
        return out

    def GTz(self, z):
        out = np.zeros((1, self.n))
        groups, v_rows, rows = self.zs(z)
        for g, ct, zg, og in zip(self.groups, self.CT, groups, self.xs(out)):
            og[...] = _mv(g.GT, zg) + ct @ rows
        if self.has_v:
            out[0, -1] = v_rows[1] - v_rows[0] - rows.sum()
        return out

    def newton(self, z, s, rd, rp, rg):
        """The Newton step at an iterate, as ``_Stacked.newton``.

        The step solves the augmented system, W = z / s and U = [C'; 0]:

            [ Kb    U        0   ] [ d     ]   [ r   ]
            [ U'   -W_c^-1  -1   ] [ dzeta ] = [ 0   ]
            [ 0    -1'      h_v  ] [ dv    ]   [ r_v ]

        Kb holds each group's batched quasi-definite matrices, h_v is v's
        barrier weight and dzeta = W_c (C dx - dv) is the coupling rows'
        share of dz.  Eliminating d leaves Sigma = U'Kb^-1 U + W_c^-1, an
        S x S Schur complement (Woodbury), bordered by v's row so that a
        small h_v is never divided by.  Sigma is solved in the basis of
        ``_pair_rotation``, where a pair's sum row of U'Kb^-1 U is exactly
        zero and the pair's W_c^-1 terms are not lost to rounding.

        A block that only the coupling rows hold in place (linear cost,
        interior variables) makes Kb^-1 huge and d a difference of huge
        terms.  The groups are therefore factorized with a proximal shift
        ``self.prox`` on their x-diagonal, and the step is refined against
        the unshifted system, whose residual has no W_c factor: it is exact
        wherever the curvature or the coupling rows fix the step, and
        damped along directions that are flat in both.  The coupling rows'
        dz is q_c + dzeta; recomputing it from C dx would multiply the
        rounding of C dx by W_c.
        """
        w_groups, w_v, w_c = self.zs(z / s)
        shifted, exact, KiU = [], [], []
        schur = np.zeros((self.S, self.S))
        for g, ct, m, wg in zip(self.groups, self.CT, self.C, w_groups):
            exact.append(_kkt_matrix(g.Q, g.A, g.AT, g.G, g.GT, wg))
            shifted.append(_kkt_matrix(g.Q, g.A, g.AT, g.G, g.GT, wg, self.prox))
            U = np.zeros((len(g.forms), g.n + g.me, self.S))
            U[:, :g.n] = ct
            KiU.append(_solve_kkt(shifted[-1], U, g.n, g.me))
            schur += (m @ KiU[-1][:, :g.n]).sum(axis=0)
        P = self.P  # U'Kb^-1 U and W_c^-1 are rotated apart, then added
        schur = P.T @ schur @ P + (P.T / w_c) @ P
        h_v = w_v.sum() + _REG
        if self.has_v:
            ones = P.T @ np.ones(self.S)
            schur = np.block([[schur, ones[:, None]],
                              [-ones[None, :], np.full((1, 1), h_v)]])
        rows = self.mi - self.S

        def coupling(d):
            return sum(_mv(m, dg[:, :g.n]).sum(axis=0)
                       for m, dg, g in zip(self.C, d, self.groups))

        def eliminate(r, r_c, r_v):
            """The shifted system's solution for right-hand side (r, r_c, r_v)."""
            Kir = [_solve_kkt(K, rb, g.n, g.me) for K, rb, g in zip(shifted, r, self.groups)]
            t = P.T @ (coupling(Kir) - r_c)
            sol = _solve_dense(schur, np.append(t, r_v) if self.has_v else t)
            dzeta = P @ sol[:self.S]
            return [k - kiu @ dzeta for k, kiu in zip(Kir, KiU)], dzeta, sol[self.S:]

        ry = -rp

        def step(rc):
            q = (z * rg - rc) / s
            rx = -(rd + self.GTz(q))
            r = [np.concatenate([a, b], axis=1) for a, b in zip(self.xs(rx), self.ys(ry))]
            r_v = rx[0, -1] if self.has_v else 0.0
            cand = eliminate(r, 0.0, r_v)
            best, err = cand, np.inf
            for _ in range(_REFINE + 1):
                d, dzeta, dv = cand
                res = [rb - _mv(K, db) for K, rb, db in zip(exact, r, d)]
                for rb, ct, g in zip(res, self.CT, self.groups):
                    rb[:, :g.n] -= ct @ dzeta
                res_c = dzeta / w_c - coupling(d)
                res_v = 0.0
                if self.has_v:
                    res_c += dv[0]
                    res_v = r_v - h_v * dv[0] + dzeta.sum()
                new_err = max([_amax_abs(rb).max() for rb in res]
                              + [_amax_abs(res_c), abs(res_v)])
                if not new_err < 0.5 * err:
                    break
                best, err = cand, new_err
                cd, cz, cv = eliminate(res, res_c, res_v)
                cand = ([a + b for a, b in zip(d, cd)], dzeta + cz, dv + cv)
            d, dzeta, dv = best
            dx, dy = np.empty_like(rx), np.empty_like(ry)
            for g, dg, xg, yg in zip(self.groups, d, self.xs(dx), self.ys(dy)):
                xg[...], yg[...] = dg[:, :g.n], dg[:, g.n:]
            if self.has_v:
                dx[0, -1] = dv[0]
            dsz = _slack_steps(-rg, self.Gx(dx), rc, z, s)
            dsz[0, self.mi + rows:] = q[0, rows:] + dzeta  # the coupling rows' dz
            return dx, dy, dsz
        return step


def _opposite_pairs(coupling: list[np.ndarray]) -> list[tuple[int, int]]:
    """The pairs (j, k), j < k, of opposite coupling rows: row k is the exact
    negative of row j in every block, an equality written as two rows.  A
    row belongs to one pair at most.  ``coupling`` holds (B, S, n) rows."""
    S = coupling[0].shape[1]
    pairs: list[tuple[int, int]] = []
    paired: set[int] = set()
    for j in range(S):
        for k in range(j + 1, S):
            if j not in paired and k not in paired and all(
                    np.array_equal(m[:, k], -m[:, j]) for m in coupling):
                pairs.append((j, k))
                paired |= {j, k}
    return pairs


def _pair_rotation(coupling: list[np.ndarray]) -> np.ndarray:
    """An orthogonal basis of the coupling rows' space: the identity, except
    that each pair of opposite rows (``_opposite_pairs``) is replaced by the
    pair's difference and sum, whose row of C is then zero.  ``coupling``
    holds each group's (B, S, n) rows."""
    P = np.eye(coupling[0].shape[1])
    r = np.sqrt(0.5)
    for j, k in _opposite_pairs(coupling):
        P[[j, k], j] = (r, -r)
        P[[j, k], k] = (r, r)
    return P


def _solve_dense(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M^-1 rhs, or a least-squares solution when M is exactly singular."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]


def _solve_coupled(form: CoupledForm, tol: float, max_iter: int) -> PrimalDualSolution:
    """Solve a coupled QP of two or more blocks by block elimination.

    The predictor-corrector loop is ``_ipm``'s; only the operators differ
    (``_Coupled``), and its step length, residuals and barrier parameter
    range over the whole problem.  The certificate is computed per group
    (``_Shape._certify``, with the coupling rows' gradient added) and for
    the coupling rows and v, and equals ``kkt_residuals(form.dense(), sol)``
    up to rounding.  Should the loop not converge, the dense QP is solved
    instead, with its polish and its phase-1 diagnosis of a failure.
    """
    members = shape_groups(form.blocks)
    groups = [_Shape([form.blocks[k] for k in idx]) for idx in members]
    ops = _Coupled(groups, [np.stack([form.coupling[k] for k in idx]) for idx in members],
                   form.extra is not None)
    v_cost, v_lb, v_ub = form.extra if form.extra is not None else (0.0, 0.0, 0.0)
    v = [np.array([0.5 * (v_lb + v_ub)])] if ops.has_v else []
    x0 = _flat([0.5 * (g.lb + g.ub) for g in groups] + v)
    c = _flat([g.c for g in groups] + ([np.array([v_cost])] if ops.has_v else []))
    b = _flat([g.b for g in groups])
    h = _flat([g._h() for g in groups]
              + ([np.array([-v_lb, v_ub])] if ops.has_v else []) + [form.rhs])
    x, y, z, iters, _ = _ipm(ops, c, b, h, x0, tol, max_iter)
    if iters[0] < 0:
        return QpBatch([form.dense()], validate=False).solve(tol=tol, max_iter=max_iter)[0]

    z_groups, z_v, z_c = ops.zs(z)
    slack = form.rhs - ops.coupling_rows(x)
    kkt = [max(0.0, -_amin(slack)), max(0.0, -_amin(z_c)), _amax_abs(z_c * slack)]
    objective = 0.0
    parts: list = [None] * len(form.blocks)
    for g, idx, ct, xg, yg, zg in zip(groups, members, ops.CT, ops.xs(x), ops.ys(y), z_groups):
        eq, ineq, lo, hi, res, obj = g._certify(xg, yg, zg, ct @ z_c)
        kkt.append(res.max())
        objective += obj.sum()
        for j, k in enumerate(idx):
            parts[k] = (xg[j], eq[j], ineq[j], lo[j], hi[j])
    cols = [list(p) for p in zip(*parts)]
    if ops.has_v:
        xv = x[0, -1]
        grad = v_cost - z_v[0] + z_v[1] - z_c.sum()
        kkt += [abs(grad), max(0.0, v_lb - xv, xv - v_ub), max(0.0, -z_v.min()),
                abs(z_v[0] * (xv - v_lb)), abs(z_v[1] * (v_ub - xv))]
        objective += v_cost * xv
        for col, part in zip(cols, (x[0, -1:], [], [], z_v[:1], z_v[1:])):
            col.append(np.asarray(part, dtype=float))
    xs, eqs, ineqs, los, his = (np.concatenate(col) for col in cols)
    return PrimalDualSolution(x=xs, eq_mult=eqs, ineq_mult=np.concatenate([ineqs, z_c]),
                              box_lower_mult=los, box_upper_mult=his,
                              objective=float(objective), kkt_residual=float(max(kkt)),
                              iterations=int(iters[0]))


def _step_lengths(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """The largest alpha, capped at 1, keeping each half of each batch row
    of v + alpha*dv >= 0, from one reduction: (B, 2), the first half's in
    column 0.  ``v`` holds the slacks and multipliers [s | z] side by side.

    The ratios v / -dv are divided out everywhere and those where dv >= 0
    discarded, which is several times faster than a masked division.  The
    division's warnings are ignored: a discarded ratio means nothing, and a
    kept one that overflows is inf, which bounds nothing.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(dv < 0, v / -dv, np.inf)
    halves = ratio.reshape(2 * len(v), v.shape[1] // 2)
    return _reduce_rows(np.minimum, halves, 1.0).reshape(len(v), 2)


def _solve_kkt(K, rhs, n, me):
    """Solve the batched quasi-definite systems, degrading gracefully.

    ``rhs`` holds one right-hand side per element, (B, n + me), or several,
    (B, n + me, k).  The fast path factorizes the whole batch at once.  An
    exactly singular element (possible at degenerate optima where whole
    rows shrink to rounding level) poisons the batched call, so on failure
    each element is retried alone with growing regularization and finally
    least squares, which never raises; the outer safeguards absorb a poor
    direction.
    """
    try:
        if rhs.ndim == 3:
            return np.linalg.solve(K, rhs)
        return np.linalg.solve(K, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    out = np.empty(rhs.shape)
    diag = np.arange(n + me)
    for k in range(K.shape[0]):
        try:
            out[k] = np.linalg.solve(K[k], rhs[k])
            continue
        except np.linalg.LinAlgError:
            pass
        kk = K[k].copy()
        kk[diag[:n], diag[:n]] += 1e-8
        kk[diag[n:], diag[n:]] -= 1e-8
        try:
            out[k] = np.linalg.solve(kk, rhs[k])
        except np.linalg.LinAlgError:
            out[k] = np.linalg.lstsq(kk, rhs[k], rcond=None)[0]
    return out


def _active_set(slack, z):
    """The active rows of batched iterates, z_i > max(s_i, 1e-10) with
    s = max(h - Gx, 0) from ``slack`` = h - Gx, and whether each element
    separates every row clearly: min(z_i, s_i) < _SEPARATION * max(z_i, s_i)."""
    s = np.maximum(slack, 0.0)
    act = z > np.maximum(s, 1e-10)
    clear = _reduce_rows(np.logical_and, np.minimum(z, s) < _SEPARATION * np.maximum(z, s),
                         True)
    return act, clear


def _active_set_system(Q, A, G, act):
    """Each element's KKT matrix on its active rows ``act``, with the rows
    of G it holds (``order``, active rows first) and which of them are
    active (``on``): the one builder of the active-set tries and polish.

    The system is ``_kkt_matrix``'s with each element's active rows of G
    appended to its equality rows, and padded by rows that read -z = 0 to
    n - me active rows (more if some element has more), so it stays
    quasi-definite, and its size, 2n, depends on the shape alone.  With
    every row of G in it instead, the microgrid's systems would pass the
    100 unknowns from which LAPACK runs multithreaded, whose idle threads
    spin on the other cores.
    """
    n, me = Q.shape[-1], A.shape[1]
    order = np.argsort(~act, axis=1, kind="stable")[:, :max(n - me, act.sum(axis=1).max())]
    rows = (np.arange(len(act))[:, None], order)  # each element's active rows first
    on = act[rows]  # False on padding rows
    E = np.concatenate([A, G[rows] * on[:, :, None]], axis=1)
    ET = E.transpose(0, 2, 1)
    K = _kkt_matrix(Q, E, ET, E[:, :0], ET[:, :, :0], np.zeros((len(act), 0)))
    diag = K.reshape(len(K), -1)[:, ::K.shape[-1] + 1]
    diag[:, n + me:] -= ~on
    return K, order, on


@lru_cache(maxsize=256)
def _column(B: int) -> np.ndarray:
    """``np.arange(B)[:, None]``, made once per B (read-only: it is shared)."""
    out = np.arange(B)[:, None]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _reg_shift(n: int, size: int) -> np.ndarray:
    """The diagonal shift of a ``size``-row ``_kkt_matrix`` with n primal
    rows, _REG on those and -_REG on the rest, made once (read-only)."""
    out = np.where(np.arange(size) < n, _REG, -_REG)
    out.flags.writeable = False
    return out


def _active_set_point(K, solve, c, b, h, order, on):
    """The KKT point (x, y, z) of each ``_active_set_system`` K at the
    right-hand sides c, b and h; ``solve(rhs)`` applies K's inverse."""
    n, me = c.shape[1], b.shape[1]
    rows = (_column(len(order)), order)
    rhs = np.concatenate([-c, b, h[rows] * on], axis=1)
    d = solve(rhs)
    # One refinement step against the unshifted system: the shift alone
    # leaves an active row the slack -_REG z_i, whose complementarity
    # _REG z_i^2 passes 1e-9 once z_i passes about 30.
    d += solve(rhs - _mv(K, d) + _reg_shift(n, K.shape[-1]) * d)
    z = np.zeros_like(h)
    z[rows] = np.where(on, d[:, n + me:], 0.0)
    return d[:, :n], d[:, n:n + me], z


def _slack_steps(nrg, gdx, rc, z, s):
    """A Newton step's ds = -rg - G dx and dz = (-rc - z ds) / s side by
    side, [ds | dz], from ``nrg`` = -rg and ``gdx`` = G dx."""
    mi = z.shape[1]
    out = np.empty((len(z), 2 * mi))
    ds = np.subtract(nrg, gdx, out=out[:, :mi])
    np.divide(-rc - z * ds, s, out=out[:, mi:])
    return out


class _Stacked:
    """The constraint operators of a batch of same-shape QPs, one dense
    array per element: the matvecs and Newton systems of ``_ipm``.  Its
    vectors have no pad rows (``pad``), so each mean is a row mean.  ``qp``
    flags the elements whose Q is nonzero, which take one step length."""

    pad = None
    mean = staticmethod(_row_mean)

    def __init__(self, Q, A, AT, G, GT, qp=None):
        self.data = (Q, A, AT, G, GT)
        self.qp = Q.any(axis=(1, 2)) if qp is None else qp
        self.Qx, self.Ax, self.ATy, self.Gx, self.GTz = (partial(_mv, m) for m in self.data)

    def take(self, keep: np.ndarray) -> "_Stacked":
        return _Stacked(*(m[keep] for m in self.data), self.qp[keep])

    def newton(self, z, s, rd, rp, rg):
        """The Newton step at an iterate with slacks s, multipliers z and
        residuals (rd, rp, rg): a function of the complementarity target
        rc that returns (dx, dy, [ds | dz]) (``_slack_steps``)."""
        Q, A, AT, G, GT = self.data
        K = _kkt_matrix(Q, A, AT, G, GT, z / s)
        n = Q.shape[-1]
        me = A.shape[1]
        rhs = np.empty((Q.shape[0], n + me))
        rhs[:, n:] = -rp
        zrg, nrg = z * rg, -rg  # the same in both steps

        def step(rc):
            rhs[:, :n] = -(rd + self.GTz((zrg - rc) / s))
            d = _solve_kkt(K, rhs, n, me)
            dx, dy = d[:, :n], d[:, n:]
            return dx, dy, _slack_steps(nrg, self.Gx(dx), rc, z, s)
        return step


class _Mixed:
    """The operators of a batch of several shapes: each shape's
    ``_Stacked`` acts on its consecutive ``rows`` and on its own columns of
    vectors padded to ``width`` = (n, me, mi), the widest shape's.  Every
    product is zero in the pad columns.  ``pad`` is 1 on each element's
    own inequality rows and 0 on its pad rows, and ``mean`` averages each
    element's own rows only (``own`` of them), so an element's arithmetic is
    the same as in a batch of its shape alone; ``qp`` is the parts' flags,
    row by row."""

    def __init__(self, parts: list[_Stacked], rows: list[slice],
                 width: tuple[int, int, int], pad: np.ndarray):
        self.parts, self.rows, self.width, self.pad = parts, rows, width, pad
        self.qp = np.concatenate([part.qp for part in parts])
        self.own = np.repeat([float(part.data[3].shape[1]) for part in parts],
                             [r.stop - r.start for r in rows])

    def _apply(self, which: int, v: np.ndarray, width: int) -> np.ndarray:
        out = np.zeros((len(v), width))
        for part, rows in zip(self.parts, self.rows):
            m = part.data[which]
            if m.size:  # an empty product leaves its zeros
                np.matmul(m, v[rows, :m.shape[2], None], out=out[rows, :m.shape[1], None])
        return out

    def Qx(self, x):
        return self._apply(0, x, self.width[0])

    def Ax(self, x):
        return self._apply(1, x, self.width[1])

    def ATy(self, y):
        return self._apply(2, y, self.width[0])

    def Gx(self, x):
        return self._apply(3, x, self.width[2])

    def GTz(self, z):
        return self._apply(4, z, self.width[0])

    def mean(self, v: np.ndarray) -> np.ndarray:
        """``_row_mean`` of each element's own rows."""
        out = np.empty(len(v))
        for part, rows in zip(self.parts, self.rows):
            np.add.reduce(v[rows, :part.data[3].shape[1]], axis=1, out=out[rows])
        return out / self.own

    def take(self, keep: np.ndarray) -> "_Mixed":
        """The rows where the boolean ``keep`` holds."""
        parts, rows, start = [], [], 0
        for part, r in zip(self.parts, self.rows):
            k = keep[r]
            count = int(k.sum())
            if count:
                parts.append(part if count == len(k) else part.take(k))
                rows.append(slice(start, start + count))
                start += count
        return _Mixed(parts, rows, self.width, self.pad[keep])

    def newton(self, z, s, rd, rp, rg):
        """The Newton step of ``_Stacked.newton``, factorized shape by shape."""
        w = z / s
        systems = []
        for part, rows in zip(self.parts, self.rows):
            Q, A, AT, G, GT = part.data
            n, me = Q.shape[-1], A.shape[1]
            rhs = np.empty((Q.shape[0], n + me))
            rhs[:, n:] = -rp[rows, :me]
            systems.append((_kkt_matrix(Q, A, AT, G, GT, w[rows, :G.shape[1]]), rhs, n, me))

        zrg, nrg = z * rg, -rg

        def step(rc):
            r = -(rd + self.GTz((zrg - rc) / s))
            dx, dy = np.zeros_like(rd), np.zeros_like(rp)
            for rows, (K, rhs, n, me) in zip(self.rows, systems):
                rhs[:, :n] = r[rows, :n]
                d = _solve_kkt(K, rhs, n, me)
                dx[rows, :n], dy[rows, :me] = d[:, :n], d[:, n:]
            return dx, dy, _slack_steps(nrg, self.Gx(dx), rc, z, s)
        return step


_REG = 1e-12    # primal-dual regularization of every Newton system
_SEPARATION = 1e-3  # a row is clearly active or inactive when min(z, s) < this * max(z, s)
_PROX = 1e-3    # proximal shift of a coupled QP's block factorizations, per unit of Q
_REFINE = 10    # refinement steps of a coupled Newton step, at most
_POLISH_ROUNDS = 50  # active sets a polish visits, at most


def _kkt_matrix(Q, A, AT, G, GT, w, reg=_REG):
    """Batched quasi-definite matrices [[Q + G'WG + reg, A'], [A, -_REG]]."""
    n = Q.shape[-1]
    me = A.shape[1]
    # A new C-ordered array (the diagonal below is a view), whole when me = 0.
    K = np.add(Q, (GT * w[:, None, :]) @ G, order="C")
    if me:
        top, K = K, np.zeros((Q.shape[0], n + me, n + me))
        K[:, :n, :n] = top
        K[:, :n, n:] = AT
        K[:, n:, :n] = A
    diag = K.reshape(len(K), -1)[:, ::n + me + 1]  # a view of the diagonals
    diag[:, :n] += reg
    diag[:, n:] -= _REG
    return K


def _ipm(ops, c, b, h, x0, tol, max_iter, z_init=None):
    """Batched Mehrotra predictor-corrector loop over the live elements.

    ``ops`` applies the element's Q, A, A', G and G' and makes its Newton
    steps (``_Stacked`` for a batch of one shape, ``_Mixed`` for several,
    ``_Coupled`` for one coupled QP whose vectors are flat); ``c``, ``b``,
    ``h`` and ``x0`` carry a leading batch axis.  Returns final (x, y, z,
    iters, res); iters[k] is the iteration at which element k converged,
    or -1 if it never did.

    Everything but the operators runs once per iteration over all live
    elements.  Under ``_Mixed`` the vectors are padded to the widest shape:
    pad entries of x, y, z, c and b are 0 and those of s and h are 1, so
    every residual, step length and test reads 0 or inf there.  ``ops.pad``
    masks the floor and the centring target sigma mu on pad rows, which
    keeps them at s = 1 and z = 0, and ``ops.mean`` takes mu over each
    element's own rows.

    The start floors the slacks ``h - Gx0`` and the inequality multipliers
    ``z_init`` per element.  With ``z_init`` (an element's last multipliers,
    ``x0`` its last solution) the floor is ``min(1, max(1e-3, v_k))``, where
    ``v_k`` is the largest violation of ``G x0 <= h``: an element whose
    right-hand side barely moved restarts next to its last solution, one
    whose right-hand side jumped restarts about as well centred as a cold
    start (Yildirim & Wright, 2002).  Without ``z_init`` the start is cold:
    zero multipliers and a floor of 1.

    Step lengths.  The affine predictor's primal and dual lengths only set
    sigma, and stay separate.  The corrector step moves the primal pair
    (x, s) by 0.995 alpha_p and the dual pair (z, y) by 0.995 alpha_d for
    an LP element (Q = 0), as in Mehrotra's LP method, and both pairs by
    0.995 min(alpha_p, alpha_d) for an element whose Q is nonzero
    (``ops.qp``): in a QP, x enters the dual residual Qx + c + G'z + A'y,
    so separate lengths do not reduce it (Nocedal & Wright, Numerical
    Optimization, section 16.6).  On them, warm solves of random N = 200
    instances cycled for about 100 iterations before their cold retry.

    An element leaves the loop once it converges, fails or stalls (no
    improvement of its residual for 30 iterations), keeping its last
    iterate.  From then on the data and iterates of the live elements are
    gathered into smaller arrays and only those are factorized; while every
    element is live the full arrays are used as they are.  Every rule is
    per element and all elements start at iteration 0, so an element's
    result does not depend on which others share its batch.  Each element's
    iterate is one row [x | s | z | y] and its direction one row of the
    same layout, so a step is one update per pair, and the finiteness
    test, the best-iterate copy and the gather of the live rows are one
    operation each.
    """
    B, n = c.shape
    me, mi = b.shape[1], h.shape[1]
    data = np.concatenate([c, b, h], axis=1)  # gathered as one
    c, b, h = data[:, :n], data[:, n:n + me], data[:, n + me:]
    slack = h - ops.Gx(x0)
    if z_init is None:  # cold: floor 1, zero multipliers
        floor, z_init = 1.0, np.zeros_like(slack)
    else:  # the largest violation of G x0 <= h (0 if none), clipped to [1e-3, 1]
        floor = np.clip(-slack.min(axis=1, initial=0.0), 1e-3, 1.0)[:, None]
    if ops.pad is not None:  # pad rows start, and stay, at s = 1 and z = 0
        floor = floor * ops.pad
    v = np.concatenate([x0, np.maximum(slack, floor), np.maximum(z_init, floor),
                        np.zeros((B, me))], axis=1)
    cut, sz = n + mi, slice(n, n + 2 * mi)  # the primal pair ends at cut; s and z
    sides = (cut, v.shape[1] - cut)  # columns per pair, for np.repeat of its length

    def parts(v):
        """Views of x, s, z and y in the iterates ``v``."""
        return v[:, :n], v[:, n:cut], v[:, cut:cut + mi], v[:, cut + mi:]

    iters = np.full(B, -1, dtype=int)
    res = np.full(B, np.inf)
    best_res = np.full(B, np.inf)
    best = v.copy()
    last_improve = np.zeros(B, dtype=int)
    stuck = np.zeros(B, dtype=bool)  # elements whose last direction was not finite
    v_all = v  # the whole batch's iterates; v below holds the live ones
    live = np.arange(B)
    it = 0
    while True:
        x, s, z, y = parts(v)
        gx = ops.Gx(x)
        # The residuals [rd | rp | rg | z (h - Gx)], gathered as one.
        r = np.concatenate([ops.Qx(x) + c + ops.GTz(z) + ops.ATy(y), ops.Ax(x) - b,
                            gx + s - h, z * (h - gx)], axis=1)
        comp = s * z
        res_live = _reduce_rows(np.maximum, np.abs(r), 0.0)
        res[live] = res_live
        # res_live is >= 0, +inf or NaN, so where it is not finite it
        # neither improves nor converges.
        best_live = best_res[live]
        improved = res_live < 0.999 * best_live
        if improved.any():
            k = live[improved]
            best_res[k] = res_live[improved]
            best[k] = v[improved]
            last_improve[k] = it
        converged = res_live <= tol
        iters[live[converged]] = it
        # Ill-conditioning near a degenerate optimum can blow up late
        # iterates; an element stops on divergence or a long stall, and
        # falls back to the best iterate seen if it never reached tol.
        active = ~converged
        if it > 30:  # no element can have stalled sooner
            active &= it - last_improve[live] <= 30
        if not active.any() or it >= max_iter:
            break
        it += 1
        mu = ops.mean(comp)
        # An improved element's residual is below its best, so the best
        # from before this iteration's update gives the same divergence test.
        active &= np.isfinite(mu) & (mu <= 1e18) & np.isfinite(res_live) & ~stuck \
            & ~((res_live > 1e4 * best_live) & (res_live > 1.0))
        if not active.any():
            break
        if not active.all():
            # Converged and failed elements leave the loop with their last
            # iterate; the live ones are gathered and step on alone.
            gone = ~active
            v_all[live[gone]] = v[gone]
            live = live[active]
            ops = ops.take(active)
            data, v, r, comp, mu = (a[active] for a in (data, v, r, comp, mu))
            c, b, h = data[:, :n], data[:, n:n + me], data[:, n + me:]
            x, s, z, y = parts(v)
        rd, rp, rg = r[:, :n], r[:, n:n + me], r[:, n + me:n + me + mi]
        newton = ops.newton(z, s, rd, rp, rg)
        _, _, dsz = newton(comp)
        ds, dz = dsz[:, :mi], dsz[:, mi:]
        aff = v[:, sz] + np.repeat(_step_lengths(v[:, sz], dsz), mi, axis=1) * dsz
        mu_aff = ops.mean(aff[:, :mi] * aff[:, mi:])
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = np.minimum(np.maximum((mu_aff / mu) ** 3, 1e-10), 0.99)  # a clip
        sigma = np.where(np.isfinite(sigma), sigma, 0.5)
        target = (sigma * mu)[:, None]
        if ops.pad is not None:
            target = target * ops.pad
        rc_vec = comp + ds * dz - target
        dx, dy, dsz = newton(rc_vec)
        d = np.concatenate([dx, dsz, dy], axis=1)
        stuck = ~_reduce_rows(np.logical_and, np.isfinite(d), True)
        if stuck.any():
            # A non-finite direction must not reach the iterate (0 * inf is
            # NaN): the element keeps its iterate and leaves at the check.
            d[stuck] = 0.0
        a = 0.995 * _step_lengths(v[:, sz], d[:, sz])
        a = np.where(ops.qp[:, None], np.minimum(a[:, :1], a[:, 1:]), a)  # a QP: one length
        v += np.repeat(a, sides, axis=1) * d
    v_all[live] = v
    unconverged = iters < 0
    if unconverged.any():
        v_all[unconverged] = best[unconverged]
        res = np.minimum(res, best_res)
    x, _, z, y = parts(v_all)
    return x, y, z, iters, res


def _phase1(A, b, G, h, x0):
    """Minimize the worst inequality violation; equalities are kept hard.

    Returns (t_star, certificate) where the certificate stacks the
    normalized inequality multipliers (a Farkas direction when t_star > 0).
    """
    n = x0.size
    mi = G.shape[0]
    me = A.shape[0]
    Q1 = np.zeros((n + 1, n + 1))
    c1 = np.zeros(n + 1)
    c1[-1] = 1.0
    A1 = np.concatenate([A, np.zeros((me, 1))], axis=1)
    G1 = np.zeros((mi + 1, n + 1))
    G1[:mi, :n] = G
    G1[:mi, n] = -1.0
    G1[mi, n] = -1.0
    h1 = np.concatenate([h, [1.0]])
    t0 = max(0.0, float((G @ x0 - h).max())) + 1.0
    x01 = np.concatenate([x0, [t0]])
    ops = _Stacked(Q1[None], A1[None], A1.T[None].copy(), G1[None], G1.T[None].copy())
    x, y, z, iters, res = _ipm(ops, c1[None], b[None], h1[None], x01[None], 1e-9, 300)
    if iters[0] < 0:
        raise QpNumericalError("phase-1 feasibility solve broke down",
                               iterations=300, residual=float(res[0]))
    t_star = float(x[0, -1])
    zg = z[0, :mi]
    total = zg.sum()
    cert = zg / total if total > 0 else zg
    return t_star, cert
