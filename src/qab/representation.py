"""The 4M-dimensional q-oscillator bound-state representation.

States |m,n,k,l> carry two fermionic occupation numbers m, n in {0,1} and two
bosonic levels k, l >= 0 with m+n+k+l = M.  The basis is stored family-major,

    |k>^1 = |0,0,k,M-k>        k = 0..M
    |k>^2 = |1,1,k-1,M-k-1>    k = 1..M-1
    |k>^3 = |1,0,k,M-k-1>      k = 0..M-1
    |k>^4 = |0,1,k,M-k-1>      k = 0..M-1

so the reflection matrix acts block-contiguously.  Chevalley generators are
dense matrices tagged with a parity; supercharges (i = 2, 4) are odd.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .kinematics import Kinematics, ModelParams, affine_labels, bulk_labels, derive_couplings
from .numerics import log, qint

# Symmetrized Cartan matrix DA and normalization D = diag(1,-1,-1,-1).
DA = np.array(
    [
        [2, -1, 0, -1],
        [-1, 0, 1, 0],
        [0, 1, -2, 1],
        [-1, 0, 1, 0],
    ]
)
D_DIAG = (1, -1, -1, -1)

GENERATOR_PARITY = {
    **{f"E{i}": (1 if i in (2, 4) else 0) for i in (1, 2, 3, 4)},
    **{f"F{i}": (1 if i in (2, 4) else 0) for i in (1, 2, 3, 4)},
    **{f"K{i}": 0 for i in (1, 2, 3, 4)},
}
GENERATORS = tuple(GENERATOR_PARITY)

#: Weight (H1, H3) = (l - k, n - m) step of each raising and lowering
#: generator, E1..E4 then F1..F4.  K1 = q^H1 and K3 = q^H3, so
#: K_i E_j K_i^-1 = q^DA[i-1][j-1] E_j makes E_j step by
#: (DA[0][j-1], DA[2][j-1]) and F_j by the opposite; the K_i keep every weight.
SHIFTS = {f"{x}{j + 1}": (sign * int(DA[0][j]), sign * int(DA[2][j]))
          for x, sign in (("E", 1), ("F", -1)) for j in range(4)}


@dataclass(frozen=True)
class RepSpace:
    """Enumerated bound-state basis for a given M, equal and hashed by (M, states)."""

    M: int
    states: tuple  # tuples (m, n, k, l), family-major
    index: dict = field(repr=False, compare=False)
    families: dict = field(repr=False, compare=False)  # family -> basis indices, k ascending
    weights: np.ndarray = field(repr=False, compare=False)  # (d, 2): (l - k, n - m) per state
    parities: np.ndarray = field(repr=False, compare=False)  # (m + n) % 2, that of n - m

    @property
    def dim(self) -> int:
        return len(self.states)


def build_basis(M: int) -> RepSpace:
    """Family-major basis of dimension 4M with blocks (M+1, M-1, M, M)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    states = []
    families = {}
    families[1] = []
    for k in range(M + 1):
        families[1].append(len(states))
        states.append((0, 0, k, M - k))
    families[2] = []
    for k in range(1, M):
        families[2].append(len(states))
        states.append((1, 1, k - 1, M - k - 1))
    families[3] = []
    for k in range(M):
        families[3].append(len(states))
        states.append((1, 0, k, M - k - 1))
    families[4] = []
    for k in range(M):
        families[4].append(len(states))
        states.append((0, 1, k, M - k - 1))
    index = {s: i for i, s in enumerate(states)}
    assert len(states) == 4 * M
    weights = np.array([(l - k, n - m) for m, n, k, l in states])
    return RepSpace(M, tuple(states), index, families, weights, weights[:, 1] % 2)


@dataclass(frozen=True)
class GradedOperator:
    """Dense matrix over a graded basis together with its parity."""

    # an object matrix's repr formats every mpmath entry; mpmath builds one
    # for its error message each time `mpc * op` falls back to __rmul__
    matrix: np.ndarray = field(repr=False)
    parity: int

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        return GradedOperator(self.matrix @ other.matrix, (self.parity + other.parity) % 2)

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        if self.parity != other.parity:
            raise ValueError("cannot add operators of different parity")
        return GradedOperator(self.matrix + other.matrix, self.parity)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        if self.parity != other.parity:
            raise ValueError("cannot subtract operators of different parity")
        return GradedOperator(self.matrix - other.matrix, self.parity)

    def __mul__(self, scalar) -> "GradedOperator":
        return GradedOperator(self.matrix * scalar, self.parity)

    __rmul__ = __mul__

    def inv(self) -> "GradedOperator":
        """The inverse of a diagonal operator: every operator inverted here is
        a K_i or a product of K_i, so it is the reciprocal of the diagonal."""
        d = np.diagonal(self.matrix)
        if self.parity != 0 or np.count_nonzero(self.matrix) != np.count_nonzero(d):
            raise ValueError("only even diagonal operators are inverted here")
        return GradedOperator(np.diag(1 / d), 0)


def identity_operator(space: RepSpace, dtype=complex) -> GradedOperator:
    return GradedOperator(np.eye(space.dim, dtype=dtype), 0)


#: The generators that carry no kinematics: the bosonic U_q(su(2)) pairs.
BOSONIC_GENERATORS = ("E1", "F1", "K1", "E3", "F3", "K3")

#: Target state and value key of each step from |m,n,k,l>: E1, F1, E3, F3
#: and the label parts a, b of E2, E4 and c, d of F2, F4.  A key indexes
#: the step's value table (bosonic_generators, _label_tables).
_STEP_RULES = {
    "E1": lambda m, n, k, l: ((m, n, k - 1, l + 1), k),
    "F1": lambda m, n, k, l: ((m, n, k + 1, l - 1), l),
    "E3": lambda m, n, k, l: ((m + 1, n - 1, k, l), 0),
    "F3": lambda m, n, k, l: ((m - 1, n + 1, k, l), 0),
    "a": lambda m, n, k, l: ((m, n + 1, k, l - 1), 2 * l + m),
    "b": lambda m, n, k, l: ((m - 1, n, k + 1, l), 0),
    "c": lambda m, n, k, l: ((m + 1, n, k - 1, l), k),
    "d": lambda m, n, k, l: ((m, n - 1, k, l + 1), m),
}


def _distinct(values):
    """(the distinct ``values`` in order of appearance, the key of each value)."""
    table = list(dict.fromkeys(values))
    return tuple(table), np.array([table.index(v) for v in values], dtype=int)


@functools.lru_cache(maxsize=32)
def _steps(space: RepSpace) -> tuple:
    """(steps, exponents): the step pattern of every generator on ``space``,
    free of q and of the kinematics, so built once per M (equal spaces share
    it).  steps maps a name to (rows, cols, keys), the entries [rows, cols]
    of the step and the key of each into its value table; a target outside
    the basis has an occupation out of range, and no entry.  The diagonal
    K1, K3 and the K2, K4 pair "h" key the distinct exponents l - k, n - m
    and h = (k - l + m - n) / 2, which ``exponents`` holds as Python numbers:
    q ** e is then the scalar power of the loop over the basis it replaced.
    """
    index, states = space.index, space.states
    steps, exponents = {}, {}
    for name, rule in _STEP_RULES.items():
        entries = [(index[t], col, key) for col, s in enumerate(states)
                   for t, key in [rule(*s)] if t in index]
        steps[name] = tuple(np.array(entries, dtype=int).reshape(-1, 3).T)
    diag = np.arange(space.dim)
    for name, values in (("K1", [l - k for m, n, k, l in states]),
                         ("K3", [n - m for m, n, k, l in states]),
                         ("h", [(k - l + m - n) / 2 for m, n, k, l in states])):
        exponents[name], keys = _distinct(values)
        steps[name] = (diag, diag, keys)
    for a in (a for step in steps.values() for a in step):
        a.flags.writeable = False
    return steps, exponents


def _fill(mat: np.ndarray, step, table) -> np.ndarray:
    """Add table[keys] at the entries [rows, cols] of ``step`` to ``mat``:
    each entry is 0 + its value, as the loop over the basis summed it."""
    rows, cols, keys = step
    mat[rows, cols] += np.array(table, dtype=mat.dtype)[keys]
    return mat


def bosonic_generators(q, space, dtype=complex) -> dict:
    """Matrices of E1, F1, K1, E3, F3, K3 on the bound state.

    They step the oscillator levels (k, l) and the fermion numbers (m, n)
    alone, with K1 = q^{l-k} and K3 = q^{n-m}, so they depend on q and M only.
    """
    steps, exponents = _steps(space)
    qn = [qint(j, q) for j in range(space.M + 1)]
    tables = {"E1": qn, "F1": qn, "E3": [1], "F3": [1],
              **{k: [q ** e for e in exponents[k]] for k in ("K1", "K3")}}
    return {gen: GradedOperator(_fill(np.zeros((space.dim, space.dim), dtype=dtype),
                                      steps[gen], tables[gen]), 0)
            for gen in BOSONIC_GENERATORS}


def _label_tables(qn, labels) -> dict:
    """The value tables of the label parts of E_i and F_i for the labels
    (a, b, c, d): a sign qn[l] keyed by 2 l + m, b, c qn[k] and d sign,
    with sign = (-1)^m."""
    a, b, c, d = labels
    return {"a": [a * sign * x for x in qn for sign in (1, -1)], "b": [b],
            "c": [c * x for x in qn], "d": [d * sign for sign in (1, -1)]}


def supercharge_steps(q, space) -> dict:
    """The kinematics-free matrices P_a, P_b, Q_c, Q_d (keys "a" to "d")
    with E_i = a P_a + b P_b and F_i = c Q_c + d Q_d for the labels
    (a, b, c, d) of E_i, F_i: bulk at i = 2, affine at i = 4."""
    steps, _ = _steps(space)
    tables = _label_tables([qint(j, q) for j in range(space.M + 1)], (1, 1, 1, 1))
    return {x: _fill(np.zeros((space.dim, space.dim), dtype=complex), steps[x], tables[x])
            for x in "abcd"}


def all_generators(kin, params, space, dtype=complex) -> dict:
    """Matrices of the twelve Chevalley generators E_i, F_i, K_i on the bound state.

    The bosonic six come from bosonic_generators.  E2, F2 use the bulk labels
    (a, b, c, d); the affine supercharges E4, F4 use the affine labels and
    C -> -C.  K_i is q^{H_i} with the diagonal H_i action, V = q^C.  Each
    entry is its scalar expression of q and the labels, at the cached step
    pattern of ``space``.
    """
    q = params.q
    C = log(kin.V) / log(q)
    steps, exponents = _steps(space)
    qn = [qint(j, q) for j in range(space.M + 1)]
    ops = bosonic_generators(q, space, dtype)
    for i, labels in ((2, bulk_labels(kin, params)), (4, affine_labels(kin, params))):
        tables = _label_tables(qn, labels)
        for gen, parts in ((f"E{i}", "ab"), (f"F{i}", "cd")):
            mat = np.zeros((space.dim, space.dim), dtype=dtype)
            for x in parts:
                _fill(mat, steps[x], tables[x])
            ops[gen] = GradedOperator(mat, GENERATOR_PARITY[gen])
    h = exponents["h"]
    for gen, table in (("K2", [q ** -(C - x) for x in h]), ("K4", [q ** (C + x) for x in h])):
        ops[gen] = GradedOperator(
            _fill(np.zeros((space.dim, space.dim), dtype=dtype), steps["h"], table), 0)
    return {gen: ops[gen] for gen in GENERATORS}


def graded_commutator(A, B):
    """[A, B} = AB - (-1)^{|A||B|} BA, of GradedOperators or of TwoLegs."""
    AB, BA = A @ B, B @ A
    return AB + BA if A.parity * B.parity % 2 else AB - BA


@dataclass(frozen=True)
class WeightLayout:
    """The weight spaces of the M bound state, each of dimension <= 2.

    |m,n,k,l> has the weight (l - k, n - m); |0,0,k,l> and |1,1,k-1,l-1>
    share one.  Weight w = 0..n_w-1 holds the states slots[w] (-1 marks an
    empty slot); w = n_w is an empty weight, the target of every step that
    leaves the module, so its blocks stay zero.  An operator with weight
    step s is then an (n_w + 1, 2, 2) stack of blocks W_w -> W_{w+s}.
    """

    M: int
    slots: np.ndarray = field(repr=False)  # (n_w + 1, 2) basis indices
    weights: np.ndarray = field(repr=False)  # (n_w, 2) weight of each w
    grid: np.ndarray = field(repr=False)  # w of weight (a, b) at [a + M, b + 1]; n_w if none
    outside: np.ndarray = field(repr=False)  # (12, d, d): off each generator's weight pattern

    def step(self, shifts) -> np.ndarray:
        """(len(shifts), n_w + 1): the index of weight w + s for each shift s
        and weight w; n_w where w + s is no weight of the module."""
        n_w = len(self.weights)
        a, b = np.moveaxis(self.weights + np.asarray(shifts)[:, None, :], -1, 0)
        inside = (np.abs(a) <= self.M) & (np.abs(b) <= 1)
        w = np.full((len(a), n_w + 1), n_w)
        w[:, :n_w][inside] = self.grid[a[inside] + self.M, b[inside] + 1]
        return w


@functools.lru_cache(maxsize=32)
def weight_layout(space: RepSpace) -> WeightLayout:
    """The WeightLayout of ``space``, built once per M: equal spaces share it."""
    M, weight = space.M, space.weights
    weights = np.array(sorted(set(map(tuple, weight.tolist()))))
    n_w = len(weights)
    grid = np.full((2 * M + 1, 3), n_w)
    grid[weights[:, 0] + M, weights[:, 1] + 1] = np.arange(n_w)
    slots = np.full((n_w + 1, 2), -1)
    for i, (a, b) in enumerate(weight):
        row = slots[grid[a + M, b + 1]]
        row[np.argmax(row < 0)] = i
    shifts = np.array([SHIFTS.get(g, (0, 0)) for g in GENERATORS])
    inside = np.all(weight[:, None] == weight[None, :] + shifts[:, None, None], axis=-1)
    inside[len(SHIFTS):] = np.eye(space.dim, dtype=bool)  # the K_i are diagonal
    layout = WeightLayout(M, slots, weights, grid, ~inside)
    for a in (slots, weights, grid, layout.outside):
        a.flags.writeable = False
    return layout


def _diag(d):
    """(..., 2, 2) blocks with the (..., 2) diagonals d."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=d.dtype)
    out[..., [0, 1], [0, 1]] = d
    return out


def verify_algebra(
    kins: list[Kinematics],
    params: ModelParams,
    space: RepSpace,
    dtype=complex,
) -> list[dict]:
    """Residuals of every defining relation at the points ``kins`` of one M, in
    one pass: per point, in order, a dict name -> Frobenius-relative residual.

    Each E_i, F_i is evaluated as its 2 x 2 weight blocks (WeightLayout) and
    each K_i as its diagonal: (AB)[w] = A[w + s_B] B[w].  A point axis stands
    just before the weight axis, and each (relation, point) block's norm sums
    it in C order, as for one point alone.  ``weight_pattern``, the largest
    norm of a generator's entries off its weight pattern (off the diagonal for
    the K_i), certifies that the blocks hold every entry.
    """
    q = params.q
    _, g_tilde = derive_couplings(q, params.g)
    alpha, at = params.alpha, params.alpha_tilde
    g = params.g
    lam = q - 2 + 1 / q
    lay = weight_layout(space)
    n_ef = len(SHIFTS)  # E_i, F_i lead GENERATORS
    to = lay.step(list(SHIFTS.values()))
    rows, cols = lay.slots[to][..., :, None], lay.slots[None, :, None, :]
    mask = lay.slots >= 0
    pt = np.arange(len(kins))[:, None]  # the point axis, beside an (n, 1, n_w + 1) step

    # Per point: E_i, F_i as (8, n_w + 1, 2, 2) blocks, K_i as (4, n_w + 1, 2)
    # diagonals and the norm off the weight patterns, its d x d matrices
    # dropped before the next point's are built.
    ef, kd, pattern = [], [], []
    for kin in kins:
        dense = np.stack([op.matrix for op in all_generators(kin, params, space, dtype).values()])
        ef.append(np.where((rows >= 0) & (cols >= 0),
                           dense[np.arange(n_ef)[:, None, None, None], rows, cols], 0))
        kd.append(np.where(mask, dense[n_ef:, lay.slots, lay.slots], 0))
        pattern.append(max(nm.fnorm(m[off]) for m, off in zip(dense, lay.outside)))
        del dense
    ef, kd = np.stack(ef, axis=1), np.stack(kd, axis=1)
    res = [{} for _ in kins]

    def column(f):
        # f(U, V) of each point, in Python as for one point alone, as a
        # column over the point axis of a (P, n_w + 1, 2) diagonal
        return np.array([f(kin.U, kin.V) for kin in kins], dtype=dtype).reshape(-1, 1, 1)

    # Arrays stand left of scalars: an mpmath scalar times an array formats
    # the array for the TypeError it raises before numpy takes over.

    def norms(a):
        # (relations, points): the norm of each (relation, point) block,
        # summed in its C order whatever the layout numpy gave ``a``
        a = np.ascontiguousarray(a)
        return nm.fnorms(a.reshape((-1,) + a.shape[2:])).reshape(a.shape[:2])

    def put(names, lhs, rhs=None):
        # rel_residual of each lhs[i] = rhs[i], or of lhs[i] = 0, at every point
        norm = norms(lhs)
        if rhs is None:
            r = np.minimum(norm, 1.0)
        else:
            r = norms(lhs - rhs) / np.maximum(1.0, np.maximum(norm, norms(rhs)))
        for out, values in zip(res, r.T.tolist()):
            out.update(zip(names, values))

    # ops[name] = (blocks, weight step); ops[x + y] is the product of x and y
    def multiply(pairs):
        steps = lay.step([ops[y][1] for _, y in pairs])
        left = np.stack([ops[x][0] for x, _ in pairs])
        left = left[np.arange(len(pairs))[:, None, None], pt, steps[:, None]]
        blocks = nm.mdot(left, np.stack([ops[y][0] for _, y in pairs]))
        for (x, y), b in zip(pairs, blocks):
            ops[x + y] = (b, tuple(np.add(ops[x][1], ops[y][1])))

    def blocks(names):
        return np.stack([ops[name][0] for name in names])

    def kept(names):
        # the generators and copies of the products ``names``: every other
        # product is done with, and a copy pins no multiply batch it views
        return {**{name: ops[name] for name in SHIFTS},
                **{name: (ops[name][0].copy(), ops[name][1]) for name in names}}

    ops = {name: (b, SHIFTS[name]) for name, b in zip(SHIFTS, ef)}

    def inv(d):
        return np.divide(1, d, out=np.zeros_like(d), where=mask)

    kd_inv = inv(kd)
    ident = np.where(mask, 1, 0).astype(dtype)

    # Cartan relations K_i X_j K_i^-1 = q^{±DA_ij} X_j, elementwise.
    power = np.array([[q ** (sign * DA[i][j]) for sign in (1, -1) for j in range(4)]
                      for i in range(4)], dtype=dtype)
    order = (4, 2, 4) + ef.shape[1:]  # (i, E|F, j) -> (i, j, E|F)
    put([f"K{i}{x}{j}" for i in range(1, 5) for j in range(1, 5) for x in "EF"],
        *(np.swapaxes(a.reshape(order), 1, 2).reshape((32,) + ef.shape[1:]) for a in (
            nm.emul(kd[:, pt, to[:, None]][..., :, None], ef, kd_inv[:, None, ..., None, :]),
            nm.emul(power[:, :, None, None, None, None], ef))))

    # The 28 graded brackets [X, Y} of two generators, in one batch.
    pairs = [(f"E{i}", f"F{j}") for i in range(1, 5) for j in range(1, 5)]
    pairs += [(f"{x}{j}", f"{x}{k}") for x in "EF" for j in (1, 3) for k in (2, 4)]
    pairs += [(f"{x}{j}", f"{x}{k}") for x in "EF" for j, k in ((1, 3), (2, 4))]
    multiply(pairs + [(y, x) for x, y in pairs] + [(f"{x}{k}",) * 2 for x in "EF" for k in (2, 4)])
    for x, y in pairs:
        (xy, s), (yx, _) = ops[x + y], ops[y + x]
        both_odd = GENERATOR_PARITY[x] * GENERATOR_PARITY[y]
        ops[f"[{x},{y}]"] = (xy + yx if both_odd else xy - yx, s)

    # Diagonal and off-diagonal [E_i, F_j} relations, and the mixed affine
    # ones with g_tilde and alpha_tilde.
    put([f"E{j}F{j}" for j in range(1, 5)], blocks(f"[E{j},F{j}]" for j in range(1, 5)),
        _diag(np.stack([(kd[j] - kd_inv[j]) * (D_DIAG[j] / (q - 1 / q)) for j in range(4)])))
    off = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j and i + j != 6]
    put([f"E{i}F{j}" for i, j in off], blocks(f"[E{i},F{j}]" for i, j in off))
    put(["E2F4", "E4F2"], blocks(["[E2,F4]", "[E4,F2]"]), _diag(np.stack([
        (kd[3] - kd_inv[1] * column(lambda u, v: u**2)) * (-g_tilde / at),
        (kd[1] - kd_inv[3] * column(lambda u, v: u**-2)) * (g_tilde * at),
    ])))

    # The cubic and quartic Serre products, in one batch.  The quartic
    # X_k X1 X3 X_k is (X_k X1)(X3 X_k), both factors from the brackets.
    cubic = [(f"{x}{j}", f"{x}{k}") for x in "EF" for j in (1, 3) for k in (2, 4)]
    quartic = [(x, k) for k in (2, 4) for x in "EF"]
    ops = kept([f"[{xj},{xk}]" for xj, xk in cubic] + [xj + xk for xj, xk in cubic]
               + [f"{x}{k}{x}1" for x, k in quartic]
               + [name for x in "EF"
                  for name in (f"[{x}1,{x}3]", f"[{x}2,{x}4]", f"{x}2{x}2", f"{x}4{x}4")])
    batch = []
    for xj, xk in cubic:
        inner = f"[{xj},{xk}]"
        batch += [(xj, inner), (inner, xj), (xj + xk, xj)]
    for x, k in quartic:
        one, three = f"[{x}1,{x}{k}]", f"[{x}3,{x}{k}]"
        batch += [(one, three), (three, one), (f"{x}{k}{x}1", f"{x}3{x}{k}")]
    multiply(batch)

    # Cubic Serre relations and the vanishing quadratics.
    for x in "EF":
        serre = [
            ops[f"{xj}[{xj},{xk}]"][0] - ops[f"[{xj},{xk}]{xj}"][0]
            - nm.emul(ops[xj + xk + xj][0], lam)
            for xj, xk in cubic if xj[0] == x
        ]
        put([f"serre_{x}{j}{k}" for j in (1, 3) for k in (2, 4)]
            + [f"{x}1{x}3", f"{x}2{x}2", f"{x}4{x}4", f"{x}2{x}4"],
            np.concatenate([serre, blocks([f"[{x}1,{x}3]", f"{x}2{x}2", f"{x}4{x}4",
                                           f"[{x}2,{x}4]"])]))

    # Quartic Serre relations with central right-hand sides (k = 2, 4); at
    # k = 2 the left-hand sides are the central charges C2 and C3.
    lhs, rhs = {}, []
    for x, k in quartic:
        one, three = f"[{x}1,{x}{k}]", f"[{x}3,{x}{k}]"
        t1 = ops[one + three][0] + ops[three + one][0]
        lhs[x, k] = t1 - nm.emul(ops[f"{x}{k}{x}1{x}3{x}{k}"][0], lam)

        def value(u, v):
            uk, vk, ak = (u, v, alpha) if k == 2 else (1 / u, 1 / v, alpha * at * at)
            return g * ak * (1 - vk**2 * uk**2) if x == "E" else g / ak * (vk**-2 - uk**-2)
        rhs.append(ident * column(value))
    put([f"quartic_{x}{k}" for x, k in quartic], np.stack(list(lhs.values())),
        _diag(np.stack(rhs)))

    # Central charges C1 = K1 K2^2 K3, C2, C3: scalar values and centrality.
    c1 = kd[0] * kd[1] * kd[1] * kd[2]
    ops = kept([])  # the brackets and the Serre products are done with
    ops["C2"], ops["C3"] = (lhs["E", 2], (0, 0)), (lhs["F", 2], (0, 0))
    put(["C1_scalar"], c1[None], (ident * column(lambda u, v: v**-2))[None])
    put(["C2_scalar", "C3_scalar"], blocks(["C2", "C3"]), _diag(np.stack([
        ident * column(lambda u, v: g * alpha * (1 - u**2 * v**2)),
        ident * column(lambda u, v: g / alpha * (v**-2 - u**-2)),
    ])))
    multiply([(c, x) for c in ("C2", "C3") for x in SHIFTS]
             + [(x, c) for c in ("C2", "C3") for x in SHIFTS])
    brackets = {"C1": (
        nm.emul(c1[pt, to[:, None]][..., :, None], ef) - nm.emul(ef, c1[..., None, :]),
        c1 * kd - kd * c1,
    )}
    for c in ("C2", "C3"):
        cc = ops[c][0]
        brackets[c] = (
            blocks(c + x for x in SHIFTS) - blocks(x + c for x in SHIFTS),
            nm.emul(cc, kd[..., None, :]) - nm.emul(kd[..., :, None], cc),
        )
    for c, (with_ef, with_k) in brackets.items():
        for out, a, b in zip(res, norms(with_ef).max(axis=0), norms(with_k).max(axis=0)):
            out[f"{c}_central"] = min(float(max(a, b)), 1.0)

    # K constraints.
    put(["K1K2K3K4", "V2_constraint", "V4_constraint"], np.stack([
        kd[0] * kd[1] * kd[2] * kd[3], inv(c1), inv(kd[0] * kd[3] * kd[3] * kd[2]),
    ]), np.stack([np.broadcast_to(ident, c1.shape), ident * column(lambda u, v: v**2),
                  ident * column(lambda u, v: v**-2)]))

    for out, p in zip(res, pattern):
        out["weight_pattern"] = p
    return res
