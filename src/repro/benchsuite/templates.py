"""Loop-nest template library.

Each template emits one or more loops into an open function, records each
loop's authored label (the "expert OpenMP annotation" that is the paper's
ground truth), and introduces deterministic per-instance variation
(coefficients, operand order, optional extra statements) so no two instances
are graph-identical.

Label conventions follow how the modeled benchmarks are annotated in their
OpenMP versions: DoALL loops, recognized scalar reductions, and privatizable
temporaries are parallel (1); loops with genuine loop-carried flow
dependences, array WAR/WAW, early exits, or unannotatable recurrences are
not (0).  A few templates are deliberately *hard* — their authored label
disagrees with what shallow features suggest (permutation scatters are
parallel although every static tool rejects them; argmax loops are
sequential although they look like reductions) — reproducing the annotation
noise the paper reports (Section IV-D, the IS loop-452 anecdote).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.ast_nodes import For


class TemplateContext:
    """Per-program authoring context handed to templates."""

    def __init__(
        self,
        pb: ProgramBuilder,
        fb: FunctionBuilder,
        rng: np.random.Generator,
        size: int = 16,
        side: int = 6,
    ) -> None:
        self.pb = pb
        self.fb = fb
        self.rng = rng
        self.size = size      # 1-D array length and default trip count
        self.side = side      # 2-D side length (arrays side*side)
        self._next_array = 0
        self._next_scalar = 0
        self.emitted: List[Tuple[str, int, str]] = []  # (loop_id, label, tmpl)

    # -- naming -------------------------------------------------------------

    def array(self, elems: int = 0, hint: str = "arr") -> str:
        name = f"{hint}{self._next_array}"
        self._next_array += 1
        self.pb.array(name, elems or self.size)
        return name

    def array2d(self, hint: str = "m") -> str:
        return self.array(self.side * self.side, hint)

    def scalar(self, hint: str = "t") -> str:
        name = f"{hint}{self._next_scalar}"
        self._next_scalar += 1
        return name

    def coeff(self, lo: float = 1.0, hi: float = 4.0) -> float:
        """Small integer-ish coefficient for instance variation."""
        return float(self.rng.integers(int(lo), int(hi) + 1))

    # -- recording ------------------------------------------------------------

    def record(self, loop, label: int, template: str) -> None:
        loop_id = loop.loop_id
        if loop_id is None:
            raise DatasetError("template loop missing a loop id")
        self.emitted.append((loop_id, int(label), template))

    def idx2(self, i, j) -> object:
        """Flattened 2-D index i*side + j."""
        fb = self.fb
        return fb.add(fb.mul(i, float(self.side)), j)


# ---------------------------------------------------------------------------
# Parallel (DoALL / reduction) templates
# ---------------------------------------------------------------------------


def t_init(ctx: TemplateContext) -> None:
    """a[i] = c1*i + c2 — canonical initialization DoALL."""
    fb = ctx.fb
    a = ctx.array()
    c1, c2 = ctx.coeff(), ctx.coeff()
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(a, i, fb.add(fb.mul(i, c1), c2))
    ctx.record(_last_loop(fb), 1, "init")


def t_copy(ctx: TemplateContext) -> None:
    """b[i] = a[i]."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(b, i, fb.load(a, i))
    ctx.record(_last_loop(fb), 1, "copy")


def t_scale(ctx: TemplateContext) -> None:
    """b[i] = alpha * a[i]."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    alpha = ctx.scalar("alpha")
    fb.assign(alpha, ctx.coeff())
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(b, i, fb.mul(alpha, fb.load(a, i)))
    ctx.record(_last_loop(fb), 1, "scale")


def t_vadd(ctx: TemplateContext) -> None:
    """c[i] = a[i] + b[i] (sometimes with an extra scaling)."""
    fb = ctx.fb
    a, b, c = ctx.array(), ctx.array(), ctx.array()
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        rhs = fb.add(fb.load(a, i), fb.load(b, i))
        if ctx.rng.random() < 0.5:
            rhs = fb.mul(rhs, ctx.coeff())
        fb.store(c, i, rhs)
    ctx.record(_last_loop(fb), 1, "vadd")


def t_saxpy(ctx: TemplateContext) -> None:
    """y[i] = alpha*x[i] + y[i] — same-subscript in-place update (DoALL)."""
    fb = ctx.fb
    x, y = ctx.array(), ctx.array()
    alpha = ctx.scalar("alpha")
    fb.assign(alpha, ctx.coeff())
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(y, i, fb.add(fb.mul(alpha, fb.load(x, i)), fb.load(y, i)))
    ctx.record(_last_loop(fb), 1, "saxpy")


def t_stencil3(ctx: TemplateContext) -> None:
    """b[i] = w*(a[i-1] + a[i] + a[i+1]) — out-of-place 3-point stencil."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    w = 1.0 / ctx.coeff(2, 4)
    with fb.loop(ctx.scalar("i"), 1, ctx.size - 1) as i:
        total = fb.add(
            fb.add(fb.load(a, fb.sub(i, 1.0)), fb.load(a, i)),
            fb.load(a, fb.add(i, 1.0)),
        )
        fb.store(b, i, fb.mul(total, w))
    ctx.record(_last_loop(fb), 1, "stencil3")


def t_stencil5(ctx: TemplateContext) -> None:
    """5-point out-of-place stencil."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    with fb.loop(ctx.scalar("i"), 2, ctx.size - 2) as i:
        total = fb.add(
            fb.add(
                fb.add(fb.load(a, fb.sub(i, 2.0)), fb.load(a, fb.sub(i, 1.0))),
                fb.add(fb.load(a, fb.add(i, 1.0)), fb.load(a, fb.add(i, 2.0))),
            ),
            fb.load(a, i),
        )
        fb.store(b, i, fb.mul(total, 0.2))
    ctx.record(_last_loop(fb), 1, "stencil5")


def t_stencil2d(ctx: TemplateContext) -> None:
    """Out-of-place 2-D 5-point stencil over a flattened grid: 2 loops."""
    fb = ctx.fb
    a, b = ctx.array2d(), ctx.array2d()
    w = 1.0 / ctx.coeff(4, 6)
    side = ctx.side
    with fb.loop(ctx.scalar("i"), 1, side - 1) as i:
        outer = _last_loop(fb)
        with fb.loop(ctx.scalar("j"), 1, side - 1) as j:
            inner = _last_loop(fb)
            center = ctx.idx2(i, j)
            total = fb.add(
                fb.add(
                    fb.load(a, fb.sub(center, 1.0)),
                    fb.load(a, fb.add(center, 1.0)),
                ),
                fb.add(
                    fb.load(a, fb.sub(center, float(side))),
                    fb.load(a, fb.add(center, float(side))),
                ),
            )
            fb.store(b, center, fb.mul(total, w))
    ctx.record(outer, 1, "stencil2d")
    ctx.record(inner, 1, "stencil2d")


def t_reduction_sum(ctx: TemplateContext) -> None:
    """s += a[i] — scalar sum reduction (optionally weighted)."""
    fb = ctx.fb
    a = ctx.array()
    s = ctx.scalar("s")
    fb.assign(s, 0.0)
    weighted = ctx.rng.random() < 0.5
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        term = fb.load(a, i)
        if weighted:
            term = fb.mul(term, ctx.coeff())
        fb.assign(s, fb.add(s, term))
    ctx.record(_last_loop(fb), 1, "reduction_sum")


def t_reduction_max(ctx: TemplateContext) -> None:
    """m = max(m, a[i]) — max reduction via the max operator."""
    fb = ctx.fb
    a = ctx.array()
    m = ctx.scalar("m")
    fb.assign(m, -1.0e9)
    op = "max" if ctx.rng.random() < 0.5 else "min"
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.assign(m, fb.cmp(op, m, fb.load(a, i)))
    ctx.record(_last_loop(fb), 1, "reduction_max")


def t_dot(ctx: TemplateContext) -> None:
    """s += a[i]*b[i] — dot product."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    s = ctx.scalar("s")
    fb.assign(s, 0.0)
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.assign(s, fb.add(s, fb.mul(fb.load(a, i), fb.load(b, i))))
    ctx.record(_last_loop(fb), 1, "dot")


def t_matmul(ctx: TemplateContext) -> None:
    """C = A @ B with a scalar accumulator: 3 loops, all parallel."""
    fb = ctx.fb
    A, B, C = ctx.array2d("A"), ctx.array2d("B"), ctx.array2d("C")
    side = ctx.side
    t = ctx.scalar("acc")
    with fb.loop(ctx.scalar("i"), 0, side) as i:
        li = _last_loop(fb)
        with fb.loop(ctx.scalar("j"), 0, side) as j:
            lj = _last_loop(fb)
            fb.assign(t, 0.0)
            with fb.loop(ctx.scalar("k"), 0, side) as k:
                lk = _last_loop(fb)
                fb.assign(
                    t,
                    fb.add(
                        t,
                        fb.mul(fb.load(A, ctx.idx2(i, k)), fb.load(B, ctx.idx2(k, j))),
                    ),
                )
            fb.store(C, ctx.idx2(i, j), fb.var(t))
    ctx.record(li, 1, "matmul")
    ctx.record(lj, 1, "matmul")
    ctx.record(lk, 1, "matmul")


def t_strided(ctx: TemplateContext) -> None:
    """a[2i] = a[2i+1]*c + b[i]: disjoint strided access (GCD-provable)."""
    fb = ctx.fb
    a = ctx.array(2 * ctx.size + 2)
    b = ctx.array()
    c = ctx.coeff()
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        even = fb.mul(i, 2.0)
        odd = fb.add(fb.mul(i, 2.0), 1.0)
        fb.store(a, even, fb.add(fb.mul(fb.load(a, odd), c), fb.load(b, i)))
    ctx.record(_last_loop(fb), 1, "strided")


def t_reverse_copy(ctx: TemplateContext) -> None:
    """b[i] = a[N-1-i] — reversal (distinct arrays: DoALL)."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(b, i, fb.load(a, fb.sub(float(ctx.size - 1), i)))
    ctx.record(_last_loop(fb), 1, "reverse_copy")


def t_gather(ctx: TemplateContext) -> None:
    """b[i] = a[idx[i]] — indirect gather.  2 loops: idx init + gather.

    Parallel (reads may alias freely), but the indirect subscript defeats
    every static tool.
    """
    fb = ctx.fb
    a, b, idx = ctx.array(), ctx.array(), ctx.array(hint="idx")
    stride = int(ctx.rng.choice([3, 5, 7]))
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(idx, i, fb.mod(fb.mul(i, float(stride)), float(ctx.size)))
    ctx.record(_last_loop(fb), 1, "gather_init")
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(b, i, fb.load(a, fb.load(idx, i)))
    ctx.record(_last_loop(fb), 1, "gather")


def t_scatter_perm(ctx: TemplateContext) -> None:
    """b[p[i]] = a[i] with p a permutation — parallel in truth, rejected by
    every static tool (the annotated expert knows p is injective)."""
    fb = ctx.fb
    a, p = ctx.array(), ctx.array(hint="perm")
    # i*mult mod (size+1) is injective for i < size when mult is coprime
    # with size+1 (size 16 -> modulus 17, prime: any mult in 3/5/7 works)
    mult = int(ctx.rng.choice([3, 5, 7]))
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(p, i, fb.mod(fb.mul(i, float(mult)), float(ctx.size + 1)))
    ctx.record(_last_loop(fb), 1, "scatter_perm_init")
    target = ctx.array(ctx.size + 1)
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(target, fb.load(p, i), fb.load(a, i))
    ctx.record(_last_loop(fb), 1, "scatter_perm")


def t_doall_call(ctx: TemplateContext) -> None:
    """b[i] = f(a[i]) with f pure — parallel; DiscoPoP rejects on the call."""
    fb = ctx.fb
    pb = ctx.pb
    helper = f"pure_fn{ctx._next_scalar}"
    ctx._next_scalar += 1
    with pb.function(helper, params=("x",)) as hf:
        hf.ret(hf.add(hf.mul(hf.var("x"), hf.var("x")), ctx.coeff()))
    a, b = ctx.array(), ctx.array()
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(b, i, fb.call(helper, fb.load(a, i)))
    ctx.record(_last_loop(fb), 1, "doall_call")


def t_triangular_gemm(ctx: TemplateContext) -> None:
    """Triangular matrix update (trmm-like): 3 affine loops, all parallel."""
    fb = ctx.fb
    A, B = ctx.array2d("A"), ctx.array2d("B")
    side = ctx.side
    t = ctx.scalar("acc")
    with fb.loop(ctx.scalar("i"), 0, side) as i:
        li = _last_loop(fb)
        with fb.loop(ctx.scalar("j"), 0, side) as j:
            lj = _last_loop(fb)
            fb.assign(t, 0.0)
            with fb.loop(ctx.scalar("k"), fb.add(i, 1.0), side) as k:
                lk = _last_loop(fb)
                fb.assign(
                    t,
                    fb.add(t, fb.mul(fb.load(A, ctx.idx2(k, i)), fb.load(B, ctx.idx2(k, j)))),
                )
            fb.store(B, ctx.idx2(i, j), fb.add(fb.load(B, ctx.idx2(i, j)), fb.var(t)))
    ctx.record(li, 0, "triangular_gemm_outer")
    ctx.record(lj, 1, "triangular_gemm")
    ctx.record(lk, 1, "triangular_gemm")


# ---------------------------------------------------------------------------
# Non-parallel templates
# ---------------------------------------------------------------------------


def t_gauss_seidel(ctx: TemplateContext) -> None:
    """a[i] = (a[i-1] + a[i+1]) * 0.5 — in-place relaxation (sequential)."""
    fb = ctx.fb
    a = ctx.array()
    with fb.loop(ctx.scalar("i"), 1, ctx.size - 1) as i:
        fb.store(
            a,
            i,
            fb.mul(
                fb.add(fb.load(a, fb.sub(i, 1.0)), fb.load(a, fb.add(i, 1.0))),
                0.5,
            ),
        )
    ctx.record(_last_loop(fb), 0, "gauss_seidel")


def t_recurrence(ctx: TemplateContext) -> None:
    """a[i] = a[i-1]*c + b[i] — first-order linear recurrence."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    c = 1.0 / ctx.coeff(2, 4)
    with fb.loop(ctx.scalar("i"), 1, ctx.size) as i:
        fb.store(
            a, i, fb.add(fb.mul(fb.load(a, fb.sub(i, 1.0)), c), fb.load(b, i))
        )
    ctx.record(_last_loop(fb), 0, "recurrence")


def t_prefix_sum(ctx: TemplateContext) -> None:
    """s += a[i]; b[i] = s — scan: the accumulator escapes, not a reduction."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    s = ctx.scalar("s")
    fb.assign(s, 0.0)
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.assign(s, fb.add(s, fb.load(a, i)))
        fb.store(b, i, fb.var(s))
    ctx.record(_last_loop(fb), 0, "prefix_sum")


def t_fib_loop(ctx: TemplateContext) -> None:
    """f[i] = f[i-1] + f[i-2] — second-order recurrence."""
    fb = ctx.fb
    f = ctx.array()
    fb.store(f, 0, 1.0)
    fb.store(f, 1, 1.0)
    with fb.loop(ctx.scalar("i"), 2, ctx.size) as i:
        fb.store(
            f, i, fb.add(fb.load(f, fb.sub(i, 1.0)), fb.load(f, fb.sub(i, 2.0)))
        )
    ctx.record(_last_loop(fb), 0, "fib_loop")


def t_histogram(ctx: TemplateContext) -> None:
    """h[bucket(a[i])] += 1 — colliding indirect increments (2 loops)."""
    fb = ctx.fb
    a, h = ctx.array(), ctx.array(8, hint="hist")
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(a, i, fb.mod(fb.mul(i, ctx.coeff()), 8.0))
    ctx.record(_last_loop(fb), 1, "histogram_init")
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        bucket = fb.load(a, i)
        fb.store(h, bucket, fb.add(fb.load(h, bucket), 1.0))
    ctx.record(_last_loop(fb), 0, "histogram")


def t_scatter_collide(ctx: TemplateContext) -> None:
    """a[i % k] += b[i] — colliding scatter (2 loops with the init)."""
    fb = ctx.fb
    a, b = ctx.array(8, hint="acc"), ctx.array()
    k = float(ctx.rng.choice([2, 4]))
    with fb.loop(ctx.scalar("i"), 0, 8) as i:
        fb.store(a, i, 0.0)
    ctx.record(_last_loop(fb), 1, "scatter_collide_init")
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        slot = fb.mod(i, k)
        fb.store(a, slot, fb.add(fb.load(a, slot), fb.load(b, i)))
    ctx.record(_last_loop(fb), 0, "scatter_collide")


def t_argmax(ctx: TemplateContext) -> None:
    """Conditional max + index tracking — not an OpenMP-expressible reduction."""
    fb = ctx.fb
    a = ctx.array()
    m, mi = ctx.scalar("m"), ctx.scalar("mi")
    fb.assign(m, -1.0e9)
    fb.assign(mi, 0.0)
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        with fb.if_block(fb.cmp(">", fb.load(a, i), fb.var(m))):
            fb.assign(m, fb.load(a, i))
            fb.assign(mi, i)
    ctx.record(_last_loop(fb), 0, "argmax")


def t_anti_dep(ctx: TemplateContext) -> None:
    """a[i] = a[i+1] + b[i] — loop-carried anti dependence."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    with fb.loop(ctx.scalar("i"), 0, ctx.size - 1) as i:
        fb.store(a, i, fb.add(fb.load(a, fb.add(i, 1.0)), fb.load(b, i)))
    ctx.record(_last_loop(fb), 0, "anti_dep")


def t_waw_fixed(ctx: TemplateContext) -> None:
    """a[c] = f(i) every iteration — carried WAW on a fixed cell."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    slot = float(ctx.rng.integers(0, 4))
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(a, slot, fb.mul(fb.load(b, i), ctx.coeff()))
    ctx.record(_last_loop(fb), 0, "waw_fixed")


def t_flag_search(ctx: TemplateContext) -> None:
    """First-hit search with break — early exit prevents parallelization."""
    fb = ctx.fb
    a = ctx.array()
    found = ctx.scalar("found")
    fb.assign(found, -1.0)
    threshold = 0.9
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        with fb.if_block(fb.cmp(">", fb.load(a, i), threshold)):
            fb.assign(found, i)
            fb.brk()
    ctx.record(_last_loop(fb), 0, "flag_search")


def t_seq_call(ctx: TemplateContext) -> None:
    """Loop calling a stateful helper that accumulates into a global array."""
    fb = ctx.fb
    pb = ctx.pb
    state = ctx.array(4, hint="state")
    helper = f"stateful_fn{ctx._next_scalar}"
    ctx._next_scalar += 1
    with pb.function(helper, params=("x",)) as hf:
        hf.store(state, 0, hf.add(hf.load(state, 0), hf.var("x")))
        hf.ret(hf.load(state, 0))
    a, b = ctx.array(), ctx.array()
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(b, i, fb.call(helper, fb.load(a, i)))
    ctx.record(_last_loop(fb), 0, "seq_call")


# ---------------------------------------------------------------------------
# Multi-loop composites
# ---------------------------------------------------------------------------


def t_jacobi_step(ctx: TemplateContext) -> None:
    """Jacobi time stepping: sequential time loop, two parallel inner loops."""
    fb = ctx.fb
    a, b = ctx.array(), ctx.array()
    steps = int(ctx.rng.integers(2, 4))
    with fb.loop(ctx.scalar("t"), 0, steps) as t:
        time_loop = _last_loop(fb)
        with fb.loop(ctx.scalar("i"), 1, ctx.size - 1) as i:
            compute = _last_loop(fb)
            fb.store(
                b,
                i,
                fb.mul(
                    fb.add(
                        fb.load(a, fb.sub(i, 1.0)), fb.load(a, fb.add(i, 1.0))
                    ),
                    0.5,
                ),
            )
        with fb.loop(ctx.scalar("i"), 1, ctx.size - 1) as i:
            copy_back = _last_loop(fb)
            fb.store(a, i, fb.load(b, i))
    ctx.record(time_loop, 0, "jacobi_time")
    ctx.record(compute, 1, "jacobi_compute")
    ctx.record(copy_back, 1, "jacobi_copy")


def t_triangular_solve(ctx: TemplateContext) -> None:
    """Forward substitution: sequential outer, reduction inner (2 loops)."""
    fb = ctx.fb
    L, x, rhs = ctx.array2d("L"), ctx.array(hint="x"), ctx.array(hint="rhs")
    side = ctx.side
    t = ctx.scalar("acc")
    with fb.loop(ctx.scalar("i"), 0, side) as i:
        outer = _last_loop(fb)
        fb.assign(t, fb.load(rhs, i))
        with fb.loop(ctx.scalar("j"), 0, i) as j:
            inner = _last_loop(fb)
            fb.assign(
                t, fb.sub(t, fb.mul(fb.load(L, ctx.idx2(i, j)), fb.load(x, j)))
            )
        fb.store(x, i, fb.div(fb.var(t), fb.add(fb.load(L, ctx.idx2(i, i)), 2.0)))
    ctx.record(outer, 0, "triangular_outer")
    ctx.record(inner, 1, "triangular_inner")


def t_wavefront(ctx: TemplateContext) -> None:
    """2-D wavefront a[i][j] += a[i-1][j] + a[i][j-1]: both loops sequential."""
    fb = ctx.fb
    a = ctx.array2d()
    side = ctx.side
    with fb.loop(ctx.scalar("i"), 1, side) as i:
        outer = _last_loop(fb)
        with fb.loop(ctx.scalar("j"), 1, side) as j:
            inner = _last_loop(fb)
            center = ctx.idx2(i, j)
            fb.store(
                a,
                center,
                fb.add(
                    fb.load(a, fb.sub(center, float(side))),
                    fb.load(a, fb.sub(center, 1.0)),
                ),
            )
    ctx.record(outer, 0, "wavefront")
    ctx.record(inner, 0, "wavefront")


def t_fft_stride(ctx: TemplateContext) -> None:
    """Butterfly-style strided update: disjoint pairs (parallel, affine)."""
    fb = ctx.fb
    a = ctx.array(2 * ctx.size + 2)
    half = ctx.size
    w = 1.0 / ctx.coeff(2, 3)
    with fb.loop(ctx.scalar("i"), 0, half) as i:
        hi = fb.add(fb.mul(i, 2.0), 1.0)
        lo = fb.mul(i, 2.0)
        u = ctx.scalar("u")
        v = ctx.scalar("v")
        fb.assign(u, fb.load(a, lo))
        fb.assign(v, fb.mul(fb.load(a, hi), w))
        fb.store(a, lo, fb.add(fb.var(u), fb.var(v)))
        fb.store(a, hi, fb.sub(fb.var(u), fb.var(v)))
    ctx.record(_last_loop(fb), 1, "fft_stride")


def t_norm_loop(ctx: TemplateContext) -> None:
    """Two loops: squared-sum reduction then normalization DoALL."""
    fb = ctx.fb
    a = ctx.array()
    s = ctx.scalar("s")
    fb.assign(s, 0.0)
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        v = fb.load(a, i)
        fb.assign(s, fb.add(s, fb.mul(v, v)))
    ctx.record(_last_loop(fb), 1, "norm_reduce")
    inv = ctx.scalar("inv")
    fb.assign(inv, fb.div(1.0, fb.add(fb.call("sqrt", fb.var(s)), 1.0)))
    with fb.loop(ctx.scalar("i"), 0, ctx.size) as i:
        fb.store(a, i, fb.mul(fb.load(a, i), fb.var(inv)))
    ctx.record(_last_loop(fb), 1, "norm_scale")


def _last_loop(fb: FunctionBuilder):
    """The most recently opened loop's ``For`` statement (for recording):
    the last ``For`` appended to the innermost open scope."""
    for scope in reversed(fb._scopes):
        for stmt in reversed(scope):
            if isinstance(stmt, For):
                return stmt
    raise DatasetError("no loop emitted yet")


#: Registry: template name -> (builder fn, number of loops emitted).
TEMPLATES: Dict[str, Tuple[Callable[[TemplateContext], None], int]] = {
    "init": (t_init, 1),
    "copy": (t_copy, 1),
    "scale": (t_scale, 1),
    "vadd": (t_vadd, 1),
    "saxpy": (t_saxpy, 1),
    "stencil3": (t_stencil3, 1),
    "stencil5": (t_stencil5, 1),
    "stencil2d": (t_stencil2d, 2),
    "reduction_sum": (t_reduction_sum, 1),
    "reduction_max": (t_reduction_max, 1),
    "dot": (t_dot, 1),
    "matmul": (t_matmul, 3),
    "strided": (t_strided, 1),
    "reverse_copy": (t_reverse_copy, 1),
    "gather": (t_gather, 2),
    "scatter_perm": (t_scatter_perm, 2),
    "doall_call": (t_doall_call, 1),
    "triangular_gemm": (t_triangular_gemm, 3),
    "gauss_seidel": (t_gauss_seidel, 1),
    "recurrence": (t_recurrence, 1),
    "prefix_sum": (t_prefix_sum, 1),
    "fib_loop": (t_fib_loop, 1),
    "histogram": (t_histogram, 2),
    "scatter_collide": (t_scatter_collide, 2),
    "argmax": (t_argmax, 1),
    "anti_dep": (t_anti_dep, 1),
    "waw_fixed": (t_waw_fixed, 1),
    "flag_search": (t_flag_search, 1),
    "seq_call": (t_seq_call, 1),
    "jacobi_step": (t_jacobi_step, 3),
    "triangular_solve": (t_triangular_solve, 2),
    "wavefront": (t_wavefront, 2),
    "fft_stride": (t_fft_stride, 1),
    "norm_loop": (t_norm_loop, 2),
}
