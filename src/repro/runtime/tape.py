"""Trace-compile the batched MV-GNN forward into a linear tape of primitives.

``record_tape`` runs a model's ``forward_batch`` once under
:func:`repro.nn.tensor.recording`: every primitive application that
:func:`repro.nn.tensor.apply` sees appends a :class:`TapeOp` record
(primitive name, input slots, output slot, attrs) instead of an autograd
node, so the models are traced through the very calls that run them
eagerly.  The result is a :class:`Tape`: a flat program over numbered
slots whose structure depends only on the model architecture, the number
of graphs ``B`` in the pack, and the train/eval mode — node counts,
adjacency matrices, and feature values all flow in as inputs at execution
time, so one tape per ``(architecture, B, mode)`` serves every batch of
that shape class.

Three ways to run a tape:

* :meth:`Tape.execute` — the unfused reference interpreter (one primitive
  per step), used by the differential tests as the ground truth.
* :class:`TapeExecutor` — the optimized inference interpreter: no-op
  data movement is folded out (same-shape reshapes and in-order gathers
  become aliases, unread ops drop), adjacent elementwise ops are fused
  into in-place chains on top of their producer (:func:`unfuse_plan`
  accounts for every recorded op), and every fresh-output step owns a
  cached buffer reused across ``predict_many`` calls (callers receive
  copies, so reuse never aliases a live result).
* :meth:`Tape.forward_values` + :meth:`Tape.backward` — forward with
  residuals, then a mechanical reverse sweep through the primitive VJP
  table that accumulates straight into ``Parameter.grad``; the eager
  ``Tensor.backward`` sweep calls the same VJPs.

Parameter slots read ``Parameter.data`` live at execution time, so
optimizer steps and the serving fleet's in-place hot weight reload take
effect without re-tracing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EngineError
from repro.nn.layers import Parameter
from repro.nn.primitives import PRIMITIVES, get_primitive
from repro.nn.tensor import Tensor, no_grad, recording
from repro.utils.rng import ensure_rng

__all__ = [
    "Tape",
    "TapeOp",
    "record_tape",
    "build_plan",
    "unfuse_plan",
    "TapeExecutor",
    "format_tape",
]


@dataclass(eq=False)
class TapeOp:
    """One recorded primitive application (identity semantics: attrs may
    hold ndarrays, so field-wise equality would be ill-defined)."""

    prim: str
    inputs: Tuple[int, ...]
    out: int
    attrs: Dict[str, object] = field(default_factory=dict)
    shape: Tuple[int, ...] = ()     # trace-time output shape (fusion hint)


class Tape:
    """A recorded linear program over numbered value slots."""

    def __init__(self) -> None:
        self.ops: List[TapeOp] = []
        self.input_slots: Dict[str, int] = {}
        self.array_inputs: set = set()
        self.param_slots: Dict[int, str] = {}
        self.params: Dict[int, Parameter] = {}
        self.consts: Dict[int, np.ndarray] = {}
        self.output: int = -1
        self.num_slots: int = 0
        self._needs: Optional[set] = None
        self._reverse: Optional[list] = None

    # -- construction (used by the tracer) ----------------------------------

    def new_slot(self) -> int:
        slot = self.num_slots
        self.num_slots += 1
        return slot

    def add_input(self, name: str, array: bool) -> int:
        if name in self.input_slots:
            raise EngineError(f"duplicate tape input {name!r}")
        slot = self.new_slot()
        self.input_slots[name] = slot
        if array:
            self.array_inputs.add(name)
        return slot

    def add_param(self, name: str, param: Parameter) -> int:
        slot = self.new_slot()
        self.param_slots[slot] = name
        self.params[slot] = param
        return slot

    def add_const(self, data: np.ndarray) -> int:
        slot = self.new_slot()
        self.consts[slot] = np.array(data, dtype=np.float64, copy=True)
        return slot

    # -- execution ----------------------------------------------------------

    def seed_values(self, bindings: Dict[str, object]) -> List[object]:
        """Slot table with inputs/params/consts filled in."""
        values: List[object] = [None] * self.num_slots
        for slot, data in self.consts.items():
            values[slot] = data
        for slot, param in self.params.items():
            values[slot] = param.data      # live read: survives hot reload
        for name, slot in self.input_slots.items():
            if name not in bindings:
                raise EngineError(f"tape execution missing input {name!r}")
            value = bindings[name]
            if name in self.array_inputs:
                value = np.asarray(value, dtype=np.float64)
            values[slot] = value
        return values

    def execute(self, bindings: Dict[str, object]) -> np.ndarray:
        """Unfused reference interpretation; returns a fresh output array."""
        values = self.seed_values(bindings)
        for op in self.ops:
            prim = get_primitive(op.prim)
            ins = tuple(values[s] for s in op.inputs)
            values[op.out] = prim.forward(ins, op.attrs)
        return np.array(values[self.output], copy=True)

    def forward_values(self, bindings: Dict[str, object]):
        """Forward keeping every slot value + per-op residuals (training)."""
        values = self.seed_values(bindings)
        residuals: List[object] = [None] * len(self.ops)
        for pos, op in enumerate(self.ops):
            prim = get_primitive(op.prim)
            ins = tuple(values[s] for s in op.inputs)
            values[op.out], residuals[pos] = prim.forward_res(ins, op.attrs)
        return values, residuals

    # -- mechanical backward ------------------------------------------------

    def needs_grad(self) -> set:
        """Slots whose gradient is required (params + their descendants)."""
        if self._needs is None:
            needs = set(self.param_slots)
            for op in self.ops:
                if any(s in needs for s in op.inputs):
                    needs.add(op.out)
            self._needs = needs
        return self._needs

    def _reverse_plan(self) -> list:
        """``(pos, op, vjp, needed)`` of every op the reverse sweep visits —
        those whose output needs a gradient — last op first."""
        if self._reverse is None:
            needs = self.needs_grad()
            plan = []
            for pos in range(len(self.ops) - 1, -1, -1):
                op = self.ops[pos]
                if op.out in needs:
                    needed = tuple(s in needs for s in op.inputs)
                    plan.append((pos, op, get_primitive(op.prim).vjp, needed))
            self._reverse = plan
        return self._reverse

    def backward(
        self,
        grad: np.ndarray,
        values: Sequence[object],
        residuals: Sequence[object],
    ) -> None:
        """Reverse sweep through the VJP table; accumulates into
        ``Parameter.grad`` as the eager ``Tensor.backward`` sweep does."""
        if self.output not in self.needs_grad():
            return
        grads: Dict[int, np.ndarray] = {
            self.output: np.asarray(grad, dtype=np.float64)
        }
        for pos, op, vjp, needed in self._reverse_plan():
            g = grads.pop(op.out, None)
            if g is None:
                continue
            ins = tuple(values[s] for s in op.inputs)
            partials = vjp(g, ins, values[op.out], residuals[pos], op.attrs, needed)
            for slot, partial in zip(op.inputs, partials):
                if partial is None:
                    continue
                if slot in grads:
                    # non-inplace: partials may be views of upstream grads
                    grads[slot] = grads[slot] + partial
                else:
                    grads[slot] = partial
        for slot, param in self.params.items():
            partial = grads.get(slot)
            if partial is not None:
                param._accumulate(np.asarray(partial, dtype=np.float64))

    def signature(self) -> str:
        """Stable digest of the recorded structure (golden regression)."""
        return hashlib.sha256(format_tape(self).encode()).hexdigest()[:16]


# -- tracing -----------------------------------------------------------------


class TraceState:
    """Recorder of one trace: resolves operands to slots, emits ops.

    Installed with :func:`repro.nn.tensor.recording`, it receives every
    primitive application of the traced forward.  Each op also computes
    its real value (through the same primitive forward the interpreter
    runs), so shape checks and data-dependent control flow in the model
    see concrete arrays while tracing.
    """

    def __init__(self, tape: Tape, param_names: Dict[int, str]) -> None:
        self.tape = tape
        self.param_names = param_names       # id(param) -> dotted name
        self.objects: Dict[int, int] = {}    # id(obj) -> slot (adj, sizes)
        self._tensor_slots: Dict[int, int] = {}
        # keep every cached tensor alive for the trace: the id() keys above
        # are only unique while the object exists, and transient scalar
        # promotions (e.g. ``t + 0.5``) die right after their op is emitted,
        # letting a later, different constant inherit the recycled id and
        # silently alias the stale slot
        self._tensor_refs: List[Tensor] = []

    # -- slot resolution ----------------------------------------------------

    def bind(self, t: Tensor, slot: int) -> Tensor:
        """Mark ``t`` as the value of this trace's recorded ``slot`` (the
        mark, not an id() key, so the trace never keeps values alive)."""
        t._recorded_as = (self, slot)
        return t

    def slot_for_tensor(self, t: Tensor) -> int:
        mark = getattr(t, "_recorded_as", None)
        if mark is not None:
            if mark[0] is not self:
                raise EngineError("mixed tensors from two different traces")
            return mark[1]
        key = id(t)
        slot = self._tensor_slots.get(key)
        if slot is None:
            if isinstance(t, Parameter):
                name = self.param_names.get(key)
                if name is None:
                    name = f"param{len(self.tape.params)}"
                slot = self.tape.add_param(name, t)
            else:
                slot = self.tape.add_const(t.data)
            self._tensor_slots[key] = slot
            self._tensor_refs.append(t)
        return slot

    def slot_for_object(self, obj) -> int:
        slot = self.objects.get(id(obj))
        if slot is None:
            raise EngineError(
                "tracing reached a graph-structure object (adjacency/sizes) "
                "that was not registered as a tape input"
            )
        return slot

    # -- the recorder hook (repro.nn.tensor.apply) --------------------------

    def record(self, prim, inputs: tuple, attrs: Dict[str, object]) -> Tensor:
        slots = tuple([
            self.slot_for_tensor(t) if isinstance(t, Tensor)
            else self.slot_for_object(t)
            for t in inputs
        ])
        ins = tuple([t.data if isinstance(t, Tensor) else t for t in inputs])
        value_attrs = attrs
        if "rng" in attrs:
            # trace-time values draw from a throwaway generator, so recording
            # never consumes a layer's rng (execution draws the real masks)
            value_attrs = dict(attrs, rng=ensure_rng(0))
        data = prim.forward(ins, value_attrs)
        slot = self.tape.new_slot()
        self.tape.ops.append(
            TapeOp(prim.name, slots, slot, dict(attrs), tuple(np.shape(data)))
        )
        return self.bind(Tensor(data), slot)


def record_tape(
    fn,
    arrays: Dict[str, np.ndarray],
    objects: Dict[str, object],
    params: Dict[str, Parameter],
) -> Tape:
    """Trace ``fn(**inputs)`` into a :class:`Tape`.

    ``arrays`` are float inputs bound to Tensors whose ops are recorded;
    ``objects`` are opaque structure inputs (sparse adjacency, sizes
    vector) registered by identity so the ops that take them map them back
    to slots; ``params`` names the model's live parameters
    (``model.named_parameters()``).
    """
    tape = Tape()
    state = TraceState(tape, {id(p): name for name, p in params.items()})
    bound: Dict[str, object] = {}
    for name, arr in arrays.items():
        slot = tape.add_input(name, array=True)
        bound[name] = state.bind(
            Tensor(np.asarray(arr, dtype=np.float64)), slot
        )
    for name, obj in objects.items():
        slot = tape.add_input(name, array=False)
        state.objects[id(obj)] = slot
        bound[name] = obj
    with no_grad(), recording(state):
        out = fn(**bound)
    mark = getattr(out, "_recorded_as", None)
    if mark is None or mark[0] is not state:
        raise EngineError(
            "tracing escaped the tape: the forward returned a value that "
            "was not recorded (an op bypassed repro.nn.tensor.apply)"
        )
    tape.output = mark[1]
    return tape


# -- replay plan: folding and fusion -----------------------------------------
#
# ``build_plan`` turns a tape into the step list ``TapeExecutor`` replays, in
# two passes.  Folding first removes data movement that cannot change a byte
# for any batch of the tape's shape class: a reshape to the shape its source
# already has, a gather whose indices copy every row in order, and ops
# nothing reads.  Fusion then chains adjacent elementwise ops onto their
# producer.  Every rewrite reads only op attrs (reshape targets, gather
# indices) and the shapes that are fixed per shape class, never one
# batch's values.

#: primitives whose output is always a fresh C-contiguous array: ``np.take``
#: and integer-array indexing allocate in C order whatever the input's
#: layout, so aliasing a copy of such a value, or a reshape of it back to
#: its own shape, hands the reader the same bytes in the same layout
_C_ORDER_OUTPUT = frozenset({"gather", "segment_sort_pool", "qsegment_sort_pool"})


def _varying_dims(tape: Tape) -> Dict[int, Tuple[bool, ...]]:
    """Which dimensions of each slot may differ between two batches of the
    tape's shape class.

    A tape serves every pack with its graph count ``B``: node counts vary,
    so the rows of the node matrices and of the adjacency vary, while
    parameter and constant shapes, reshape targets, gather indices and the
    ``B·k`` rows of a sort pool are fixed.  Inputs are left out and count
    as varying in every dimension, as does every dimension of an op the
    rules here do not know.
    """
    vary: Dict[int, Tuple[bool, ...]] = {}
    for slot, param in tape.params.items():
        vary[slot] = (False,) * np.ndim(param.data)
    for slot, data in tape.consts.items():
        vary[slot] = (False,) * data.ndim
    for op in tape.ops:
        vary[op.out] = _op_varying(op, [vary.get(s) for s in op.inputs])
    return vary


def _op_varying(op: TapeOp, ins: List[Optional[Tuple[bool, ...]]]):
    rank = len(op.shape)
    every = (True,) * rank
    src = ins[0] if ins else None
    name = op.prim
    if name == "reshape":
        # an explicit target (no -1) is the recorded output shape
        explicit = tuple(op.attrs["shape"]) == tuple(op.shape)
        fixed = explicit or (src is not None and not any(src))
        return (False,) * rank if fixed else every
    if name == "gather":
        lead = op.attrs["indices"].ndim
        return (False,) * lead + (src[1:] if src is not None else every[lead:])
    if name in ("segment_sort_pool", "qsegment_sort_pool"):
        return (False,) + (src[1:] if src is not None else every[1:])
    if name in ("matmul", "qmatmul", "adj_matmul", "qadj_matmul"):
        # rows from the left operand (the adjacency's rows), columns from
        # the right one
        right = ins[1]
        if rank != 2:
            return every
        rows = src[0] if src is not None and len(src) == 2 else True
        cols = right[1] if right is not None and len(right) == 2 else True
        return (rows, cols)
    if any(v is None for v in ins):
        return every
    prim = PRIMITIVES.get(name)
    if prim is not None and prim.elementwise:
        # numpy broadcasting aligns trailing dimensions
        return tuple(
            any(v[j - rank + len(v)] for v in ins if j - rank + len(v) >= 0)
            for j in range(rank)
        )
    if name == "concat":
        return tuple(any(v[j] for v in ins) for j in range(rank))
    if name in ("sum", "max"):
        axis = op.attrs.get("axis")
        if axis is None:
            return (False,) * rank
        axis %= len(src)
        if op.attrs.get("keepdims", False):
            return src[:axis] + (False,) + src[axis + 1:]
        return src[:axis] + src[axis + 1:]
    return every


def _identity_gather(indices: np.ndarray, rows: int) -> bool:
    """True when gathering ``indices`` from ``rows`` rows copies every row
    once, in order."""
    return (
        indices.ndim == 1
        and indices.shape[0] == rows
        and bool((indices == np.arange(rows)).all())
    )


@dataclass
class PlanStep:
    """One interpreter step: a base op plus an in-place elementwise chain.

    ``inputs`` are the base op's recorded operands with every aliased slot
    resolved to the slot holding its value.  ``chain`` entries are
    ``(op, other_slot, base_on_left)``: unary links have ``other_slot is
    None``; binary links apply the op between the running value and
    ``values[other_slot]`` in the recorded operand order.
    """

    base: TapeOp
    inputs: Tuple[int, ...]
    chain: List[Tuple[TapeOp, Optional[int], bool]] = field(default_factory=list)

    @property
    def out(self) -> int:
        return self.chain[-1][0].out if self.chain else self.base.out


@dataclass
class Plan:
    """What :class:`TapeExecutor` replays for one tape.

    ``steps`` run in tape order, their readers of a folded slot already
    pointed at the slot holding its value.  ``folded`` lists the recorded
    ops no step runs, each with the reason: ``"alias"`` (its value is
    another slot's) or ``"dead"`` (nothing reads it).
    ``output`` is the slot holding the tape's result.
    """

    steps: List[PlanStep]
    folded: List[Tuple[TapeOp, str]]
    output: int


def _chain_link(op: TapeOp, inputs, producer_out: int, tape: Tape, use_count,
                output: int):
    """Classify ``op`` (reading ``inputs``) as a fusable chain link on top
    of ``producer_out``, or return None.  Fusable links consume the
    producer exactly once and — for binaries — pair it with a fixed-shape
    const/param operand that broadcasts without growing the producer's
    shape (bias adds, scalings), so executing in place on the producer's
    buffer is value-preserving."""
    prim = PRIMITIVES.get(op.prim)
    if prim is None or not prim.elementwise:
        return None
    if use_count.get(producer_out, 0) != 1 or producer_out == output:
        return None
    if prim.kind == "unary_ew":
        return (op, None, True) if inputs == (producer_out,) else None
    a, b = inputs
    if a == producer_out and b != producer_out:
        other, left = b, True
    elif b == producer_out and a != producer_out:
        other, left = a, False
    else:
        return None
    if other not in tape.consts and other not in tape.params:
        return None
    other_shape = (
        tape.consts[other].shape
        if other in tape.consts else tape.params[other].shape
    )
    # in-place on the producer's buffer must preserve its shape for every
    # batch of this shape class: allow scalar/all-ones operands or strictly
    # lower-rank broadcasts (bias rows) — never rank-matching blocks whose
    # leading dim could differ at another node count
    if len(other_shape) >= len(op.shape) and not all(d == 1 for d in other_shape):
        return None
    if tuple(np.broadcast_shapes(op.shape, other_shape)) != tuple(op.shape):
        return None
    return op, other, left


def _fold(tape: Tape):
    """The folding pass: ``(kept, folded, output)`` where ``kept`` lists
    ``(op, inputs)`` of the ops still to run, in tape order."""
    vary = _varying_dims(tape)
    shapes: Dict[int, Tuple[int, ...]] = {
        slot: tuple(np.shape(param.data)) for slot, param in tape.params.items()
    }
    shapes.update((slot, data.shape) for slot, data in tape.consts.items())
    shapes.update((op.out, tuple(op.shape)) for op in tape.ops)

    def fixed(slot: int) -> bool:       # same shape for every batch served
        dims = vary.get(slot)
        return dims is not None and not any(dims)

    aliases: Dict[int, int] = {}        # always to an unfolded slot
    folded: List[Tuple[TapeOp, str]] = []
    kept: List[Tuple[TapeOp, Tuple[int, ...]]] = []
    producer: Dict[int, Tuple[TapeOp, Tuple[int, ...]]] = {}
    c_order: set = set()                # slots known C-contiguous

    def reshape_source(target, source: int) -> Optional[int]:
        # the source itself at the target shape, or — back through earlier
        # reshapes — a C-contiguous value at the target shape, of which
        # every reshape on the way is a C-order view
        slot = source
        while True:
            if fixed(slot) and shapes[slot] == target and (
                slot == source or slot in c_order
            ):
                return slot
            entry = producer.get(slot)
            if entry is None or entry[0].prim != "reshape":
                return None
            slot = entry[1][0]

    for op in tape.ops:
        inputs = tuple([aliases.get(s, s) for s in op.inputs])
        source = None
        if op.prim == "reshape":
            source = reshape_source(tuple(op.shape), inputs[0])
        elif op.prim == "gather":
            src = inputs[0]
            if src in c_order and fixed(src) and shapes[src] and _identity_gather(
                op.attrs["indices"], shapes[src][0]
            ):
                source = src
        if source is not None:
            aliases[op.out] = source
            folded.append((op, "alias"))
            continue
        if op.prim in _C_ORDER_OUTPUT or (
            op.prim == "reshape" and inputs[0] in c_order
        ):
            c_order.add(op.out)
        kept.append((op, inputs))
        producer[op.out] = (op, inputs)
    output = aliases.get(tape.output, tape.output)

    # drop what nothing reads (ops that draw from an rng always run)
    live = {output}
    run: List[Tuple[TapeOp, Tuple[int, ...]]] = []
    for op, inputs in reversed(kept):
        if op.out in live or "rng" in op.attrs:
            live.update(inputs)
            run.append((op, inputs))
        else:
            folded.append((op, "dead"))
    run.reverse()
    return run, folded, output


def build_plan(tape: Tape) -> Plan:
    """Fold no-op data movement out of the tape, then fuse adjacent
    elementwise ops onto their producer."""
    kept, folded, output = _fold(tape)
    use_count: Dict[int, int] = {output: 1}
    for _op, inputs in kept:
        for slot in inputs:
            use_count[slot] = use_count.get(slot, 0) + 1
    steps: List[PlanStep] = []
    pos = 0
    while pos < len(kept):
        base, inputs = kept[pos]
        step = PlanStep(base, inputs)
        pos += 1
        if get_primitive(base.prim).fresh:
            current = base
            while pos < len(kept):
                link = _chain_link(
                    kept[pos][0], kept[pos][1], current.out, tape, use_count,
                    output,
                )
                if link is None:
                    break
                step.chain.append(link)
                current = kept[pos][0]
                pos += 1
        steps.append(step)
    return Plan(steps, folded, output)


def unfuse_plan(plan: Plan) -> List[TapeOp]:
    """Every recorded op the plan accounts for — run, chained or folded —
    back in tape order (slots are numbered in recording order).  The
    executor checks that this gives back the tape's op list exactly."""
    ops = [op for op, _why in plan.folded]
    for step in plan.steps:
        ops.append(step.base)
        ops.extend(op for op, _other, _left in step.chain)
    return sorted(ops, key=lambda op: op.out)


def _check_plan(tape: Tape, plan: Plan) -> None:
    """Construction-time check: every recorded op is run, chained, aliased
    or dead exactly once, and every slot a step reads is an input, a
    parameter, a constant or an earlier step's result."""
    flat = unfuse_plan(plan)
    if len(flat) != len(tape.ops) or any(
        a is not b for a, b in zip(flat, tape.ops)
    ):
        raise EngineError("replay plan does not account for every recorded op")
    ready = set(tape.input_slots.values()) | set(tape.params) | set(tape.consts)
    for step in plan.steps:
        reads = set(step.inputs)
        reads.update(other for _op, other, _left in step.chain if other is not None)
        if not reads <= ready:
            raise EngineError(
                f"replay plan reads slot(s) {sorted(reads - ready)} before "
                f"any step writes them"
            )
        ready.add(step.out)
    if plan.output not in ready:
        raise EngineError("replay plan never writes the tape's output")


class TapeExecutor:
    """Folded, fused, buffer-reusing tape interpreter for inference.

    One executor per recorded tape; ``new_buffers()`` hands out a per-thread
    buffer table (the serving layer calls ``run`` from several threads), and
    ``run`` returns a fresh copy of the output so later calls can never
    overwrite a result the caller still holds.

    Each plan step is bound once, here: the primitive's forward, input
    slots, attrs, the ``out_shape`` of a fresh op, and the chain's
    ``(fwd, attrs, other, left)`` links.  ``run`` replays that list with no
    registry lookup, so an executor keeps the primitives that were
    registered when it was built.
    """

    def __init__(self, tape: Tape) -> None:
        self.tape = tape
        # scratch buffers take the tape's execution dtype: float64 for the
        # exact tier, float32 for quantized tapes (see repro.runtime.qtape)
        self.dtype = np.dtype(getattr(tape, "dtype", np.float64))
        plan = build_plan(tape)
        _check_plan(tape, plan)
        self.plan = plan
        self.output = plan.output
        self.steps = []
        for step in plan.steps:
            prim = get_primitive(step.base.prim)
            chain = tuple(
                (get_primitive(link.prim).fwd, link.attrs, other, left)
                for link, other, left in step.chain
            )
            self.steps.append((
                prim.fwd, step.inputs, step.base.attrs,
                prim.out_shape if prim.fresh else None, chain, step.out,
            ))

    def new_buffers(self) -> List[Optional[np.ndarray]]:
        return [None] * len(self.steps)

    def run(
        self,
        bindings: Dict[str, object],
        buffers: Optional[List[Optional[np.ndarray]]] = None,
    ) -> np.ndarray:
        values = self.tape.seed_values(bindings)
        for pos, (fwd, inputs, attrs, out_shape, chain, out_slot) in enumerate(
            self.steps
        ):
            ins = tuple([values[s] for s in inputs])
            out = None
            if buffers is not None and out_shape is not None:
                shape = tuple(out_shape(ins, attrs))
                out = buffers[pos]
                if out is None or out.shape != shape:
                    out = buffers[pos] = np.empty(shape, dtype=self.dtype)
            value = fwd(ins, attrs, out)
            # chains only start on fresh outputs, so in-place is safe
            for link_fwd, link_attrs, other, left in chain:
                if other is None:
                    pair = (value,)
                elif left:
                    pair = (value, values[other])
                else:
                    pair = (values[other], value)
                value = link_fwd(pair, link_attrs, value)
            values[out_slot] = value
        return np.array(values[self.output], copy=True)


# -- human-readable serialization (golden-tape regression) -------------------


def _format_attr(value) -> str:
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
        return f"{value.dtype}[{'x'.join(map(str, value.shape))}]#{digest.hexdigest()[:10]}"
    if hasattr(value, "random"):          # numpy Generator (dropout)
        return "<rng>"
    if isinstance(value, tuple):
        return "(" + ", ".join(_format_attr(v) for v in value) + ")"
    if isinstance(value, slice):
        fmt = lambda x: "" if x is None else str(x)  # noqa: E731
        return f"{fmt(value.start)}:{fmt(value.stop)}" + (
            f":{value.step}" if value.step is not None else ""
        )
    return repr(value)


def format_tape(tape: Tape, title: str = "tape") -> str:
    """Deterministic human-readable rendering of a recorded tape."""
    lines = [f"# {title}"]
    for name, slot in tape.input_slots.items():
        kind = "array" if name in tape.array_inputs else "object"
        lines.append(f"%{slot:03d} = input {name} [{kind}]")
    for slot, name in tape.param_slots.items():
        shape = "x".join(map(str, tape.params[slot].shape))
        lines.append(f"%{slot:03d} = param {name} ({shape})")
    for slot, data in tape.consts.items():
        lines.append(f"%{slot:03d} = const {_format_attr(data)}")
    for op in tape.ops:
        args = ", ".join(f"%{s:03d}" for s in op.inputs)
        attrs = ""
        if op.attrs:
            rendered = ", ".join(
                f"{k}={_format_attr(v)}" for k, v in sorted(op.attrs.items())
            )
            attrs = f" {{{rendered}}}"
        shape = "x".join(map(str, op.shape))
        lines.append(
            f"%{op.out:03d} = {op.prim}({args}){attrs} -> ({shape})"
        )
    lines.append(f"# output %{tape.output:03d}")
    return "\n".join(lines) + "\n"
