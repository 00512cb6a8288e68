"""Operation registry: a finite table of op *types*.

Every primitive operation is described once by an :class:`OpDef` and is
shared by the two execution modes:

- the **eager** executor calls ``kernel`` immediately on NumPy values;
- the **graph** builder records an ``Operation`` node whose kernel is
  bound into the session's compiled execution plan.

A type is what every use of the op has in common: the kernel and its
rules.  What differs per use is carried by the ``Operation`` (or the
eager call), never by a new registry entry, so the table does not grow
as programs are built:

- **arity** — a type whose number of outputs depends on the use
  (``Cond``, ``While``) declares
  ``num_outputs`` as a callable ``fn(inputs, attrs) -> int``; it is
  evaluated once, when the operation is created
  (:meth:`OpDef.output_count`), and ``len(op.outputs)`` is the answer
  from then on;
- **state** — an op that touches a variable (``ReadVariable``,
  ``AssignVariable`` …) names it through its ``state`` attr, which
  holds the :class:`~repro.framework.graph.variables.VariableState`
  cell.  The graph that contains the op keeps the cell alive; the
  registry never does.

:func:`register_op` is the only way in: no other module touches the
table (``tests/test_registry_is_closed.py`` parses the package to keep
it so).

Gradient functions are expressed in terms of the *public dispatching ops*
(``repro.framework.ops``), and one reverse-mode walk
(:func:`~repro.framework.graph.gradients.backprop`) drives them for both
graph-mode ``gradients()`` and the eager ``GradientTape``: it stages
gradient ops in a graph and runs them eagerly under a tape.
"""

from __future__ import annotations

__all__ = ["OpDef", "register_op", "register_gradient", "get_op_def", "list_ops",
           "elementwise_ops"]

_REGISTRY = {}


class OpDef:
    """Static description of a primitive operation.

    Attributes:
      name: unique op type name, e.g. ``"MatMul"``.
      kernel: ``fn(*input_values, **attrs)`` returning a value (or a tuple
        when the op has more than one output).  Input values are NumPy
        arrays or opaque runtime objects (TensorArray state, etc.).
      num_outputs: number of output tensors, or ``fn(inputs, attrs) ->
        int`` for a variadic type (see :meth:`output_count`).
      grad_fn: ``fn(op, *output_grads) -> [input_grads]`` written against
        the public ops API; None when not differentiable.
      shape_fn: optional ``fn(inputs, attrs) -> [TensorShape]``, the
        only source of a staged output's static shape.  ``inputs`` are
        the operands themselves (graph tensors, or a tracer's values):
        a rule reads their shapes with ``shapes.shape_of`` and reads a
        value — a reshape's target, a fill's dims — with
        ``shapes.constant_value`` / ``shape_value`` only for the operand
        it needs.  No rule (or one that raises) declares unknown.
      dtype_fn: optional ``fn(input_dtypes, attrs) -> [DType]``.
      stateful: True for ops with side effects (variables, random, print);
        stateful ops are never deduplicated or constant-folded.

    The remaining fields are read by the runtime planner and the block
    layer.  For an elementwise op they are not independent flags: one
    ``kernels._elementwise(name, fn)`` call derives them all from the
    NumPy callable (a ufunc is kernel, ``fusable`` and, with ``out=``,
    ``inplace_kernel``; always ``fresh_output``, the broadcast
    ``shape_fn``, NumPy's own ``dtype_fn``).  Every other kernel that
    allocates its result says so with ``fresh_output``; only ``MatMul``'s
    disjoint ``out=`` is an ``inplace_kernel`` set by hand.

      inplace_kernel: optional ``fn(*input_values, out=buffer)`` variant
        writing the result into ``out`` (same shape/dtype as the result)
        and refusing, before writing, an unsafe cast.  The runtime
        planner uses it to write into a dead intermediate's buffer
        instead of allocating.  Only an ``elementwise`` op may be handed
        a buffer it reads itself (a ufunc tolerates ``out`` aliasing an
        operand); any other kernel gets one dead before its step runs.
      fresh_output: True when the kernel always *allocates* its result —
        the returned array never shares memory with an input, a
        variable's storage, or any other external buffer.  Only such
        results are buffers the planner may recycle; every other
        kernel's results are taken to share its inputs' buffers (a view
        from ``Reshape``, the array ``Identity`` or a variable read
        returns, an element a ``TensorArrayWrite`` holds).
      fusable: ``None``, or the ufunc this op *is* (``kernel(*inputs)``
        is exactly ``fusable(*inputs)``, dtype promotion included).  The
        fusion pass (:mod:`repro.runtime.fusion`) groups chains/trees
        of such steps into one step, which the plan walk writes as nested
        calls of the ufuncs themselves — op type → compiled primitive.
      elementwise: number of operands the op maps over value-locally,
        broadcasting them (0: not elementwise); ``repro.blocks`` maps
        exactly these ops block by block (:func:`elementwise_ops`).
    """

    __slots__ = (
        "name",
        "kernel",
        "num_outputs",
        "grad_fn",
        "shape_fn",
        "dtype_fn",
        "stateful",
        "inplace_kernel",
        "fresh_output",
        "fusable",
        "elementwise",
    )

    def __init__(self, name, kernel, *, num_outputs=1, grad_fn=None, shape_fn=None,
                 dtype_fn=None, stateful=False, inplace_kernel=None,
                 fresh_output=False, fusable=None, elementwise=0):
        self.name = name
        self.kernel = kernel
        self.num_outputs = num_outputs
        self.grad_fn = grad_fn
        self.shape_fn = shape_fn
        self.dtype_fn = dtype_fn
        self.stateful = stateful
        self.inplace_kernel = inplace_kernel
        self.fresh_output = fresh_output
        self.fusable = fusable
        self.elementwise = elementwise

    def output_count(self, inputs, attrs):
        """How many outputs a use of this op on ``inputs`` / ``attrs``
        has: ``num_outputs``, asked of the use when the type is
        variadic."""
        n = self.num_outputs
        return n if isinstance(n, int) else n(inputs, attrs)

    def __repr__(self):
        outputs = self.num_outputs if isinstance(self.num_outputs, int) else "variadic"
        return f"OpDef({self.name!r}, outputs={outputs}, stateful={self.stateful})"


def register_op(name, kernel, **kwargs):
    """Register an op; returns the created :class:`OpDef`.

    Raises:
      ValueError: if ``name`` is already registered.
    """
    if name in _REGISTRY:
        raise ValueError(f"Op {name!r} is already registered")
    op_def = OpDef(name, kernel, **kwargs)
    _REGISTRY[name] = op_def
    return op_def


def register_gradient(name):
    """Decorator attaching a gradient function to a registered op."""

    def decorator(fn):
        op_def = get_op_def(name)
        if op_def.grad_fn is not None:
            raise ValueError(f"Op {name!r} already has a gradient")
        op_def.grad_fn = fn
        return fn

    return decorator


def get_op_def(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"Unknown op type: {name!r}") from None


def list_ops():
    """All registered op names, sorted."""
    return sorted(_REGISTRY)


def elementwise_ops(arity):
    """Names of the registered ops elementwise over ``arity`` operands."""
    return frozenset(
        name for name, op_def in _REGISTRY.items()
        if op_def.elementwise == arity)
