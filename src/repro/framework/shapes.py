"""Tensor shapes with partial (unknown) dimension support, and the one
reader of what an operand's value is known to be before anything runs.

``TensorShape`` mirrors TensorFlow's shape objects: a rank may be unknown
(``TensorShape(None)``) and any dimension may be unknown (``None``).

Every op's static shape is its registry rule's answer
(``OpDef.shape_fn``), and nothing patches it afterwards.  A rule is
handed the op's operands: it reads their static shapes with
:func:`shape_of` and, for the one operand a result's shape is spelled
in (``reshape``'s target, ``fill``'s dims, ``one_hot``'s depth), its
value with :func:`constant_value` / :func:`shape_value`, TensorFlow's
``constant_value`` / ``constant_value_as_shape``.  A dimension no rule
can know (a ``boolean_mask``'s count, a target fed at run time) is
unknown, which is always legal: the executors resolve it at run time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TensorShape", "broadcast_shapes", "unknown", "shape_of",
           "constant_value", "shape_value"]


class TensorShape:
    """A possibly-partial tensor shape."""

    __slots__ = ("_dims",)

    def __init__(self, dims=None):
        if dims is None:
            self._dims = None
        elif isinstance(dims, TensorShape):
            self._dims = dims._dims
        elif isinstance(dims, int):
            self._dims = (int(dims),)
        else:
            out = []
            for d in dims:
                if d is None:
                    out.append(None)
                else:
                    d = int(d)
                    if d < 0:
                        raise ValueError(f"Negative dimension {d} in shape {dims!r}")
                    out.append(d)
            self._dims = tuple(out)

    # -- basic introspection -------------------------------------------------

    @property
    def rank(self):
        return None if self._dims is None else len(self._dims)

    @property
    def dims(self):
        return self._dims

    @property
    def is_fully_defined(self):
        return self._dims is not None and all(d is not None for d in self._dims)

    def num_elements(self):
        if not self.is_fully_defined:
            return None
        n = 1
        for d in self._dims:
            n *= d
        return n

    def as_list(self):
        if self._dims is None:
            raise ValueError("Cannot convert an unknown-rank shape to a list")
        return list(self._dims)

    def as_tuple(self):
        if self._dims is None:
            raise ValueError("Cannot convert an unknown-rank shape to a tuple")
        return self._dims

    # -- structure -----------------------------------------------------------

    def __getitem__(self, idx):
        if self._dims is None:
            raise ValueError("Shape has unknown rank")
        got = self._dims[idx]
        return TensorShape(got) if isinstance(idx, slice) else got

    def __len__(self):
        if self._dims is None:
            raise ValueError("Shape has unknown rank")
        return len(self._dims)

    def __iter__(self):
        if self._dims is None:
            raise ValueError("Shape has unknown rank")
        return iter(self._dims)

    def concatenate(self, other):
        other = TensorShape(other)
        if self._dims is None or other._dims is None:
            return TensorShape(None)
        return TensorShape(self._dims + other._dims)

    def merge_with(self, other):
        """Combine two partial shapes, erroring on contradictions."""
        other = TensorShape(other)
        if self._dims is None:
            return other
        if other._dims is None:
            return self
        if len(self._dims) != len(other._dims):
            raise ValueError(f"Incompatible ranks: {self} vs {other}")
        merged = []
        for a, b in zip(self._dims, other._dims):
            if a is None:
                merged.append(b)
            elif b is None or a == b:
                merged.append(a)
            else:
                raise ValueError(f"Incompatible shapes: {self} vs {other}")
        return TensorShape(merged)

    def is_compatible_with(self, other):
        try:
            self.merge_with(other)
            return True
        except ValueError:
            return False

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (tuple, list)):
            other = TensorShape(other)
        if not isinstance(other, TensorShape):
            return NotImplemented
        return self._dims == other._dims

    def __hash__(self):
        return hash(self._dims)

    def __repr__(self):
        if self._dims is None:
            return "TensorShape(None)"
        return f"TensorShape({list(self._dims)!r})"

    def __str__(self):
        if self._dims is None:
            return "<unknown>"
        return "(" + ", ".join("?" if d is None else str(d) for d in self._dims) + ")"


unknown = TensorShape(None)


def broadcast_shapes(a, b):
    """NumPy-style broadcast of two partial shapes.

    Unknown dims broadcast to unknown unless the peer dim is known to be
    non-broadcasting-compatible only at runtime; we stay permissive.
    """
    a = TensorShape(a)
    b = TensorShape(b)
    if a.dims is None or b.dims is None:
        return unknown
    ra, rb = list(a.dims), list(b.dims)
    if len(ra) < len(rb):
        ra = [1] * (len(rb) - len(ra)) + ra
    elif len(rb) < len(ra):
        rb = [1] * (len(ra) - len(rb)) + rb
    out = []
    for da, db in zip(ra, rb):
        if da == 1:
            out.append(db)
        elif db == 1:
            out.append(da)
        elif da is None:
            out.append(db)
        elif db is None:
            out.append(da)
        elif da == db:
            out.append(da)
        else:
            raise ValueError(f"Shapes {a} and {b} are not broadcastable")
    return TensorShape(out)


_NO_SHAPE = object()


def shape_of(operand):
    """An op operand's static shape: a graph tensor's declared one, or a
    concrete value's own (a tracer's ``shape`` may be a tuple, or None
    where unknown)."""
    shape = getattr(operand, "shape", _NO_SHAPE)
    if isinstance(shape, TensorShape):
        return shape
    return TensorShape(np.shape(operand) if shape is _NO_SHAPE else shape)


def constant_value(operand):
    """What ``operand`` holds, when that is known before anything runs;
    else None.

    A concrete ndarray is its own value.  A graph tensor's is known when
    its op is a ``Const``, a ``Shape`` of a fully known operand, or a
    ``Pack`` of operands whose values are known.  Nothing is evaluated
    but that ``Pack``: a rule asks only for the operand it reads.
    """
    if isinstance(operand, np.ndarray):
        return operand
    op = getattr(operand, "op", None)
    kind = getattr(op, "type", None)
    if kind == "Const":
        return np.asarray(op.attrs["value"])
    if kind == "Shape":
        dims = op.inputs[0].shape
        return (np.asarray(dims.dims, np.int32) if dims.is_fully_defined
                else None)
    if kind == "Pack":
        values = [constant_value(t) for t in op.inputs]
        if values and all(v is not None for v in values):
            return op.op_def.kernel(*values, **op.attrs)
    return None


def shape_value(operand):
    """The dimensions a shape operand spells (every element, flattened,
    as a kernel reads it): ints where known, ``-1`` kept, None where
    unknown; None when not even their number is known.

    A ``Shape`` of a partly known operand and a ``Pack`` of scalars are
    read entry by entry, so ``reshape(g, shape(x))`` keeps what is known
    of ``x``'s shape."""
    value = constant_value(operand)
    if value is not None:
        return tuple(int(d) for d in np.ravel(value))
    op = getattr(operand, "op", None)
    kind = getattr(op, "type", None)
    if kind == "Shape":
        return op.inputs[0].shape.dims
    if kind == "Pack" and all(t.shape.rank == 0 for t in op.inputs):
        return tuple(None if v is None else int(v)
                     for v in map(constant_value, op.inputs))
    n = shape_of(operand).num_elements()
    return None if n is None else (None,) * n
