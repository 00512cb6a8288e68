"""Public, mode-agnostic operations API.

This package is the reproduction's equivalent of the ``tf.*`` op surface:
one set of functions that *build graph nodes* when a graph is default and
*execute eagerly* otherwise.
"""

from . import dispatch
from .array_ops import (
    boolean_mask,
    concat,
    constant,
    expand_dims,
    eye,
    fill,
    gather,
    get_item,
    identity,
    one_hot,
    ones,
    ones_like,
    placeholder,
    range,
    rank,
    reshape,
    set_item,
    shape,
    size,
    squeeze,
    stack,
    tile,
    transpose,
    unstack,
    where,
    zeros,
    zeros_like,
)
from .control_flow_ops import assert_op, cond, group, print_v2, while_loop
from .dispatch import convert_to_tensor
from .math_ops import (
    abs,
    add,
    argmax,
    argmin,
    cast,
    divide,
    equal,
    exp,
    floor,
    floordiv,
    greater,
    greater_equal,
    less,
    less_equal,
    log,
    logical_and,
    logical_not,
    logical_or,
    matmul,
    maximum,
    minimum,
    mod,
    multiply,
    negative,
    not_equal,
    pow,
    reduce_all,
    reduce_any,
    reduce_max,
    reduce_mean,
    reduce_min,
    reduce_prod,
    reduce_sum,
    sigmoid,
    sign,
    sqrt,
    square,
    subtract,
    tanh,
    tensordot,
    top_k,
)
from .nn_ops import (
    embedding_lookup,
    log_softmax,
    relu,
    softmax,
    softmax_cross_entropy_with_logits,
    sparse_softmax_cross_entropy_with_logits,
)
from .random_ops import random_normal, random_uniform, set_seed

# Gradient registrations are side-effecting imports: they attach grad_fns
# to the op registry (shared by graph gradients() and the eager tape).
from . import gradients_impl  # noqa: E402,F401  (registration side effects)
