"""GraphDef-style serialization: a traced graph to/from plain data.

``graph_to_def`` walks a (usually optimized) :class:`Graph` and encodes
it as JSON-able dictionaries plus an ndarray pool, the repo's analogue
of TensorFlow's ``GraphDef`` + checkpoint pair; ``graph_from_def``
rebuilds an executable graph in a fresh process from that data.

Closed-over state serializes two ways.  *Freezing* (the default path):
capture placeholders listed in ``freeze_placeholders`` — and
``ReadVariable`` ops (staged inside control-flow bodies) — are
replaced by ``Const`` nodes holding the current value, so the artifact
is self-contained and carries no reference to the exporting process's
state cells.  *Non-frozen* export instead
keeps capture placeholders as ordinary graph inputs; the caller ships
their values as a separate checkpoint and the loaded artifact can
hot-swap them.  Ops with other side effects (assigns, random draws,
staged prints) are refused — an exported signature is a pure function
of its inputs.  Functional control flow (``Cond`` / ``While``) is
supported: the branch/body ``FuncGraph``s stored in their attrs are
encoded recursively, and a node's arity is re-derived from them when
the op is rebuilt.
"""

from __future__ import annotations

import numpy as np

from .. import dtypes
from ..errors import GraphError
from ..registry import get_op_def
from ..shapes import TensorShape
from .func_graph import FuncGraph
from .graph import Graph

__all__ = ["GraphSerializationError", "find_unexportable_ops",
           "graph_to_def", "graph_from_def"]

# 2: one ``Cond`` / ``While`` type each (were ``Cond_<n>`` / ``While_<n>``).
FORMAT_VERSION = 2

# The stateful op types an export keeps (control flow, whose sub-graphs
# are checked in turn) or freezes (variable reads); every other stateful
# op is refused.
_CONTROL_FLOW = ("Cond", "While")


class GraphSerializationError(GraphError):
    """The graph contains something that cannot cross a process boundary."""


def find_unexportable_ops(graph):
    """``"name (type)"`` — ``"name (type of 'variable')"`` for an op
    on variable state — for every op serialization would refuse.

    The pre-flight twin of :func:`graph_to_def`'s stateful-op check —
    recursing into ``Cond``/``While`` subgraph attrs exactly like the
    encoder does, so diagnostics (``export_compatibility``,
    ``pretty_cache``) agree with what ``save`` will actually accept.
    """
    offending = []
    for op in graph.ops:
        if (op.op_def.stateful and op.type != "ReadVariable"
                and op.type not in _CONTROL_FLOW):
            state = op.attrs.get("state")
            what = op.type if state is None else f"{op.type} of {state.name!r}"
            offending.append(f"{op.name} ({what})")
            continue
        for value in op.attrs.values():
            if isinstance(value, FuncGraph):
                offending.extend(find_unexportable_ops(value))
    return offending


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _encode_attr(value, arrays):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        key = f"arr_{len(arrays)}"
        arrays[key] = value
        return {"__kind__": "array", "key": key}
    if isinstance(value, dtypes.DType):
        return {"__kind__": "dtype", "name": value.name}
    if isinstance(value, TensorShape):
        dims = value.dims
        return {"__kind__": "shape",
                "dims": None if dims is None else list(dims)}
    if isinstance(value, FuncGraph):
        return {"__kind__": "func_graph",
                "graph": _encode_func_graph(value, arrays)}
    if isinstance(value, (list, tuple)):
        return {"__kind__": "tuple" if isinstance(value, tuple) else "list",
                "items": [_encode_attr(v, arrays) for v in value]}
    raise GraphSerializationError(
        f"Attribute value {value!r} of type {type(value).__name__} is not "
        "serializable"
    )


def _tensor_ref(tensor):
    return f"{tensor.op.name}:{tensor.value_index}"


def _encode_nodes(graph, arrays, freeze_placeholders=None):
    freeze_placeholders = freeze_placeholders or {}
    nodes = []
    for op in graph.ops:
        if op.type == "Placeholder" and id(op.outputs[0]) in freeze_placeholders:
            # Freeze a capture placeholder: the artifact bakes the
            # capture's current value as a constant.
            value = np.asarray(freeze_placeholders[id(op.outputs[0])])
            nodes.append({
                "name": op.name,
                "type": "Const",
                "inputs": [],
                "control_inputs": [],
                "attrs": {"value": _encode_attr(value, arrays)},
            })
            continue
        if op.type == "ReadVariable":
            # Freeze: bake the variable's live value as a constant.
            try:
                value = np.asarray(op.attrs["state"].read())
            except Exception as e:
                raise GraphSerializationError(
                    f"Cannot freeze variable read {op.name!r}: {e}"
                ) from e
            nodes.append({
                "name": op.name,
                "type": "Const",
                "inputs": [],
                "control_inputs": [],
                "attrs": {"value": _encode_attr(value, arrays)},
            })
            continue
        if op.op_def.stateful and op.type not in _CONTROL_FLOW:
            raise GraphSerializationError(
                f"Op {op.name!r} (type {op.type!r}) is stateful; exported "
                "signatures must be pure functions of their inputs — "
                "assigns, random draws and staged prints cannot be "
                "serialized. Freeze state into variables read by a "
                "separate inference function and export that."
            )
        try:
            attrs = {
                k: _encode_attr(v, arrays) for k, v in op.attrs.items()
            }
        except GraphSerializationError as e:
            raise GraphSerializationError(
                f"Op {op.name!r} (type {op.type!r}): {e}"
            ) from e
        nodes.append({
            "name": op.name,
            "type": op.type,
            "inputs": [_tensor_ref(t) for t in op.inputs],
            "control_inputs": [c.name for c in op.control_inputs],
            "attrs": attrs,
        })
    return nodes


def _encode_func_graph(fg, arrays):
    return {
        "name": fg.name,
        "nodes": _encode_nodes(fg, arrays),
        "inputs": [_tensor_ref(t) for t in fg.inputs],
        "capture_placeholders": [
            _tensor_ref(t) for t in fg.capture_placeholders
        ],
        "flat_outputs": [_tensor_ref(t) for t in fg.flat_outputs],
    }


def graph_to_def(graph, inputs, outputs, arrays=None,
                 freeze_placeholders=None):
    """Encode ``graph`` as JSON-able data plus an ndarray pool.

    Args:
      graph: the :class:`Graph` to serialize (typically already
        optimized).
      inputs: placeholder tensors forming the signature, in feed order.
      outputs: tensors forming the results, in fetch order.
      arrays: optional existing ndarray pool to append to.
      freeze_placeholders: optional ``{placeholder tensor: value}`` —
        those Placeholder nodes encode as ``Const`` nodes holding the
        value (how frozen export bakes capture placeholders).

    Returns:
      ``(graph_def, arrays)`` — a JSON-able dict and the array pool it
      references.

    Raises:
      GraphSerializationError: the graph has non-read side effects or
        unserializable attrs.
    """
    arrays = {} if arrays is None else arrays
    frozen = (
        {id(t): v for t, v in freeze_placeholders.items()}
        if freeze_placeholders else None
    )
    graph_def = {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "nodes": _encode_nodes(graph, arrays, frozen),
        "inputs": [_tensor_ref(t) for t in inputs],
        "outputs": [_tensor_ref(t) for t in outputs],
    }
    return graph_def, arrays


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _decode_attr(value, arrays):
    if not isinstance(value, dict):
        return value
    kind = value.get("__kind__")
    if kind == "array":
        return np.asarray(arrays[value["key"]])
    if kind == "dtype":
        return dtypes.as_dtype(value["name"])
    if kind == "shape":
        dims = value["dims"]
        return TensorShape(None if dims is None else tuple(dims))
    if kind == "func_graph":
        return _decode_func_graph(value["graph"], arrays)
    if kind == "list":
        return [_decode_attr(v, arrays) for v in value["items"]]
    if kind == "tuple":
        return tuple(_decode_attr(v, arrays) for v in value["items"])
    raise GraphSerializationError(f"Unknown encoded attribute {value!r}")


def _build_ops(nodes, arrays, graph):
    env = {}     # "op:idx" -> Tensor
    by_name = {}  # op name -> Operation
    for node in nodes:
        try:
            get_op_def(node["type"])
        except KeyError:
            raise GraphSerializationError(
                f"Op type {node['type']!r} is not registered in this "
                "process; the artifact was exported with ops this build "
                "does not provide"
            ) from None
        attrs = {k: _decode_attr(v, arrays) for k, v in node["attrs"].items()}
        op = graph.create_op(
            node["type"],
            [env[ref] for ref in node["inputs"]],
            attrs,
            name=node["name"],
            control_inputs=[by_name[n] for n in node["control_inputs"]],
        )
        if op.name != node["name"]:
            raise GraphSerializationError(
                f"Node name collision rebuilding {node['name']!r} "
                f"(got {op.name!r})"
            )
        by_name[op.name] = op
        for t in op.outputs:
            env[_tensor_ref(t)] = t
    return env


def _decode_func_graph(fg_def, arrays):
    fg = FuncGraph(fg_def["name"], outer_graph=None)
    env = _build_ops(fg_def["nodes"], arrays, fg)
    fg.inputs = [env[r] for r in fg_def["inputs"]]
    fg.capture_placeholders = [
        env[r] for r in fg_def["capture_placeholders"]
    ]
    fg.flat_outputs = [env[r] for r in fg_def["flat_outputs"]]
    return fg


def graph_from_def(graph_def, arrays):
    """Rebuild a graph from :func:`graph_to_def` output.

    Returns:
      ``(graph, inputs, outputs)`` — the rebuilt graph and its signature
      tensors, ready for a :class:`~repro.framework.graph.session.Session`.
    """
    version = graph_def.get("format_version")
    if version != FORMAT_VERSION:
        raise GraphSerializationError(
            f"Unsupported graph_def format_version {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    graph = Graph(name=graph_def.get("name", "loaded"))
    env = _build_ops(graph_def["nodes"], arrays, graph)
    inputs = [env[r] for r in graph_def["inputs"]]
    outputs = [env[r] for r in graph_def["outputs"]]
    return graph, inputs, outputs
