#!/usr/bin/env python
"""Quickstart: the paper's Listing 1, end to end.

Demonstrates:
  1. the usability problem — symbolic tensors cannot drive Python ``if``;
  2. ``@ag.convert()`` — the single-function API;
  3. dynamic dispatch — the same function runs imperatively on Python
     values and stages into the graph IR on tensors;
  4. inspecting the generated code (paper §5: "the generated code can be
     inspected, and even modified by the user");
  5. ``@repro.function`` — the tracing JIT that wraps all of the above:
     trace once per input signature, then re-execute the cached compiled
     graph.
"""

import numpy as np

import repro
import repro.autograph as ag
from repro import framework as fw
from repro.framework import ops


@ag.convert()
def f(x):
    if x > 0:
        x = x * x
    return x


def main():
    # --- Imperative mode: plain Python semantics, unstaged. ---------------
    print("f(3)  =", f(3), " (plain Python int: runs imperatively)")
    print("f(-3) =", f(-3))

    # --- The problem AutoGraph solves. ------------------------------------
    graph = fw.Graph()
    with graph.as_default():
        x = ops.placeholder(fw.float32, [], name="x")
        try:
            if x > 0:  # symbolic tensor as a Python bool: refused
                pass
        except TypeError as e:
            print("\nWithout AutoGraph, `if tensor:` raises:")
            print(" ", str(e).splitlines()[0])

        # --- Staged mode: the same f builds graph ops. ---------------------
        y = f(x)

    sess = fw.Session(graph)
    print("\nStaged into the graph IR (one cond node, data-dependent):")
    print("  f(3.0)  =", sess.run(y, {x: 3.0}))
    print("  f(-3.0) =", sess.run(y, {x: -3.0}))

    # --- The tracing JIT: no Graph/Session wiring at all. -------------------
    jitted = repro.function(f)
    print("\nWith @repro.function (trace once, run from cache):")
    print("  f(3.0)  =", float(jitted(np.float32(3.0)).numpy()))
    print("  f(-3.0) =", float(jitted(np.float32(-3.0)).numpy()))
    print("  traces:", jitted.trace_count,
          " (both calls share one traced graph)")
    assert jitted.trace_count == 1

    # --- The generated code (paper Listing 1, bottom), made on demand. ------
    print("\nGenerated code:")
    print(ag.to_code(f))


if __name__ == "__main__":
    main()
