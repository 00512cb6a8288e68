"""The ``trace_programs`` corpus: small real-file programs, one per file.

Each file defines ``make_inputs(rng)`` (the call's NumPy arguments) and
``program(*args)`` (imperative code against the public ops).  The
reference result is the same ``program`` run define-by-run on eager
tensors, unless the file brings a hand-written NumPy ``reference(*args)``
(needed where the program calls graph-only API such as ``fw.gradients``).

Why these: together they cover what AutoGraph and the tracer handle
differently - straight-line elementwise chains of three lengths (fusion
code generation scales with chain length), data-dependent ``if`` (one and
nested), ``while`` with ``break`` and with ``continue``, ``for`` over a
range with a list that becomes a TensorArray, ``for`` over a tensor,
converted helper calls, Python-unrolled loops over layers and over time,
logical operators with early return, and Table 2's in-graph SGD loop with
``fw.gradients`` inside a staged ``while``.
"""
