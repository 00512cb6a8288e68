"""The functions whose AutoGraph-generated source is pinned byte for byte.

``PROGRAMS`` maps a name to a zero-argument callable returning the
source ``ag.to_code`` generates (converting again and unparsing, on
demand) for one function of the benchmark
corpus: every function defined at the top of ``bench/programs/*.py`` and
``bench/models.py``, and the four model closures ``models.py``'s
``make_*`` factories return (the code the workloads actually convert).
The files are read, never changed.

The checked-in ``goldens/<name>.txt`` files are what the parent of the
commit that introduced them generated.  To print what this checkout
generates::

    PYTHONPATH=src python tests/autograph/autograph_golden_programs.py NAME
"""

import importlib.util
import inspect
import pathlib
import sys

import repro.autograph as ag

BENCH = pathlib.Path(__file__).resolve().parents[2] / "bench"

# ``make_*`` factory -> the arguments that make it return its closure
# (conversion reads code, never the captured values).
_FACTORY_ARGS = {
    "make_rnn_unrolled": (None, None, None),
    "make_rnn_staged": (None, None),
    "make_mlp": (None, None),
    "make_projection": (None,),
}


def _load(path):
    spec = importlib.util.spec_from_file_location(
        f"autograph_golden_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _functions(path):
    """``{name: function}`` for one corpus file."""
    module = _load(path)
    out = {}
    for name, fn in vars(module).items():
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            out[f"{path.stem}.{name}"] = fn
            if name in _FACTORY_ARGS:
                closure = fn(*_FACTORY_ARGS[name])
                out[f"{path.stem}.{closure.__name__}"] = closure
    return out


def _generated(fn):
    return lambda: ag.to_code(fn)


# name -> the function itself; PROGRAMS: name -> its generated source.
FUNCTIONS = {}
for _path in sorted((BENCH / "programs").glob("*.py")) + [BENCH / "models.py"]:
    FUNCTIONS.update(_functions(_path))
PROGRAMS = {name: _generated(fn) for name, fn in FUNCTIONS.items()}


if __name__ == "__main__":
    sys.stdout.write(PROGRAMS[sys.argv[1]]())
