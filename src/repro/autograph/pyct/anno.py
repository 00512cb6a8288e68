"""AST annotation utilities.

Static analyses decorate AST nodes with extra information (paper §6 step
3a); the conversion passes read those annotations.  Annotations live in a
dedicated dict attribute so they never collide with ``ast`` fields.  A
node spliced by a template (``ast_util.copy_tree``) gets a new dict whose
values are shared with the original's: annotation values are never
mutated once the analyses that set them are done.
"""

from __future__ import annotations

import enum

__all__ = ["Basic", "Static", "setanno", "getanno", "hasanno", "delanno",
           "copyanno"]

FIELD = "__repro_anno__"


class Basic(enum.Enum):
    """General-purpose annotation keys."""

    QN = "qn"                      # qualified name of a Name/Attribute node
    SKIP_PROCESSING = "skip"       # do not convert this subtree
    ORIGIN = "origin"              # OriginInfo: the user line of a node
    DIRECTIVES = "directives"      # {directive_fn: kwargs} on loop nodes
    EXTRA_LOOP_TEST = "extra_loop_test"  # injected by break/return lowering


class Static(enum.Enum):
    """Static-analysis annotation keys."""

    SCOPE = "scope"                     # activity Scope of a statement
    ARGS_SCOPE = "args_scope"           # function args scope
    COND_SCOPE = "cond_scope"           # if condition scope
    BODY_SCOPE = "body_scope"           # compound statement body scope
    ORELSE_SCOPE = "orelse_scope"       # else branch scope
    ITERATE_SCOPE = "iterate_scope"     # for-loop iterate expression scope
    DEFINED_VARS_IN = "defined_in"      # symbols possibly defined on entry
    LIVE_VARS_OUT = "live_out"          # symbols live after the statement
    LIVE_VARS_IN_HEADER = "live_header" # symbols live entering the loop header


def _annos(node, create=False):
    annos = getattr(node, FIELD, None)
    if annos is None and create:
        annos = {}
        setattr(node, FIELD, annos)
    return annos


def setanno(node, key, value):
    _annos(node, create=True)[key] = value


def hasanno(node, key):
    annos = _annos(node)
    return annos is not None and key in annos


def getanno(node, key, default=None, required=False):
    annos = _annos(node)
    if annos is None or key not in annos:
        if required:
            raise KeyError(f"Node {node!r} has no annotation {key!r}")
        return default
    return annos[key]


def delanno(node, key):
    annos = _annos(node)
    if annos is not None:
        annos.pop(key, None)


def copyanno(from_node, to_node, key):
    if hasanno(from_node, key):
        setanno(to_node, key, getanno(from_node, key))

