"""pyct: the source-code-transformation toolkit (paper Appendix C).

Parsing, pretty-printing, templated rewriting, origin locations,
qualified names, CFG construction and the static analyses of Section 7.1.
Converted trees are compiled directly (``impl/conversion.py``); there is
no loader of generated files.
"""

from . import (
    anno,
    ast_util,
    cfg,
    origin_info,
    parser,
    pretty_printer,
    qual_names,
    templates,
    transformer,
)
from . import static_analysis

__all__ = [
    "anno",
    "ast_util",
    "cfg",
    "origin_info",
    "parser",
    "pretty_printer",
    "qual_names",
    "templates",
    "transformer",
    "static_analysis",
]
