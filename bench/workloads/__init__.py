"""The workloads, by name (the names ``BENCHMARK.json`` lists)."""

from .graph_fn import CallTiny, RnnStaged, RnnUnrolled
from .serving import ServeLarge, ServeSmall
from .trace_programs import TracePrograms
from .treelstm import TreeLstmLantern

WORKLOADS = {
    cls.name: cls
    for cls in (CallTiny, RnnUnrolled, RnnStaged, TreeLstmLantern,
                TracePrograms, ServeSmall, ServeLarge)
}
