"""Experiment harnesses for the paper's tables and figures.

Figures 1-5, Table 4 and §5.5 are each a table of workload rows,
per-row columns and summaries over subsets of the rows, so
:mod:`repro.experiments.counter_figures` builds all seven from one
spec each (``FIG1``-``FIG5``, ``TABLE4``, ``STACKS``).  Every other
table or figure has its own module.  Each module or spec exposes
``run(context) -> result`` where ``context`` is an
:class:`repro.experiments.runner.ExperimentContext` (which caches
workload characterizations so the figures share one measurement sweep),
and each result renders the same rows/series the paper reports next to
the paper's own numbers.
"""

from repro.experiments.runner import ExperimentContext

__all__ = ["ExperimentContext"]
