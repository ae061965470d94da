"""Experiment harnesses for the paper's tables and figures.

Figures 1, 3, 4 and 5 make one comparison of counter metrics, so
:mod:`repro.experiments.counter_figures` builds all four from one spec
each (``FIG1``, ``FIG3``, ``FIG4``, ``FIG5``).  Every other table or
figure has its own module.  Each module or spec exposes
``run(context) -> result`` where ``context`` is an
:class:`repro.experiments.runner.ExperimentContext` (which caches
workload characterizations so the figures share one measurement sweep),
and each result renders the same rows/series the paper reports next to
the paper's own numbers.
"""

from repro.experiments.runner import ExperimentContext

__all__ = ["ExperimentContext"]
