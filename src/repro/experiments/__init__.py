"""The paper's experiments, one module per figure/table.

Every experiment module exposes a ``run(config)`` function returning a
result dataclass with the figure's curves (or table) plus the headline
numbers the paper quotes, and a ``format()``/``__str__`` rendering for
the CLI.  ``repro.experiments.registry`` maps experiment ids ("fig5",
"table1", ...) to their runners.

All experiments share :class:`~repro.experiments.config.ExperimentConfig`
(suite composition, trace length, seed, table geometries) and the stream
helpers in :mod:`repro.experiments.runner`.
"""

from repro._exports import lazy_exports

#: Where each public name lives (:mod:`repro._exports`).  Importing the
#: package loads no experiment module; the registry imports one when its
#: ``run`` is first used.
_EXPORTS = {
    **dict.fromkeys(("DEFAULT_CONFIG", "ExperimentConfig"), "repro.experiments.config"),
    **dict.fromkeys(
        ("EXPERIMENTS", "ExperimentReport", "get_experiment", "list_experiments",
         "run_all_reports", "run_experiment_report"),
        "repro.experiments.registry",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
