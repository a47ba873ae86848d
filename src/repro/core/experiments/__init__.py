"""One module per reproduced table/figure.

Every module declares its cells as :class:`repro.run.Scenario` sweeps
(``scenarios(fast)``) and describes itself with one
:func:`repro.core.registry.experiment` declaration: id, paper anchor,
result heading, columns, notes and (for figures) the default chart.
``ExperimentSpec.run(fast=, runner=)`` turns the sweep into the
table.  ``fast=True`` trims CPU-count sweeps and DES sizes for
test/benchmark loops; the default regenerates the full table/figure.
The shared runner handles caching and parallel cell execution
(``repro all --jobs N``).
"""
