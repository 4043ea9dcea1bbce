"""Normative Gaussian-process age modeling with uncertainty-based anomaly scores.

Train a GP regression from brain features (or any tabular features) to age
on a healthy cohort, then score new subjects by prediction error, posterior
uncertainty, and age-weighted posterior uncertainty.

Each public name is imported from the module that defines it, such as
``normgp.gpr.fit`` or ``normgp.metrics.score_cohort``. This file imports
nothing, so ``python -m normgp`` and the ``normgp`` script
(``normgp.__main__``) start before numpy is loaded, and can set what
numpy's OpenBLAS reads when it loads.
"""

__version__ = "0.1.0"
