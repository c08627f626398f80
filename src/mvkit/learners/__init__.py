"""Version-mapping learners: direct classification and per-version regression.

Two families map dataset features to a version choice. Direct
classification (DC) trains one classifier whose labels are version ids: a
decision tree or an ordered rule list. Performance prediction (PPM)
trains one regressor per representative version on log speedups and picks
the argmax at dispatch time. Both come with error-rate / RRSE metrics and
a deterministic k-fold cross-validation harness.
"""

from .. import _NAMES, _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    sub.removeprefix("learners."): names for sub, names in _NAMES.items() if sub.startswith("learners.")
})
