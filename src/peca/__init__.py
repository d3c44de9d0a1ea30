"""peca: statistical association between sparse events and peaks in a time series.

The package counts how often events are followed, within a tolerance
window, by strict exceedances of one or many thresholds, and judges the
counts against analytical and permutation null distributions.  Import the
pieces from their submodules, such as ``peca.series`` or ``peca.multi``.
"""

__version__ = "0.1.0"
