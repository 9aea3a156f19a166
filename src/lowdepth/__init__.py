"""Classical simulation of low-depth amplitude and phase estimation.

Depth-limited hardware caps the precision one estimation run can reach;
averaging many independent runs of a *weakly biased* estimator buys the
missing precision with extra queries instead of extra depth.  This package
simulates that trade end to end: synthetic black boxes that realise bias /
variance / failure contracts exactly, the aggregation protocols, circular
(phase) aggregation of offsets from a shallow reference estimate, an
iterative interval-shrinking estimator built from bounded polynomials, and
a harness that measures success rates and depth/query scaling.
"""

__version__ = "0.1.0"
