"""Automated margin line extraction for dental die scans.

Pipeline: canonical-pose registration, decimation, label transfer from
crown bottoms, cell featurization, graph-constrained mesh segmentation with
k-fold ensembling, a banded graph cut on the full-resolution scan, and
periodic smoothing-spline margin extraction on that scan. The modules are
the API: import names from them, as the package itself binds none.
"""
