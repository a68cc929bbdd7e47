"""Gaussian CV QKD key rates over composite fixed-loss + fading free-space channels.

`import cvfade` loads nothing else: names are imported from the submodules
(cvfade.keyrate, cvfade.beam, ...).  The command-line entry (cvfade.__main__)
can therefore still choose the BLAS thread count before numpy starts.
"""

__version__ = "0.1.0"
