"""Rate-distortion with covariance constraints for remote Gaussian sources.

The package computes the minimal coding rate for reproducing a remote
Gaussian vector from noisy observations and side information when the
reconstruction-error covariance must be dominated by a target matrix,
synthesizes the optimal forward test channel and MMSE decoder, specializes
the curve to per-coordinate MSE and two-hop relay settings, and allocates
distortions across a sensor network to maximize fused output SNR.

Import names from the submodules (``covrate.spd``, ``covrate.model``,
``covrate.rdf``, ``covrate.special``, ``covrate.fusion``, ``covrate.simkit``,
``covrate.jsonio``, ``covrate.errors``); the package root exports only
``__version__``.
"""

__version__ = "0.1.0"
