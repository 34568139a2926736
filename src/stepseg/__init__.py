"""Time-stepping residual networks trained by multiplier backpropagation,
with explicit quadratic smoothing of the network output for segmentation
from sparse point labels."""

__version__ = "0.1.0"
