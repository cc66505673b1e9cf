"""Numpy sequence model: autograd, architecture, VQ features, training,
sampling, and checkpoints."""
