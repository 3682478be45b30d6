"""Robust dynamic state estimation for synchronous generators.

Core pieces: a cubature Kalman filter and its Huber-robustified variant, a
fourth-order two-axis generator model, a seeded heavy-tailed noise
laboratory, fault scenario simulation, accuracy indicators, and a CLI
harness that reproduces the noise-by-outlier experiment matrix.

The package re-exports nothing: code imports each name from its submodule
(dsekit.filters, dsekit.machine, dsekit.noise, dsekit.scenario,
dsekit.evaluation, dsekit.harness, dsekit.config, dsekit.cli, dsekit.errors).
"""
