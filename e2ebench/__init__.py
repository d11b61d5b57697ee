"""Whole-run search benchmark of the K2 reproduction; see run.py."""
