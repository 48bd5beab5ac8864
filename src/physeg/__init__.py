"""Toolkit for transferring interval-form physical priors into segmentation refinement."""

__version__ = "0.1.0"

from .priors import (  # noqa: F401
    Interval,
    PriorEntry,
    PriorGraph,
    load_graph,
    parse_pckg,
    save_graph,
    serialize_pckg,
)
