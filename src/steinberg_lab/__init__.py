"""Exact-arithmetic toolkit for Steinberg groups over commutative rings:
structure constants, unstable K2 membership via representations, Milnor
symbols with tame-symbol oracles, the standard simplicial ring, and
patching across localization squares."""

from . import milnor, patching, reps, rings, roots, simplicial, words
from .rings import (GF, QQ, ZZ, Ring, RingElement, RingHom, localize,
                    milnor_square_ring, poly_ring, product_ring, quotient)
from .roots import RootSystem, build_root_system
from .words import SteinbergWord, gen, steinberg_symbol, torus_element, weyl_element
from .reps import build_representation, evaluate, k2_membership, verify_relations
from .patching import PatchDatum, zariski_datum

__all__ = [
    "milnor", "patching", "reps", "rings", "roots", "simplicial", "words",
    "GF", "QQ", "ZZ", "Ring", "RingElement", "RingHom",
    "localize", "milnor_square_ring", "poly_ring", "product_ring", "quotient",
    "RootSystem", "build_root_system",
    "SteinbergWord", "gen", "steinberg_symbol", "torus_element", "weyl_element",
    "build_representation", "evaluate", "k2_membership", "verify_relations",
    "PatchDatum", "zariski_datum",
]

__version__ = "0.1.0"
