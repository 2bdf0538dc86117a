"""Walkthrough: the patching engine over B = ZZ, A = ZZ[1/2], h = 3:
conjugation homomorphisms with explicit level bounds, the orbit
translation operators, and descending a kernel word from A to B.

Run:  python demos/demo_patching.py
"""

import random

from steinberg_lab import build_representation, build_root_system, evaluate
from steinberg_lab.patching import (ConjugationHom, PatchPair, glueing_demo,
                                    left_translation, mu_image,
                                    verify_conjugation,
                                    verify_translation_relations,
                                    zariski_datum)
from steinberg_lab.rings import ZZ
from steinberg_lab.words import commutator, gen, identity_word, substitute

Z = ZZ()
A3 = build_root_system("A", 3)
adj = build_representation(A3, "adjoint")

# The Zariski instance of the excision square: 2 and 3 are coprime, so
# every element of ZZ[1/2] splits as a*3^k + b with b an integer.
datum = zariski_datum(Z, 2, 3)
print("datum:", datum)

c = datum.A.fraction(Z.from_int(5), 2)          # 5/4
a, b = datum.decompose(c, 2)
print(f"5/4 = ({a}) * 9 + ({b})")

# A conjugator with denominators acts on high h-level generators
# through the commutator relations; the defining identity
# image(c_g(x)) = g image(x) g^-1 holds exactly.
g = gen(A3, datum.B_h, A3.simple_roots[0], datum.B_h.fraction(Z.from_int(2), 1))
cg = ConjugationHom(A3, datum.B, datum.h, g)
print("level bound n(g) =", cg.bound)
x = gen(A3, datum.B, A3.negate(A3.simple_roots[0]), Z.from_int(4) * datum.h ** cg.bound)
image = cg.apply_word(x, cg.bound)
print("conjugated opposite-root generator expands to", len(image), "letters")
# verify_conjugation compares in G(B_h) and lists the failing arguments
print("defining identity holds:",
      verify_conjugation(datum, adj, g, [(A3.negate(A3.simple_roots[0]), 4)]) == [])

# Orbit translation: each operator prepends the B-part to the first
# component and pushes the deep part through the conjugation map.
pair = PatchPair(identity_word(A3, datum.B_h), identity_word(A3, datum.A))
moved = left_translation(datum, A3.simple_roots[0], c, 0, pair, k=2)
print("translated pair: u =", moved.u, "| v =", moved.v)
print("orbit invariant is x(5/4):",
      mu_image(datum, adj, moved) == mu_image(
          datum, adj, PatchPair(identity_word(A3, datum.B_h),
                                gen(A3, datum.A, A3.simple_roots[0], c))))

report = verify_translation_relations(datum, A3, adj, 20, random.Random(0))
print("translation suite (equivariance chains, unit law, star):",
      report.samples, "samples,", len(report.failures), "failures")

# Descend: a word over A with trivial localized image comes from B.
x = commutator(gen(A3, datum.A, A3.simple_roots[0], c),
               gen(A3, datum.A, A3.simple_roots[2], datum.A.fraction(Z.from_int(7), 1)))
y = glueing_demo(datum, A3, adj, x)
print("descended word over ZZ:", y)
print("its localization dies:",
      evaluate(substitute(y, datum.lam_B), adj).is_identity)
print("it reproduces the target over A:",
      evaluate(substitute(y, datum.iota), adj) == evaluate(x, adj))
