"""Randomized checks of the library's exact identities, each defined once.

Every check is a plain function ``check(rng, n)``: it draws ``n``
samples (per case, where the docstring names cases) from ``rng`` and
returns the failing inputs, one small dict per failure naming the ring,
roots and arguments.  An empty list means the identity held on every
sample.  The acceptance suite, the unit sweeps, ``steinberg-lab
selftest`` and ``steinberg-lab milnor-square`` all call these functions
and differ only in seed and size.

The library functions a check exercises are bound here by name, so a
test can plant a fault in one check (``monkeypatch.setattr(checks,
"crt_from_pair", ...)``) without touching the others.
"""

from __future__ import annotations

from fractions import Fraction

from .milnor import (MilnorSymbolSum, relevant_odd_primes, steinberg_to_milnor,
                     symbol, symbol_normalize, tame_symbol)
from .patching import (GlueingError, PatchPair, conj_bound, glueing_demo,
                       mu_image, star_reduce, verify_conjugation,
                       verify_translation_relations, zariski_datum)
from .reps import build_representation, evaluate, k2_membership, verify_relations
from .rings import (GF, QQ, ZZ, CompatibilityError, bezout_decompose,
                    coarser_localization_hom, decompose_modulo_power,
                    localize, milnor_square_project_base,
                    milnor_square_project_poly, milnor_square_pullback,
                    milnor_square_ring, poly_ring, product_ring, quotient,
                    reciprocal_localization_witness,
                    substitution_hom)
from .roots import build_root_system
from .simplicial import (MooreGenerator, crt_from_pair, crt_to_pair, face_hom,
                         interval_square_ring, moore_lift,
                         pi0_connectivity_witness, simplex_ring,
                         simplicial_identity_report)
from .words import (SteinbergWord, commutator, commutator_reduce, gen, identity_word,
                    opposite_commutator, steinberg_symbol, substitute, weyl_element)

__all__ = [
    "sweep_rings", "ring_constructions", "ring_axioms", "milnor_square_roundtrip",
    "bezout_reconstruction", "reciprocal_witnesses", "root_tables",
    "tame_laws", "normalize_tame_images", "kernel_words", "reduce_soundness",
    "congruence_condition", "word_examples", "relations", "conjugation_identity",
    "translation_operators", "patching_examples", "simplicial_identities",
    "moore_roundtrip", "crt_roundtrip", "simplicial_examples",
]

Z = ZZ()


def _rep(kind: str, rank: int, rep_kind: str):
    return build_representation(build_root_system(kind, rank), rep_kind)


def _letters(*words):
    """Witness fields for the letters of the given words, in order."""
    letters = [letter for w in words for letter in w.letters]
    return {"roots": [list(r) for r, _ in letters], "args": [str(a) for _, a in letters]}


def _failed(ring, examples):
    """Witnesses for the (name, holds) pairs of a fixed-example check."""
    return [{"ring": ring.describe(), "identity": name} for name, ok in examples if not ok]


def _level1_poly(ring, rng, deg, size):
    """Up to three random terms c t1^e, e <= deg, over the level-1 ring."""
    out = ring.zero
    for _ in range(rng.randint(0, 3)):
        out = out + ring.constant(ring.base.sample(rng, size)) * ring.var("t1") ** rng.randint(0, deg)
    return out


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

def sweep_rings():
    """Z/6, F7 and ZZ[t]/(t^3): zero divisors, a field, nilpotents."""
    Pt = poly_ring(Z, ("t",))
    return [quotient(Z, 6), GF(7), quotient(Pt, Pt.var("t") ** 3)]


def ring_constructions():
    """One ring of every construction in the tower."""
    Pt = poly_ring(Z, ("t",))
    return [Z, QQ(), GF(5), poly_ring(GF(5), ("x", "y")), localize(Z, 2),
            localize(Z, 6), quotient(Z, 6), quotient(Pt, Pt.var("t") ** 3),
            product_ring(GF(3), Z), milnor_square_ring(Z, 2)]


def ring_axioms(rng, n):
    """Commutative-ring axioms on n random triples per construction."""
    out = []
    for ring in ring_constructions():
        for _ in range(n):
            a, b, c = (ring.sample(rng, 5) for _ in range(3))
            laws = {"associativity": (a + b) + c == a + (b + c),
                    "additive commutativity": a + b == b + a,
                    "commutativity": a * b == b * a,
                    "distributivity": (a + b) * c == a * c + b * c,
                    "negation": a + (-a) == ring.zero,
                    "unit": a * ring.one == a}
            bad = [law for law, ok in laws.items() if not ok]
            if bad:
                out.append({"ring": ring.describe(), "laws": bad,
                            "args": [str(a), str(b), str(c)]})
    return out


def milnor_square_roundtrip(rng, n):
    """n random compatible pairs (x, g) over each of (ZZ, 2) and (F3[s], s):
    projecting the pullback gives back (x, g), and pulling back the
    projections of the pair element (x, g - x) gives it back."""
    F3s = poly_ring(GF(3), ("s",))
    out = []
    for base, mult in ((Z, Z.from_int(2)), (F3s, F3s.var("s"))):
        square = milnor_square_ring(base, mult)
        poly, t = square.poly, square.poly.var("t")
        for _ in range(n):
            x = base.sample(rng, 5)
            f = poly.zero
            for _ in range(rng.randint(0, 3)):
                f = f + t ** rng.randint(1, 3) * poly.constant(square.loc.sample(rng, 5))
            g = poly.constant(square.loc.from_base(x)) + f
            e = milnor_square_pullback(x, g, square)
            e2 = square.pair(x, f)
            try:
                back = milnor_square_pullback(milnor_square_project_base(e2),
                                              milnor_square_project_poly(e2), square)
            except CompatibilityError:  # the projections of e2 must be compatible
                back = None
            if (milnor_square_project_base(e) != x
                    or milnor_square_project_poly(e) != g or back != e2):
                out.append({"ring": square.describe(), "args": [str(x), str(g)]})
    return out


def bezout_reconstruction(rng, n):
    """n random c in A = ZZ[1/2] with h = 3: c = a h^k + b for the parts of
    decompose_modulo_power and of the Zariski datum's decomposition
    shifted by a random d in ZZ, and the bezout_decompose parts sum to c
    in ZZ[1/6]."""
    datum = zariski_datum(Z, 2, 3)
    L2, h = datum.A, datum.h
    to6 = coarser_localization_hom(L2, localize(Z, 6))
    out = []
    for _ in range(n):
        c = L2.fraction(rng.randint(-60, 60), rng.randint(0, 4))
        k = rng.randint(0, 5)
        parts = [decompose_modulo_power(c, k, h, Z),
                 datum.decompose_shifted(c, k, Z.from_int(rng.randint(-3, 3)))]
        principal, integral = bezout_decompose(c, h, c.payload[1])
        if (any(a * L2.from_base(h) ** k + L2.from_base(b) != c for a, b in parts)
                or to6(principal) + to6(L2.from_base(integral)) != to6(c)):
            out.append({"ring": L2.describe(), "args": [str(c), k]})
    return out


def reciprocal_witnesses(rng, n):
    """n random monic f of degree 1..6 over each of ZZ and F7: the
    reciprocal witness g satisfies t^deg(f) g = f."""
    out = []
    for base in (Z, GF(7)):
        P = poly_ring(base, ("t",))
        t = P.var("t")
        for _ in range(n):
            deg = rng.randint(1, 6)
            f = t ** deg
            for i in range(deg):
                f = f + P.constant(base.sample(rng, 6)) * t ** i
            g = reciprocal_localization_witness(f)
            if g.ring.from_base(t) ** deg * g != g.ring.from_base(f):
                out.append({"ring": P.describe(), "args": [str(f)]})
    return out


# ---------------------------------------------------------------------------
# root systems and Milnor symbols
# ---------------------------------------------------------------------------

def root_tables(rng, n):
    """n random root pairs (a, b) of A2, A3, D4: the addition table agrees
    with the coordinates, N(a, b) = +-1 = -N(b, a) when a + b is a root,
    and the commutator decomposition of a sums to a (rank >= 3)."""
    systems = [build_root_system(kind, rank) for kind, rank in (("A", 2), ("A", 3), ("D", 4))]
    out = []
    for _ in range(n):
        system = systems[rng.randrange(len(systems))]
        a, b = (system.roots[rng.randrange(len(system.roots))] for _ in range(2))
        total = tuple(x + y for x, y in zip(a, b))
        ok = system.addition_table.get((a, b)) == (total if system.is_root(total) else None)
        if ok and system.is_root(total):
            nab = system.structure_constant(a, b)
            ok = nab in (1, -1) and system.structure_constant(b, a) == -nab
        if ok and system.rank >= 3:
            ok = tuple(map(sum, zip(*system.commutator_decomposition(a)))) == a
        if not ok:
            out.append({"system": repr(system), "roots": [list(a), list(b)]})
    return out


def tame_laws(rng, n):
    """d_3{2, 3} = 2; then n random a, b, c > 0 and u in Q: bilinearity
    {a, bc} = {a, b} + {a, c}, skew-symmetry {a, b} + {b, a} = 0 and the
    Steinberg relation {u, 1 - u} = 0, compared through tame symbols at
    every relevant odd prime."""
    out = []
    if tame_symbol(symbol(2, 3), 3).value != 2:
        out.append({"ring": "QQ", "laws": ["d_3"], "args": ["2", "3"]})
    for _ in range(n):
        a, b, c = (Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(3))
        u = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        bil_l = symbol(a, b * c)
        bil_r = symbol(a, b) + symbol(a, c)
        skew = symbol(a, b) + symbol(b, a)
        bad = []
        for p in sorted(set(relevant_odd_primes(bil_l)) | set(relevant_odd_primes(bil_r))):
            if tame_symbol(bil_l, p) != tame_symbol(bil_r, p):
                bad.append(f"bilinearity at {p}")
            if tame_symbol(skew, p).value != 1:
                bad.append(f"skew-symmetry at {p}")
        if u not in (0, 1):
            st = symbol(u, 1 - u)
            bad += [f"Steinberg at {p}" for p in relevant_odd_primes(st)
                    if tame_symbol(st, p).value != 1]
        if bad:
            out.append({"ring": "QQ", "laws": bad, "args": [str(a), str(b), str(c), str(u)]})
    return out


def normalize_tame_images(rng, n):
    """n random sums of 1..4 symbols: symbol_normalize preserves the tame
    image at every relevant odd prime."""
    out = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            a = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
            if a != 1 and b != 1:
                terms[(a, b)] = terms.get((a, b), 0) + rng.choice([-2, -1, 1, 2])
        s = MilnorSymbolSum(QQ(), terms)
        normal = symbol_normalize(s)
        primes = set(relevant_odd_primes(s)) | set(relevant_odd_primes(normal))
        bad = sorted(p for p in primes if tame_symbol(s, p) != tame_symbol(normal, p))
        if bad:
            out.append({"ring": "QQ", "args": [repr(s)], "primes": bad})
    return out


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def kernel_words(rng, n):
    """n products of 1..3 Steinberg symbols on one random root, over F5,
    F7, F11 in turn, in A2/A3 defining, D4 vector or A2 adjoint: each is
    a kernel element and converts back to its Milnor symbols."""
    cases = [_rep("A", 2, "defining"), _rep("A", 3, "defining"), _rep("D", 4, "vector"),
             _rep("A", 2, "adjoint")]
    out = []
    for i in range(n):
        p = (5, 7, 11)[i % 3]
        field = GF(p)
        rep = cases[rng.randrange(len(cases))]
        system = rep.system
        root = system.roots[rng.randrange(len(system.roots))]
        w, terms = identity_word(system, field), {}
        for _ in range(rng.randint(1, 3)):
            u, v = rng.randint(1, p - 1), rng.randint(1, p - 1)
            w = w * steinberg_symbol(system, field, root, u, v)
            terms[(u, v)] = terms.get((u, v), 0) + 1
        if (not k2_membership(w, rep)
                or steinberg_to_milnor(w) != MilnorSymbolSum(field, terms)):
            out.append({"ring": field.describe(), "rep": rep.describe(),
                        "roots": [list(root)], "args": [list(k) for k in terms]})
    return out


def reduce_soundness(rng, n):
    """n random words of 0..5 letters over the sweep rings in A2 and D4 in
    turn: commutator_reduce preserves the adjoint image."""
    cases = [(kind, rank, ring) for kind, rank in (("A", 2), ("D", 4)) for ring in sweep_rings()]
    out = []
    for i in range(n):
        kind, rank, ring = cases[i % len(cases)]
        rep = _rep(kind, rank, "adjoint")   # D4 is built only when n reaches it
        roots = rep.system.roots
        w = SteinbergWord(rep.system, ring, [(roots[rng.randrange(len(roots))], ring.sample(rng, 3))
                                             for _ in range(rng.randint(0, 5))])
        if evaluate(commutator_reduce(w), rep) != evaluate(w, rep):
            out.append({"ring": ring.describe(), "rep": rep.describe(),
                        **_letters(w)})
    return out


def congruence_condition(rng, n):
    """n random a in (a0), b in (b0), c in each of A2 and A3: the images of
    [x(a), x^-(cb)] and [x(ac), x^-(b)] over Z/(a0 b0) agree in the
    adjoint and in the defining representation, a necessary condition
    for their congruence modulo the relative subgroup of (a0 b0)."""
    out = []
    for kind, rank in (("A", 2), ("A", 3)):
        system = build_root_system(kind, rank)
        root = system.simple_roots[0]
        representations = [build_representation(system, k) for k in ("adjoint", "defining")]
        for _ in range(n):
            a0, b0 = rng.randint(2, 7), rng.randint(2, 7)
            a, b, c = a0 * rng.randint(1, 5), b0 * rng.randint(1, 5), rng.randint(-10, 10)
            q = quotient(Z, a0 * b0)
            w1 = opposite_commutator(system, q, root, a, c * b)
            w2 = opposite_commutator(system, q, root, a * c, b)
            if any(evaluate(w1, rep) != evaluate(w2, rep) for rep in representations):
                out.append({"ring": f"ZZ/({a0 * b0})", "roots": [list(root)],
                            "args": [a, b, c]})
    return out


def word_examples(rng, n):
    """Fixed words on the first simple root a of A2 (rng and n are not
    used): letters merge and vanish, over F5 w_a(2)^4 lies in the kernel
    of the defining representation and w_a(2)^2 (image diag(-1, -1, 1))
    does not, x_a(3t) becomes empty under t -> 0, and [x_a(2), x_-a(3)]
    is four letters."""
    A2 = build_root_system("A", 2)
    a = A2.simple_roots[0]
    w = weyl_element(A2, GF(5), a, 2)
    w2 = w * w
    defin = _rep("A", 2, "defining")
    Pt = poly_ring(Z, ("t",))
    at_zero = substitution_hom(Pt, Z, {"t": Z.zero})
    return _failed(Z, [
        ("x_a(0) is empty", gen(A2, Z, a, 0).is_empty),
        ("x_a(2) x_a(3) = x_a(5)", gen(A2, Z, a, 2) * gen(A2, Z, a, 3) == gen(A2, Z, a, 5)),
        ("w_a(2)^4 in the kernel over F5", k2_membership(w2 * w2, defin)),
        ("w_a(2)^2 not in the kernel over F5", not k2_membership(w2, defin)),
        ("x_a(3t) at t = 0 is empty",
         substitute(gen(A2, Pt, a, Pt.var("t") * Pt.from_int(3)), at_zero).is_empty),
        ("[x_a(2), x_-a(3)] has 4 letters", len(opposite_commutator(A2, Z, a, 2, 3)) == 4),
    ])


# ---------------------------------------------------------------------------
# representations and patching
# ---------------------------------------------------------------------------

def relations(rng, n, cases):
    """reps.verify_relations with n samples per root pair for each
    ((kind, rank, rep kind), ring) case; one witness per violation, with
    the arguments a, b of its first failing trial."""
    out = []
    for spec, ring in cases:
        report = verify_relations(_rep(*spec), ring, n, rng)
        out += [{"ring": report.ring, "rep": report.representation,
                 "relation": v[0], "roots": [list(r) for r in v[1:]],
                 "a": str(a), "b": str(b)}
                for v, (a, b) in zip(report.violations, report.arguments)]
    return out


def conjugation_identity(rng, n):
    """n random conjugators g of length <= 2 over ZZ[1/3] (A3 adjoint),
    each at a random level k >= its bound with 20 random arguments x:
    patching.verify_conjugation, image(c_g(x)) = g image(x) g^-1 exactly
    in G(ZZ[1/3])."""
    rep = _rep("A", 3, "adjoint")
    A3 = rep.system
    datum = zariski_datum(Z, 2, 3)
    out = []
    for _ in range(n):
        g = identity_word(A3, datum.B_h)
        for _ in range(rng.randint(1, 2)):
            root = A3.roots[rng.randrange(len(A3.roots))]
            num = Z.from_int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
            g = g * gen(A3, datum.B_h, root, datum.B_h.fraction(num, rng.randint(0, 2)))
        k = conj_bound(g) + rng.randint(0, 1)
        args = [(A3.roots[rng.randrange(len(A3.roots))], rng.randint(-4, 4))
                for _ in range(20)]
        for root, coeff in verify_conjugation(datum, rep, g, args, k):
            x = gen(A3, datum.B, root, Z.from_int(coeff) * datum.h ** k)
            out.append({"ring": datum.B_h.describe(), "level": k, **_letters(g, x)})
    return out


def translation_operators(rng, n):
    """patching.verify_translation_relations at n samples (ceil(n / 2)
    equivariance chains) on the Zariski datum (ZZ, a=2, h=3) in A3 adjoint."""
    rep = _rep("A", 3, "adjoint")
    datum = zariski_datum(Z, 2, 3)
    report = verify_translation_relations(datum, rep.system, rep, n, rng)
    return [{"ring": repr(datum), "rep": rep.describe(), **record}
            for record in report.failures]


def patching_examples(rng, n):
    """Fixed patch pairs on the Zariski datum (ZZ, a=2, h=3) in A3 adjoint
    (rng and n are not used): x_a2(2) acting on (1, x_a1(5/2)) keeps the
    mu image, and [x_a1(5/2), x_a3(7/4)] glues to a word over ZZ."""
    rep = _rep("A", 3, "adjoint")
    A3 = rep.system
    a1, a2, a3 = A3.simple_roots
    datum = zariski_datum(Z, 2, 3)
    A = datum.A
    pair = PatchPair(identity_word(A3, datum.B_h), gen(A3, A, a1, A.fraction(Z.from_int(5), 1)))
    moved = star_reduce(datum, pair, gen(A3, datum.B, a2, Z.from_int(2)))
    x = commutator(gen(A3, A, a1, A.fraction(Z.from_int(5), 1)),
                   gen(A3, A, a3, A.fraction(Z.from_int(7), 2)))
    try:
        glueing_demo(datum, A3, rep, x)
        glued = True
    except GlueingError:
        glued = False
    return _failed(datum.B_h, [
        ("star action keeps the mu image",
         mu_image(datum, rep, moved) == mu_image(datum, rep, pair)),
        ("[x_a1(5/2), x_a3(7/4)] glues", glued),
    ])


# ---------------------------------------------------------------------------
# simplicial rings
# ---------------------------------------------------------------------------

def simplicial_identities(rng, n):
    """Every simplicial identity on levels <= n over ZZ and F7 (exhaustive;
    rng is not used)."""
    return [{"ring": base.describe(), "identity": name}
            for base in (Z, GF(7))
            for name, ok in simplicial_identity_report(base, n) if not ok]


def moore_roundtrip(rng, n):
    """n random level-1 Moore generators in A2 over ZZ and F7 in turn: the
    generator and its lift lie in the Moore kernel, and d0 of the lift
    gives the generator back (word for word when the conjugator is empty,
    otherwise in the adjoint representation)."""
    adj = _rep("A", 2, "adjoint")
    A2 = adj.system
    out = []
    for i in range(n):
        base = Z if i % 2 else GF(7)
        lvl1 = simplex_ring(base, 1)
        f = _level1_poly(lvl1, rng, 3, 3)
        g = SteinbergWord(A2, lvl1, [(A2.roots[rng.randrange(6)], _level1_poly(lvl1, rng, 2, 2))
                                     for _ in range(rng.randint(0, 3))])
        m = MooreGenerator(A2, base, 1, A2.simple_roots[0], f, g)
        lift = moore_lift(m)
        got, want = lift.face(0), m.word()
        same = got == want if g.is_empty else evaluate(got, adj) == evaluate(want, adj)
        if not (m.in_moore_kernel() and lift.in_moore_kernel() and same):
            out.append({"ring": lvl1.describe(), "f": str(f), **_letters(g)})
    return out


def crt_roundtrip(rng, n):
    """n random x in ZZ[t1]/(t1^2 - t1) and n random pairs in ZZ x ZZ: the
    two CRT maps are mutually inverse."""
    square, pairs = interval_square_ring(Z), product_ring(Z, Z)
    lvl1 = simplex_ring(Z, 1)
    out = []
    for _ in range(n):
        x = square.project(_level1_poly(lvl1, rng, 4, 9))
        pair = pairs.pair(Z.sample(rng, 9), Z.sample(rng, 9))
        if (crt_from_pair(crt_to_pair(x, pairs), square) != x
                or crt_to_pair(crt_from_pair(pair, square), pairs) != pair):
            out.append({"ring": square.describe(), "args": [str(x), str(pair)]})
    return out


def simplicial_examples(rng, n):
    """Fixed level-1 words in A2 over ZZ (rng and n are not used): the
    pi0 witness x_a(5 t1) has d1 empty and d0 = x_a(5), and the Moore
    generator (f = 1, g = 1) lifts into the Moore kernel with d0 of the
    lift equal to it."""
    A2 = build_root_system("A", 2)
    a = A2.simple_roots[0]
    w = pi0_connectivity_witness(A2, Z, a, 5)
    lvl1 = simplex_ring(Z, 1)
    m = MooreGenerator(A2, Z, 1, a, lvl1.one, identity_word(A2, lvl1))
    lift = moore_lift(m)
    return _failed(lvl1, [
        ("d1 of the pi0 witness is empty", substitute(w, face_hom(Z, 1, 1)).is_empty),
        ("d0 of the pi0 witness is x_a(5)", substitute(w, face_hom(Z, 1, 0)) == gen(A2, Z, a, 5)),
        ("the Moore lift of (1, 1) lies in the Moore kernel", lift.in_moore_kernel()),
        ("d0 of the Moore lift of (1, 1) is the generator", lift.face(0) == m.word()),
    ])
