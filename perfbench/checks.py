"""Exact checks the benchmark times, one library-level check per call.

Every check takes the workload context and the task's parameters and
returns an :class:`Outcome`: whether the claimed identities hold, how
many exact identities the call asserted, the exact values it compared
(hashed into the digest outside the timed span) and the fields a
witness needs (ring, representation, roots).

The library is reached only through module attributes
(``reps.verify_relations``, ``patching.ConjugationHom``...), so the
traced run, which replaces those attributes, sees every call made here.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction

from steinberg_lab import cli, milnor, patching, reps, rings, simplicial, words


@dataclass
class Outcome:
    holds: bool
    identities: int
    exact: tuple
    witness: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# relation-sweep
# ---------------------------------------------------------------------------

def sweep(ctx, rep, ring, samples, seed):
    """One ``reps.verify_relations`` call; ``rep`` may name a control
    copy with one structure-constant sign flipped."""
    representation = ctx.reps[rep]
    report = reps.verify_relations(representation, ctx.rings[ring], samples,
                                   random.Random(seed))
    return Outcome(report.ok, samples * report.pairs_checked,
                   (report.pairs_checked, tuple(report.violations)),
                   {"ring": ring, "rep": rep, "samples": samples,
                    "roots": [list(map(list, v[1:])) for v in report.violations[:3]],
                    "violations": len(report.violations)})


# ---------------------------------------------------------------------------
# patch-conjugation
# ---------------------------------------------------------------------------

def _conjugator(ctx, system, letters):
    datum = ctx.datum
    g = words.identity_word(system, datum.B_h)
    for idx, num, s in letters:
        g = g * words.gen(system, datum.B_h, system.roots[idx],
                          datum.B_h.fraction(ctx.Z.from_int(num), s))
    return g


def conjugation(ctx, system, letters, root, coeff, extra, wrong):
    """image(c_g(x)) = g image(x) g^-1 in the adjoint representation
    over QQ.  With ``wrong`` the right side uses g * x_(-root)(1), which
    does not commute with x, so the identity must be refuted."""
    sys_, rep = ctx.systems[system], ctx.reps[system]
    datum, h = ctx.datum, ctx.datum.h
    g = _conjugator(ctx, sys_, letters)
    cg = patching.ConjugationHom(sys_, datum.B, h, g)
    k = cg.bound + extra
    beta = sys_.roots[root]
    x = words.gen(sys_, datum.B, beta, ctx.Z.from_int(coeff) * h ** k)
    left = reps.evaluate(cg.apply_word(x, k), rep, hom=ctx.fr_B)
    if wrong:
        g = g * words.gen(sys_, datum.B_h, sys_.negate(beta), datum.B_h.one)
    g_img = reps.evaluate(g, rep, hom=ctx.fr_Bh)
    g_inv_img = reps.evaluate(g.inverse(), rep, hom=ctx.fr_Bh)
    right = g_img * reps.evaluate(x, rep, hom=ctx.fr_B) * g_inv_img
    return Outcome(left == right, 1, (left.rows,),
                   {"ring": "QQ", "rep": f"adjoint({system})", "roots": [list(beta)],
                    "conjugator": letters, "level": k})


def translation_suite(ctx, samples, seed):
    """A small ``verify_translation_relations`` suite (A3 adjoint)."""
    report = patching.verify_translation_relations(
        ctx.datum, ctx.systems["A3"], ctx.reps["A3"], samples, random.Random(seed))
    # asserted mu-image equalities: R1 and R2/R3 per relation trial, two
    # per independence trial, one per equivariance and star trial, two
    # per unit-law trial (an upper bound: beta = -alpha skips R2/R3)
    half, quarter = max(1, samples // 2), max(1, samples // 4)
    identities = 2 * max(1, samples) + 2 * half + half + 2 * quarter + half
    return Outcome(report.ok, identities, tuple(report.failures),
                   {"ring": "ZZ[1/2]", "rep": "adjoint(A3)", "roots": [],
                    "failures": report.failures[:3]})


def glueing(ctx, alpha, beta, c, d, in_kernel):
    """``glueing_demo`` on x = [x_alpha(c), x_beta(d)] over A = ZZ[1/2].
    With commuting roots x dies in every representation and the demo
    must certify a descent; otherwise x is not in the kernel and the
    demo must refuse it."""
    sys_, rep, A = ctx.systems["A3"], ctx.reps["A3"], ctx.datum.A
    a, b = sys_.roots[alpha], sys_.roots[beta]
    cx = A.fraction(ctx.Z.from_int(c[0]), c[1])
    dx = A.fraction(ctx.Z.from_int(d[0]), d[1])
    x = words.commutator(words.gen(sys_, A, a, cx), words.gen(sys_, A, b, dx))
    witness = {"ring": "ZZ[1/2]", "rep": "adjoint(A3)", "roots": [list(a), list(b)]}
    if not in_kernel:
        x = x * words.gen(sys_, A, a, A.one)
    try:
        y = patching.glueing_demo(ctx.datum, sys_, rep, x)
    except patching.GlueingError as exc:
        return Outcome(False, 3, ("refused", str(exc)), witness)
    return Outcome(True, 3, tuple((r, v.payload) for r, v in y.letters), witness)


# ---------------------------------------------------------------------------
# symbols-rings
# ---------------------------------------------------------------------------

def _frac(pair):
    return Fraction(pair[0], pair[1])


def symbol_suite(ctx, a, b, c, u):
    """Bilinearity and skew-symmetry of {a, b} and the Steinberg relation
    {u, 1 - u} = 0, compared through tame symbols at every relevant odd
    prime."""
    a, b, c, u = _frac(a), _frac(b), _frac(c), _frac(u)
    bil_l = milnor.symbol(a, b * c)
    bil_r = milnor.symbol(a, b) + milnor.symbol(a, c)
    skew = milnor.symbol(a, b) + milnor.symbol(b, a)
    primes = sorted(set(milnor.relevant_odd_primes(bil_l))
                    | set(milnor.relevant_odd_primes(bil_r)))
    values, holds = [], True
    for p in primes:
        lv = milnor.tame_symbol(bil_l, p).value
        rv = milnor.tame_symbol(bil_r, p).value
        sv = milnor.tame_symbol(skew, p).value
        values.append((p, lv, rv, sv))
        holds = holds and lv == rv and sv == 1
    st = milnor.symbol(u, 1 - u)
    st_primes = milnor.relevant_odd_primes(st)
    for p in st_primes:
        v = milnor.tame_symbol(st, p).value
        values.append((p, v))
        holds = holds and v == 1
    return Outcome(holds, 2 * len(primes) + len(st_primes), tuple(values),
                   {"ring": "QQ", "rep": None, "roots": [], "primes": primes})


def tame_trivial(ctx, p, g):
    """Claims d_p{p, g} = 1; false for g != 1 mod p, since the tame
    symbol of {p, g} at p is g^-1."""
    value = milnor.tame_symbol(milnor.symbol(p, g), p).value
    return Outcome(value == 1, 1, (p, g, value),
                   {"ring": "QQ", "rep": None, "roots": [], "prime": p})


def k2_word(ctx, p, system, rep, root, pairs, extra):
    """A product of Steinberg symbols over F_p lies in the kernel of the
    representation; with ``extra`` a letter x_root(1) is appended, which
    no faithful representation kills."""
    sys_ = ctx.systems[system]
    field = ctx.prime_fields[p]
    r = sys_.roots[root]
    w = words.identity_word(sys_, field)
    for u, v in pairs:
        w = w * words.steinberg_symbol(sys_, field, r, u, v)
    if extra:
        w = w * words.gen(sys_, field, r, field.one)
    inside = reps.k2_membership(w, ctx.reps[f"{system}-{rep}"])
    return Outcome(inside, 1, (len(w.letters), inside),
                   {"ring": f"F{p}", "rep": f"{rep}({system})", "roots": [list(r)]})


def reduce_sound(ctx, system, ring, letters, perturb):
    """``commutator_reduce`` preserves the adjoint image; with
    ``perturb`` the comparison is against w * x_alpha(1), which differs."""
    sys_, R = ctx.systems[system], ctx.rings[ring]
    w = words.SteinbergWord(sys_, R, [(sys_.roots[i], R.from_int(v)) for i, v in letters])
    reduced = words.commutator_reduce(w)
    target = w
    if perturb:
        target = w * words.gen(sys_, R, sys_.roots[letters[0][0]], R.one)
    rep = ctx.reps[f"{system}-adjoint"]
    img = reps.evaluate(reduced, rep)
    holds = img == reps.evaluate(target, rep)
    return Outcome(holds, 1, (tuple((r, a.payload) for r, a in reduced.letters), img.rows),
                   {"ring": ring, "rep": f"adjoint({system})",
                    "roots": [list(sys_.roots[i]) for i, _ in letters]})


def bezout(ctx, num, s, k, poly_base, coeffs, perturb):
    """Criterion-06 shapes: c = a h^k + b over (ZZ, ZZ[1/2], h = 3), the
    Bezout split of c across ZZ[1/6], and a reciprocal-polynomial
    witness t^n g = f.  With ``perturb`` the reconstruction is off by 1."""
    Z, L2, L6, h = ctx.Z, ctx.L2, ctx.L6, ctx.Z.from_int(3)
    c = L2.fraction(num, s)
    a, b = rings.decompose_modulo_power(c, k, h, Z)
    recon = a * L2.from_base(h) ** k + L2.from_base(b)
    if perturb:
        recon = recon + L2.one
    ok1 = recon == c
    principal, integral = rings.bezout_decompose(c, h, c.payload[1])
    lift = ctx.to_L6
    ok2 = lift(principal) + lift(L2.from_base(integral)) == lift(c)
    P = ctx.polys[poly_base]
    t = P.var("t")
    f = t ** len(coeffs)
    for i, v in enumerate(coeffs):
        f = f + P.from_int(v) * t ** i
    g = rings.reciprocal_localization_witness(f)
    ok3 = g.ring.from_base(t) ** len(coeffs) * g == g.ring.from_base(f)
    return Outcome(ok1 and ok2 and ok3, 3,
                   (a.payload, b.payload, principal.payload, integral.payload, g.payload),
                   {"ring": f"ZZ[1/2], {poly_base}[t]", "rep": None, "roots": []})


def milnor_square(ctx, base, x, terms, perturb):
    """Pullback/projection round trips in R |x tR_a[t] for (ZZ, 2) or
    (F3[s], s); with ``perturb`` the projected base is compared to x + 1."""
    square = ctx.squares[base]
    R = square.base
    xe = _square_base_element(ctx, base, x)
    f = square.poly.zero
    for e, (num, k) in terms:
        f = f + square.poly.var("t") ** e * square.poly.constant(
            square.loc.fraction(_square_base_element(ctx, base, num), k))
    g = square.poly.constant(square.loc.from_base(xe)) + f
    e = rings.milnor_square_pullback(xe, g, square)
    back_x = rings.milnor_square_project_base(e)
    back_g = rings.milnor_square_project_poly(e)
    target = xe + R.one if perturb else xe
    e2 = square.pair(xe, f)
    again = rings.milnor_square_pullback(rings.milnor_square_project_base(e2),
                                         rings.milnor_square_project_poly(e2), square)
    holds = back_x == target and back_g == g and again == e2
    return Outcome(holds, 3, (e.payload, again.payload),
                   {"ring": square.describe(), "rep": None, "roots": []})


def _square_base_element(ctx, base, value):
    if base == "ZZ":
        return ctx.Z.from_int(value)
    P = ctx.squares[base].base
    s = P.var("s")
    out = P.zero
    for i, v in enumerate(value):
        out = out + P.from_int(v) * s ** i
    return out


def simplicial_identities(ctx, base, level):
    """Every simplicial identity on levels <= ``level``."""
    report = simplicial.simplicial_identity_report(ctx.rings[base], level)
    bad = [name for name, good in report if not good]
    return Outcome(not bad, len(report), tuple(good for _, good in report),
                   {"ring": base, "rep": None, "roots": [], "failed": bad[:3]})


def _level1_poly(ctx, spec):
    lvl1 = ctx.lvl1
    out = lvl1.zero
    for v, e in spec:
        out = out + lvl1.from_int(v) * lvl1.var("t1") ** e
    return out


def moore(ctx, root, f, conj, wrong):
    """A Moore generator over ZZ[t1] and its level-2 lift: both lie in
    the Moore kernel and d0 of the lift has the generator's image in A2
    adjoint.  With ``wrong`` the lift is compared to the generator times
    x_root(1)."""
    sys_, rep, lvl1 = ctx.systems["A2"], ctx.reps["A2-adjoint"], ctx.lvl1
    r = sys_.roots[root]
    letters = [(sys_.roots[i], _level1_poly(ctx, p)) for i, p in conj]
    m = simplicial.MooreGenerator(sys_, ctx.Z, 1, r, _level1_poly(ctx, f),
                                  words.SteinbergWord(sys_, lvl1, letters))
    lift = simplicial.moore_lift(m)
    in_kernel = m.in_moore_kernel() and lift.in_moore_kernel()
    want = m.word()
    if wrong:
        want = want * words.gen(sys_, lvl1, r, lvl1.one)
    got_img = reps.evaluate(lift.face(0), rep)
    holds = in_kernel and got_img == reps.evaluate(want, rep)
    return Outcome(holds, 3, (in_kernel, got_img.rows),
                   {"ring": "ZZ[t1]", "rep": "adjoint(A2)", "roots": [list(r)]})


def crt(ctx, spec, perturb):
    """(a, b) round trip through R[t1]/(t1^2 - t1) = R x R over ZZ; with
    ``perturb`` the round trip is compared to x + 1."""
    sq = ctx.interval_square
    x = sq.project(_level1_poly(ctx, spec))
    back = simplicial.crt_from_pair(simplicial.crt_to_pair(x, ctx.pair_ring), sq)
    target = x + sq.one if perturb else x
    return Outcome(back == target, 1, (x.payload, back.payload),
                   {"ring": "ZZ[t1]/(t1^2-t1)", "rep": None, "roots": []})


def cli_selftest(ctx, seed):
    """``steinberg-lab selftest --quick`` in-process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["selftest", "--quick", "--seed", str(seed)])
    out = buf.getvalue()
    return Outcome(code == 0, out.count("\n"), (code, out),
                   {"ring": None, "rep": None, "roots": [], "output": out[-200:]})


CHECKS = {fn.__name__: fn for fn in (
    sweep, conjugation, translation_suite, glueing, symbol_suite, tame_trivial,
    k2_word, reduce_sound, bezout, milnor_square, simplicial_identities, moore,
    crt, cli_selftest)}
