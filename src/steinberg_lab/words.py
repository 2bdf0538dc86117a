"""Formal words in Steinberg group generators with relation-aware rewriting.

Words are immutable sequences of letters x_root(arg).  Normalization is
eager but limited to sound moves that never change the group element:
zero arguments are dropped, adjacent letters on the same root are merged,
and formal inverses are folded into negated arguments.  Genuine equality
in the Steinberg group is never decided here; all stronger equality
claims go through a matrix representation.
"""

from __future__ import annotations

from .rings import Ring, RingElement, RingHom, _json_int, ring_from_json, ring_to_json
from .roots import RootSystem, build_root_system

__all__ = [
    "SteinbergWord", "gen", "identity_word",
    "weyl_element", "torus_element", "steinberg_symbol",
    "opposite_commutator", "commutator",
    "substitute", "commutator_reduce",
    "word_to_json", "word_from_json",
]


def _normalize(system: RootSystem, ring: Ring, letters):
    """The letters with zero arguments dropped and adjacent letters on one
    root merged; ValueError on a root that is not a root of the system or
    an argument that is not an element of the ring."""
    stack = []
    for root, arg in letters:
        if root not in system.index:
            raise ValueError(f"{root} is not a root of {system}")
        if arg.ring is not ring:
            raise ValueError(f"{arg!r} is not an element of {ring}")
        if arg.is_zero:
            continue
        if stack and stack[-1][0] == root:
            merged = stack[-1][1] + arg
            stack.pop()
            if not merged.is_zero:
                stack.append((root, merged))
        else:
            stack.append((root, arg))
    return tuple(stack)


class SteinbergWord:
    """A normalized word; `symbols` carries constructor provenance for
    products of Steinberg symbols on a single root."""

    __slots__ = ("system", "ring", "letters", "symbols")

    def __init__(self, system: RootSystem, ring: Ring, letters, symbols=None):
        self.system = system
        self.ring = ring
        self.letters = _normalize(system, ring, tuple(letters))
        self.symbols = symbols

    # -- constructors ------------------------------------------------------
    def _make(self, letters, symbols=None):
        return SteinbergWord(self.system, self.ring, letters, symbols)

    def __len__(self):
        return len(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def __mul__(self, other: "SteinbergWord") -> "SteinbergWord":
        if other.system is not self.system:
            raise ValueError("words over different root systems")
        if other.ring is not self.ring:
            raise ValueError("words over different rings")
        symbols = None
        if self.symbols is not None and other.symbols is not None:
            symbols = self.symbols + other.symbols
        return self._make(self.letters + other.letters, symbols)

    def inverse(self) -> "SteinbergWord":
        return self._make(tuple((r, -a) for r, a in reversed(self.letters)))

    def __eq__(self, other):
        return (isinstance(other, SteinbergWord) and self.system is other.system
                and self.ring is other.ring and self.letters == other.letters)

    def __repr__(self):
        if not self.letters:
            return "1"
        return "*".join(f"x[{','.join(map(str, r))}]({a!r})" for r, a in self.letters)


def identity_word(system: RootSystem, ring: Ring) -> SteinbergWord:
    return SteinbergWord(system, ring, (), symbols=())


def gen(system: RootSystem, ring: Ring, root, arg) -> SteinbergWord:
    return SteinbergWord(system, ring, ((tuple(root), ring.el(arg)),))


def weyl_element(system: RootSystem, ring: Ring, root, u) -> SteinbergWord:
    """w_root(u) = x_root(u) x_(-root)(-u^-1) x_root(u); u must be a unit."""
    u = ring.el(u)
    uinv = u.inverse()
    root = tuple(root)
    return SteinbergWord(system, ring,
                         ((root, u), (system.negate(root), -uinv), (root, u)))


def torus_element(system: RootSystem, ring: Ring, root, u) -> SteinbergWord:
    """h_root(u) = w_root(u) w_root(-1)."""
    return weyl_element(system, ring, root, u) * weyl_element(system, ring, root, ring.from_int(-1))


def steinberg_symbol(system: RootSystem, ring: Ring, root, u, v) -> SteinbergWord:
    """{u, v} = h(uv) h(u)^-1 h(v)^-1 on the given root."""
    u, v = ring.el(u), ring.el(v)
    root = tuple(root)
    h = lambda x: torus_element(system, ring, root, x)
    word = h(u * v) * h(u).inverse() * h(v).inverse()
    return SteinbergWord(system, ring, word.letters, symbols=((root, u, v),))


def opposite_commutator(system: RootSystem, ring: Ring, root, a, b) -> SteinbergWord:
    """[x_root(a), x_(-root)(b)]."""
    return commutator(gen(system, ring, root, a), gen(system, ring, system.negate(tuple(root)), b))


def commutator(w1: SteinbergWord, w2: SteinbergWord) -> SteinbergWord:
    return w1 * w2 * w1.inverse() * w2.inverse()


def substitute(w: SteinbergWord, hom: RingHom) -> SteinbergWord:
    """Apply a ring homomorphism letterwise (base change of the word)."""
    if hom.domain is not w.ring:
        raise ValueError("homomorphism domain does not match word ring")
    letters = tuple((r, hom(a)) for r, a in w.letters)
    return SteinbergWord(w.system, hom.codomain, letters)


# ---------------------------------------------------------------------------
# commutator collection
# ---------------------------------------------------------------------------

def commutator_reduce(w: SteinbergWord) -> SteinbergWord:
    """Sort letters into enumeration order using only the sound moves
    allowed by the commutation relations; pairs on opposite roots block.
    The result equals the input in the Steinberg group but no claim of a
    normal form is made."""
    system, ring = w.system, w.ring
    order = system.index
    letters = list(w.letters)
    fuel = 16 * (len(letters) + 2) ** 2
    changed = True
    while changed and fuel > 0:
        changed = False
        i = 0
        while i + 1 < len(letters):
            (b_root, b_arg), (a_root, a_arg) = letters[i], letters[i + 1]
            if order[a_root] < order[b_root] and a_root != system.negate(b_root):
                s = system.addition_table.get((b_root, a_root))
                if s is None:
                    letters[i], letters[i + 1] = letters[i + 1], letters[i]
                else:
                    n = system.structure_constant(b_root, a_root)
                    prod = b_arg * a_arg
                    extra = (s, prod if n == 1 else -prod)
                    letters[i:i + 2] = [extra, letters[i + 1], letters[i]]
                changed = True
                fuel -= 1
                if fuel <= 0:
                    break
            i += 1
        letters = list(_normalize(system, ring, letters))
    return SteinbergWord(system, ring, letters)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def word_to_json(w: SteinbergWord):
    return {
        "system": {"type": w.system.kind, "rank": w.system.rank},
        "ring": ring_to_json(w.ring),
        "letters": [{"root": list(r), "arg": w.ring._payload_to_json(a.payload),
                     "sign": 1}
                    for r, a in w.letters],
    }


def _word_from_letters_json(system: RootSystem, ring: Ring, entries) -> SteinbergWord:
    """The word of the JSON letters {"root", "arg", "sign"} (sign -1
    negates arg; a missing sign is 1); ValueError on a root that is not
    a root of the system or not integers, or a sign that is not 1 or -1."""
    letters = []
    for entry in entries:
        sign = entry.get("sign", 1)
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"letter sign must be 1 or -1, got {sign!r}")
        arg = RingElement(ring, ring._payload_from_json(entry["arg"]))
        letters.append((tuple(map(_json_int, entry["root"])), -arg if sign == -1 else arg))
    return SteinbergWord(system, ring, letters)


def word_from_json(data) -> SteinbergWord:
    system = build_root_system(data["system"]["type"], data["system"]["rank"])
    return _word_from_letters_json(system, ring_from_json(data["ring"]), data["letters"])
