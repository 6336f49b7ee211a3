"""Two-dimensional cobordisms via the classification of surfaces.

A morphism is a disjoint union of connected surface pieces, each recorded by
orientability, genus (or crosscap count), and the boundary circles it owns on
the incoming and outgoing side.  Orientable pieces with boundary also carry a
sign for every boundary circle, stored modulo a global flip: an
orientation-preserving diffeomorphism fixes all induced boundary signs and an
orientation-reversing one flips all of them, so sign-mod-flip is exactly the
diffeomorphism invariant.  Non-orientable pieces need no signs because a
boundary reflection extends over the surface.

Composition glues along matched circles.  Euler characteristic adds (circles
have chi = 0) and genus is always re-derived from chi, never tracked through
the gluing.  Whether a merged piece is orientable is a 2-coloring problem:
each glued circle forces the relative flip of the two pieces it joins, and an
odd cycle of constraints means no consistent orientation exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmath import AbelianInvariants, UnionFind, json_array, quotient_group, strict_int

EpsEntry = tuple[str, str, int]

# Connected closed classes are (orientable, genus-or-crosscaps) pairs.
ConnectedClass = tuple[bool, int]
S2: ConnectedClass = (True, 0)
T2: ConnectedClass = (True, 1)
RP2: ConnectedClass = (False, 1)
KLEIN: ConnectedClass = (False, 2)


def _normalize_eps_key(key, in_set: set, out_set: set) -> tuple[str, str]:
    if isinstance(key, tuple):
        side, cid = key
    elif ":" in key:
        side, cid = key.split(":", 1)
    else:
        cid = key
        if cid in in_set and cid in out_set:
            raise ValueError(
                f"circle {cid!r} bounds on both sides; qualify as 'in:{cid}' or 'out:{cid}'"
            )
        side = "in" if cid in in_set else "out"
    if side not in ("in", "out"):
        raise ValueError(f"eps side must be 'in' or 'out', got {side!r}")
    return side, cid


@dataclass(frozen=True)
class SurfaceComponent:
    """One connected piece of a 2-cobordism.

    ``genus`` counts handles when orientable and crosscaps (>= 1) when not.
    ``eps`` lists (side, circle, sign) sorted by key, present exactly when
    the piece is orientable with nonempty boundary, and canonicalized so the
    least key carries +1.
    """

    orientable: bool
    genus: int
    in_circles: tuple[str, ...]
    out_circles: tuple[str, ...]
    eps: tuple[EpsEntry, ...] = ()

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if not self.orientable and self.genus < 1:
            raise ValueError("a non-orientable piece needs at least one crosscap")
        for circles in (self.in_circles, self.out_circles):
            if list(circles) != sorted(set(circles)):
                raise ValueError("boundary circle ids must be sorted and distinct")
        want_eps = self.orientable and (self.in_circles or self.out_circles)
        if not want_eps:
            if self.eps:
                raise ValueError("eps is only carried by orientable pieces with boundary")
            return
        keys = [(side, cid) for side, cid, _ in self.eps]
        expect = sorted(
            [("in", c) for c in self.in_circles] + [("out", c) for c in self.out_circles]
        )
        if keys != expect:
            raise ValueError("eps must cover each boundary circle exactly once, sorted")
        for _, _, sign in self.eps:
            if sign not in (-1, 1):
                raise ValueError("eps signs must be +1 or -1")
        if self.eps[0][2] != 1:
            raise ValueError("eps must be canonicalized: least boundary key carries +1")

    @property
    def boundary_count(self) -> int:
        return len(self.in_circles) + len(self.out_circles)

    @property
    def chi(self) -> int:
        return chi_of_class((self.orientable, self.genus)) - self.boundary_count

    def eps_map(self) -> dict[tuple[str, str], int]:
        return {(side, cid): sign for side, cid, sign in self.eps}


def component(
    orientable: bool,
    genus: int,
    in_circles=(),
    out_circles=(),
    eps=None,
) -> SurfaceComponent:
    """Build a piece, defaulting and canonicalizing the boundary signs.

    ``eps`` maps boundary circles to +-1; keys may be bare ids, 'in:c' /
    'out:c' strings, or (side, id) tuples.  Omitted signs default to +1.
    The stored form flips globally so the least key is +1.
    """
    in_t = tuple(sorted(set(in_circles)))
    out_t = tuple(sorted(set(out_circles)))
    if not orientable or not (in_t or out_t):
        if eps:
            raise ValueError("eps is only carried by orientable pieces with boundary")
        return SurfaceComponent(orientable, genus, in_t, out_t, ())
    signs = {("in", c): 1 for c in in_t}
    signs.update({("out", c): 1 for c in out_t})
    if eps:
        in_set, out_set = set(in_t), set(out_t)
        for key, sign in dict(eps).items():
            side, cid = _normalize_eps_key(key, in_set, out_set)
            if (side, cid) not in signs:
                raise ValueError(f"eps key {side}:{cid} is not a boundary circle")
            signs[(side, cid)] = strict_int(sign)
    entries = sorted((side, cid, sign) for (side, cid), sign in signs.items())
    if entries[0][2] == -1:
        entries = [(side, cid, -sign) for side, cid, sign in entries]
    return SurfaceComponent(orientable, genus, in_t, out_t, tuple(entries))


def _component_key(c: SurfaceComponent):
    return (c.in_circles, c.out_circles, not c.orientable, c.genus, c.eps)


@dataclass(frozen=True)
class SurfaceCobordism:
    """A 2-cobordism: ordered boundary circle lists and the pieces owning them."""

    src: tuple[str, ...]
    tgt: tuple[str, ...]
    components: tuple[SurfaceComponent, ...]

    def __post_init__(self):
        if len(set(self.src)) != len(self.src) or len(set(self.tgt)) != len(self.tgt):
            raise ValueError("boundary circle ids must be distinct on each side")
        if list(self.components) != sorted(self.components, key=_component_key):
            raise ValueError("components must be sorted canonically; use surface()")
        owners_in: dict[str, int] = {}
        owners_out: dict[str, int] = {}
        for idx, comp in enumerate(self.components):
            for c in comp.in_circles:
                if c in owners_in:
                    raise ValueError(f"incoming circle {c!r} owned twice")
                owners_in[c] = idx
            for c in comp.out_circles:
                if c in owners_out:
                    raise ValueError(f"outgoing circle {c!r} owned twice")
                owners_out[c] = idx
        if set(owners_in) != set(self.src):
            raise ValueError("components must own exactly the incoming circles")
        if set(owners_out) != set(self.tgt):
            raise ValueError("components must own exactly the outgoing circles")


def surface(src, tgt, components) -> SurfaceCobordism:
    comps = tuple(sorted(components, key=_component_key))
    return SurfaceCobordism(tuple(src), tuple(tgt), comps)


def identity_surface(circles) -> SurfaceCobordism:
    """One annulus per circle; the unit-law convention is (in: +1, out: -1)."""
    comps = [
        component(True, 0, (c,), (c,), {("in", c): 1, ("out", c): -1})
        for c in circles
    ]
    return surface(tuple(circles), tuple(circles), comps)


def disc(out_circle: str = "c") -> SurfaceCobordism:
    return surface((), (out_circle,), [component(True, 0, (), (out_circle,))])


def cap_disc(in_circle: str = "c") -> SurfaceCobordism:
    return surface((in_circle,), (), [component(True, 0, (in_circle,), ())])


def closed_endomorphism(classes) -> SurfaceCobordism:
    comps = [component(orientable, genus) for orientable, genus in classes]
    return surface((), (), comps)


def torus_endo() -> SurfaceCobordism:
    return closed_endomorphism([T2])


def klein_endo() -> SurfaceCobordism:
    return closed_endomorphism([KLEIN])


def compose_surface(w: SurfaceCobordism, w2: SurfaceCobordism) -> SurfaceCobordism:
    """Glue w2 after w along the shared circles.

    chi adds across the gluing.  A merged piece is orientable exactly when
    no constituent is non-orientable and the relative-flip constraints
    (compatible means o_A eps_A(c) = -o_B eps_B(c)) admit a solution; the
    surviving signs are o * eps, re-canonicalized.
    """
    if w.tgt != w2.src:
        raise ValueError(f"interface mismatch: {w.tgt} vs {w2.src}")
    # Pieces of w are 0..k-1 and pieces of w2 are k..
    k = len(w.components)
    pieces = w.components + w2.components
    uf = UnionFind(len(pieces))
    out_owner = {c: i for i, comp in enumerate(w.components) for c in comp.out_circles}
    in_owner = {c: k + j for j, comp in enumerate(w2.components) for c in comp.in_circles}
    for c in w.tgt:
        i, j = out_owner[c], in_owner[c]
        a, b = pieces[i], pieces[j]
        if a.orientable and b.orientable:
            parity = 1 if a.eps_map()[("out", c)] == b.eps_map()[("in", c)] else 0
        else:
            parity = 0
        uf.union(i, j, parity)

    merged = []
    for members in uf.groups():
        root, _ = uf.find(members[0])
        chi = sum(pieces[x].chi for x in members)
        non_orientable = uf.odd[root] or any(not pieces[x].orientable for x in members)
        new_in = [c for x in members if x < k for c in pieces[x].in_circles]
        new_out = [c for x in members if x >= k for c in pieces[x].out_circles]
        b = len(new_in) + len(new_out)
        if non_orientable:
            h = 2 - chi - b
            if h < 1:
                raise RuntimeError(
                    f"impossible crosscap count {h} from chi={chi}, boundary={b}"
                )
            merged.append(component(False, h, new_in, new_out))
            continue
        two_g = 2 - chi - b
        if two_g % 2 != 0 or two_g < 0:
            raise RuntimeError(f"non-integer genus from chi={chi}, boundary={b}")
        eps: dict[tuple[str, str], int] = {}
        for x in members:
            o = -1 if uf.find(x)[1] else 1
            signs = pieces[x].eps_map()
            if x < k:
                for c in pieces[x].in_circles:
                    eps[("in", c)] = o * signs[("in", c)]
            else:
                for c in pieces[x].out_circles:
                    eps[("out", c)] = o * signs[("out", c)]
        merged.append(component(True, two_g // 2, new_in, new_out, eps or None))
    return surface(w.src, w2.tgt, merged)


def euler_tqft(w: SurfaceCobordism) -> int:
    """chi of the whole cobordism relative to the incoming boundary.

    Circles have chi = 0, so the relative term vanishes and the value is the
    plain chi sum; it is exactly additive under composition.
    """
    return sum(comp.chi for comp in w.components)


def is_k_connected(w: SurfaceCobordism, k: int) -> bool:
    """k = -1 is vacuous; k = 0 means every piece touches the outgoing side."""
    if k not in (-1, 0):
        raise ValueError("only k in {-1, 0} is supported")
    if k == -1:
        return True
    return all(comp.out_circles for comp in w.components)


def outgoing_pi0_surjective(w: SurfaceCobordism) -> bool:
    """Independent route to the k=0 condition: image of pi0(tgt) -> pi0(W)."""
    owner = {}
    for idx, comp in enumerate(w.components):
        for c in comp.out_circles:
            owner[c] = idx
    image = {owner[c] for c in w.tgt}
    return image == set(range(len(w.components)))


@dataclass(frozen=True)
class ClosedSurfaceClass:
    """Multiset of connected closed classes in canonical sorted form."""

    components: tuple[ConnectedClass, ...]

    def __post_init__(self):
        for orientable, genus in self.components:
            if genus < 0 or (not orientable and genus < 1):
                raise ValueError(f"invalid connected class ({orientable}, {genus})")
        if list(self.components) != sorted(self.components, key=_class_key):
            raise ValueError("classes must be sorted; use closed_class()")


def _class_key(cls: ConnectedClass):
    orientable, genus = cls
    return (0 if orientable else 1, genus)


def closed_class(classes) -> ClosedSurfaceClass:
    return ClosedSurfaceClass(tuple(sorted(classes, key=_class_key)))


def surface_class(w: SurfaceCobordism) -> ClosedSurfaceClass:
    """Canonical factorization of a closed endomorphism into connected classes."""
    if w.src or w.tgt:
        raise ValueError("surface_class needs an endomorphism of the empty boundary")
    return closed_class((c.orientable, c.genus) for c in w.components)


def class_name(cls: ConnectedClass) -> str:
    orientable, genus = cls
    if orientable:
        if genus == 0:
            return "S2"
        if genus == 1:
            return "T2"
        return f"Sigma{genus}"
    if genus == 1:
        return "RP2"
    if genus == 2:
        return "K"
    return f"N{genus}"


def class_names(s: ClosedSurfaceClass) -> tuple[str, ...]:
    return tuple(class_name(c) for c in s.components)


def chi_of_class(cls: ConnectedClass) -> int:
    orientable, genus = cls
    return 2 - 2 * genus if orientable else 2 - genus


def connected_sum(a: ConnectedClass, b: ConnectedClass) -> ConnectedClass:
    """chi(a # b) = chi(a) + chi(b) - 2; non-orientability absorbs handles."""
    chi = chi_of_class(a) + chi_of_class(b) - 2
    if a[0] and b[0]:
        return (True, a[1] + b[1])
    return (False, 2 - chi)


def unoriented_class(s: ClosedSurfaceClass) -> int:
    """Class in the unoriented bordism group of surfaces: chi mod 2."""
    return sum(chi_of_class(c) for c in s.components) % 2


def is_nullbordant(s: ClosedSurfaceClass) -> bool:
    return unoriented_class(s) == 0


def oriented_class(s: ClosedSurfaceClass) -> int:
    """Oriented bordism class of a surface: always 0, the group is trivial."""
    for orientable, _ in s.components:
        if not orientable:
            raise ValueError("oriented_class needs orientable components")
    return 0


def cobordism_group(d: int, oriented: bool) -> AbelianInvariants:
    """Bordism group of closed d-manifolds for d <= 2, from witness relations.

    d=0: a compact arc bounds two points, so 2[pt] = 0 (unoriented) or
    [+] + [-] = 0 (oriented).  d=1: a disc bounds the circle, [S1] = 0.
    d=2 unoriented: generators [T2], [RP2]; T2 # RP2 = RP2 # RP2 # RP2
    (checked against connected_sum) gives [T2] = 2[RP2], and the Klein
    bottle bounding gives 2[RP2] = 0.  d=2 oriented: [S2] = 0 because S2 is
    the connected-sum unit, and the torus bounds a solid torus, [T2] = 0.
    """
    if d == 0:
        if oriented:
            group, _ = quotient_group([[1, 1]], 2)
        else:
            group, _ = quotient_group([[2]], 1)
        return group
    if d == 1:
        group, _ = quotient_group([[1]], 1)
        return group
    if d == 2:
        if oriented:
            group, _ = quotient_group([[1]], 1)
            return group
        dyck = connected_sum(T2, RP2)
        assert dyck == connected_sum(RP2, connected_sum(RP2, RP2))
        assert connected_sum(S2, RP2) == RP2 and connected_sum(S2, T2) == T2
        group, _ = quotient_group([[1, -2], [0, 2]], 2)
        return group
    raise ValueError("only dimensions 0, 1, 2 are supported")


def surface_to_json(w: SurfaceCobordism) -> dict:
    comps = []
    for comp in w.components:
        entry: dict = {
            "orientable": comp.orientable,
            "in": list(comp.in_circles),
            "out": list(comp.out_circles),
        }
        if comp.orientable:
            entry["genus"] = comp.genus
        else:
            entry["crosscaps"] = comp.genus
        if comp.eps:
            ambiguous = set(comp.in_circles) & set(comp.out_circles)
            entry["eps"] = {
                (f"{side}:{cid}" if cid in ambiguous else cid): sign
                for side, cid, sign in comp.eps
            }
        comps.append(entry)
    return {"src": list(w.src), "tgt": list(w.tgt), "components": comps}


def surface_from_json(data: dict) -> SurfaceCobordism:
    comps = []
    for entry in data["components"]:
        orientable = entry["orientable"]
        if not isinstance(orientable, bool):
            raise ValueError(f"orientable must be true or false, got {orientable!r}")
        genus = strict_int(entry["genus"] if orientable else entry["crosscaps"])
        comps.append(
            component(
                orientable,
                genus,
                json_array(entry.get("in", []), "in"),
                json_array(entry.get("out", []), "out"),
                entry.get("eps"),
            )
        )
    return surface(
        tuple(json_array(data["src"], "src")), tuple(json_array(data["tgt"], "tgt")), comps
    )


def random_surface(rng, src, tgt, max_genus: int = 2, closed_extra: int = 1):
    """Random morphism with the given boundary lists, for property tests."""
    src = tuple(src)
    tgt = tuple(tgt)
    n_slots = max(1, len(src) + len(tgt))
    assignment_in = {c: rng.randrange(n_slots) for c in src}
    assignment_out = {c: rng.randrange(n_slots) for c in tgt}
    comps = []
    for slot in range(n_slots):
        ins = [c for c in src if assignment_in[c] == slot]
        outs = [c for c in tgt if assignment_out[c] == slot]
        if not ins and not outs:
            continue
        orientable = rng.random() < 0.5
        genus = rng.randint(0, max_genus) if orientable else rng.randint(1, max_genus)
        if orientable:
            eps = {("in", c): rng.choice((-1, 1)) for c in ins}
            eps.update({("out", c): rng.choice((-1, 1)) for c in outs})
            comps.append(component(True, genus, ins, outs, eps))
        else:
            comps.append(component(False, genus, ins, outs))
    for _ in range(rng.randint(0, closed_extra)):
        orientable = rng.random() < 0.5
        genus = rng.randint(0, max_genus) if orientable else rng.randint(1, max_genus)
        comps.append(component(orientable, genus))
    return surface(src, tgt, comps)
