"""Constructions on finite categories that only the tests build: products,
coproducts, functors, natural transformations, the wire format written
back out, the cyclic groups as one-object categories, and hom-sets by a
scan over all morphisms.  Also the axiom check over all pairs and triples
of morphisms, the oracle for ``validate_category``, which walks only the
composable ones."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from cobcat.fincat import FinCat, build_category


def product(c: FinCat, d: FinCat) -> FinCat:
    """Product category; ids are "(a,b)" pairs of the factor ids."""

    def pair(a: str, b: str) -> str:
        return f"({a},{b})"

    objects = [pair(a, b) for a in c.objects for b in d.objects]
    morphisms = [
        (pair(f, g), pair(c.objects[c.src[i]], d.objects[d.src[j]]),
         pair(c.objects[c.tgt[i]], d.objects[d.tgt[j]]))
        for i, f in enumerate(c.morphisms)
        for j, g in enumerate(d.morphisms)
    ]
    identities = {
        pair(a, b): pair(c.morphisms[c.identity[i]], d.morphisms[d.identity[j]])
        for i, a in enumerate(c.objects)
        for j, b in enumerate(d.objects)
    }
    compose = []
    for (f1, g1), h1 in c.table.items():
        for (f2, g2), h2 in d.table.items():
            compose.append(
                (
                    pair(c.morphisms[f1], d.morphisms[f2]),
                    pair(c.morphisms[g1], d.morphisms[g2]),
                    pair(c.morphisms[h1], d.morphisms[h2]),
                )
            )
    return build_category(objects, morphisms, identities, compose)


def disjoint_union(c: FinCat, d: FinCat, prefixes: tuple[str, str] = ("l:", "r:")) -> FinCat:
    """Coproduct category; ids get the given prefixes to stay unique."""
    lp, rp = prefixes
    objects = [lp + o for o in c.objects] + [rp + o for o in d.objects]
    morphisms = [
        (lp + m, lp + c.objects[c.src[i]], lp + c.objects[c.tgt[i]])
        for i, m in enumerate(c.morphisms)
    ] + [
        (rp + m, rp + d.objects[d.src[i]], rp + d.objects[d.tgt[i]])
        for i, m in enumerate(d.morphisms)
    ]
    identities = {
        lp + o: lp + c.morphisms[c.identity[i]] for i, o in enumerate(c.objects)
    }
    identities.update(
        {rp + o: rp + d.morphisms[d.identity[i]] for i, o in enumerate(d.objects)}
    )
    compose = [
        (lp + c.morphisms[f], lp + c.morphisms[g], lp + c.morphisms[h])
        for (f, g), h in c.table.items()
    ] + [
        (rp + d.morphisms[f], rp + d.morphisms[g], rp + d.morphisms[h])
        for (f, g), h in d.table.items()
    ]
    return build_category(objects, morphisms, identities, compose)


@dataclass(frozen=True)
class Functor:
    """Object and morphism maps between finite categories."""

    source: FinCat
    target: FinCat
    object_map: Mapping[str, str]
    morphism_map: Mapping[str, str]


def check_functor(fun: Functor) -> list[str]:
    """Exhaustive functoriality check; empty report means lawful."""
    issues: list[str] = []
    c, d = fun.source, fun.target
    for obj in c.objects:
        if obj not in fun.object_map:
            issues.append(f"object {obj!r} has no image")
        elif fun.object_map[obj] not in d.objects:
            issues.append(f"object {obj!r} maps outside the target")
    for mor in c.morphisms:
        if mor not in fun.morphism_map:
            issues.append(f"morphism {mor!r} has no image")
        elif fun.morphism_map[mor] not in d.morphisms:
            issues.append(f"morphism {mor!r} maps outside the target")
    if issues:
        return issues
    omap = {c.object_index(o): d.object_index(v) for o, v in fun.object_map.items()}
    mmap = {
        c.morphisms.index(m): d.morphisms.index(v)
        for m, v in fun.morphism_map.items()
    }
    for f in range(len(c.morphisms)):
        if d.src[mmap[f]] != omap[c.src[f]] or d.tgt[mmap[f]] != omap[c.tgt[f]]:
            issues.append(f"image of {c.morphisms[f]!r} has wrong endpoints")
    for x in range(len(c.objects)):
        if mmap[c.identity[x]] != d.identity[omap[x]]:
            issues.append(f"identity of {c.objects[x]!r} not sent to an identity")
    for (f, g), h in c.table.items():
        image = d.table.get((mmap[f], mmap[g]))
        if image != mmap[h]:
            issues.append(
                f"composition not preserved on ({c.morphisms[f]!r}, {c.morphisms[g]!r})"
            )
    return issues


@dataclass(frozen=True)
class NatTrans:
    """Components indexed by source-category object ids."""

    source: Functor
    target: Functor
    components: Mapping[str, str]


def check_nat_trans(nt: NatTrans) -> list[str]:
    """Exhaustive naturality check; empty report means lawful."""
    issues: list[str] = []
    fun, gun = nt.source, nt.target
    if fun.source is not gun.source or fun.target is not gun.target:
        return ["the two functors do not share source and target"]
    c, d = fun.source, fun.target
    comp: dict[int, int] = {}
    for obj in c.objects:
        if obj not in nt.components:
            issues.append(f"object {obj!r} has no component")
            continue
        name = nt.components[obj]
        if name not in d.morphisms:
            issues.append(f"component at {obj!r} is not a target morphism")
            continue
        k = d.morphisms.index(name)
        x = c.object_index(obj)
        if d.src[k] != d.object_index(fun.object_map[obj]) or d.tgt[
            k
        ] != d.object_index(gun.object_map[obj]):
            issues.append(f"component at {obj!r} has wrong endpoints")
        comp[x] = k
    if issues:
        return issues
    for f in range(len(c.morphisms)):
        x, y = c.src[f], c.tgt[f]
        ff = d.morphisms.index(fun.morphism_map[c.morphisms[f]])
        gf = d.morphisms.index(gun.morphism_map[c.morphisms[f]])
        left = d.table[(ff, comp[y])]
        right = d.table[(comp[x], gf)]
        if left != right:
            issues.append(f"naturality square fails at {c.morphisms[f]!r}")
    return issues


def to_json(c: FinCat) -> dict:
    """Wire format dictionary; deterministic ordering throughout."""
    return {
        "objects": list(c.objects),
        "morphisms": [
            {"id": m, "src": c.objects[c.src[i]], "tgt": c.objects[c.tgt[i]]}
            for i, m in enumerate(c.morphisms)
        ],
        "identities": {
            obj: c.morphisms[c.identity[i]] for i, obj in enumerate(c.objects)
        },
        "compose": sorted(
            [c.morphisms[f], c.morphisms[g], c.morphisms[h]]
            for (f, g), h in c.table.items()
        ),
    }


def hom(c: FinCat, x: int, y: int) -> list[int]:
    """The morphisms x -> y, in index order, by a scan over all of them."""
    return [f for f in range(len(c.morphisms)) if c.src[f] == x and c.tgt[f] == y]


def cyclic_group_category(n: int) -> FinCat:
    """Z/n as a one-object groupoid; morphism ids are "r0".."r{n-1}"."""
    if n < 1:
        raise ValueError("n must be positive")
    objects = ["*"]
    morphisms = [(f"r{k}", "*", "*") for k in range(n)]
    identities = {"*": "r0"}
    compose = [
        (f"r{a}", f"r{b}", f"r{(a + b) % n}") for a in range(n) for b in range(n)
    ]
    return build_category(objects, morphisms, identities, compose)


def validate_category_all_pairs(c: FinCat) -> list[str]:
    """The axiom check that filters all n² pairs and n³ triples of
    morphisms for the composable ones: the issues of ``validate_category``,
    in the same order."""
    issues: list[str] = []
    n = len(c.morphisms)
    for x, i in enumerate(c.identity):
        if not (0 <= i < n):
            issues.append(f"object {c.objects[x]!r} has no identity morphism")
            continue
        if c.src[i] != x or c.tgt[i] != x:
            issues.append(
                f"identity of {c.objects[x]!r} is not an endomorphism of it"
            )
    composable = {(f, g) for f in range(n) for g in range(n) if c.tgt[f] == c.src[g]}
    for key in c.table:
        if key not in composable:
            f, g = key
            issues.append(
                f"table entry for non-composable pair ({c.morphisms[f]!r}, {c.morphisms[g]!r})"
            )
    for f, g in sorted(composable):
        if (f, g) not in c.table:
            issues.append(
                f"missing composite of {c.morphisms[f]!r} then {c.morphisms[g]!r}"
            )
            continue
        h = c.table[(f, g)]
        if not (0 <= h < n):
            issues.append(f"composite index out of range for pair ({f}, {g})")
            continue
        if c.src[h] != c.src[f] or c.tgt[h] != c.tgt[g]:
            issues.append(
                f"composite of {c.morphisms[f]!r} then {c.morphisms[g]!r} has wrong endpoints"
            )
    if issues:
        return issues
    for f in range(n):
        i_src = c.identity[c.src[f]]
        i_tgt = c.identity[c.tgt[f]]
        if c.table[(i_src, f)] != f:
            issues.append(f"left identity law fails at {c.morphisms[f]!r}")
        if c.table[(f, i_tgt)] != f:
            issues.append(f"right identity law fails at {c.morphisms[f]!r}")
    for f in range(n):
        for g in range(n):
            if c.tgt[f] != c.src[g]:
                continue
            fg = c.table[(f, g)]
            for h in range(n):
                if c.tgt[g] != c.src[h]:
                    continue
                gh = c.table[(g, h)]
                if c.table[(fg, h)] != c.table[(f, gh)]:
                    issues.append(
                        "associativity fails on "
                        f"({c.morphisms[f]!r}, {c.morphisms[g]!r}, {c.morphisms[h]!r})"
                    )
    return issues
