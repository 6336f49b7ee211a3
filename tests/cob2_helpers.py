"""Cobordisms, point classes and boundary reparametrizations that only the
surface tests build."""

from __future__ import annotations

from cobcat.cob2 import SurfaceCobordism, component, surface


def pants(in_circle: str, out_a: str, out_b: str) -> SurfaceCobordism:
    return surface(
        (in_circle,), (out_a, out_b), [component(True, 0, (in_circle,), (out_a, out_b))]
    )


def copants(in_a: str, in_b: str, out_circle: str) -> SurfaceCobordism:
    return surface(
        (in_a, in_b), (out_circle,), [component(True, 0, (in_a, in_b), (out_circle,))]
    )


def forget_orientation(src, tgt, oriented_components) -> SurfaceCobordism:
    """Underlying unoriented morphism of an oriented cobordism.

    ``oriented_components`` lists (genus, in_circles, out_circles, signs)
    with the orientation-induced boundary signs; forgetting keeps the signs
    only modulo a global flip per piece.
    """
    comps = [
        component(True, genus, in_c, out_c, signs)
        for genus, in_c, out_c, signs in oriented_components
    ]
    return surface(src, tgt, comps)


def oriented_point_class(signs) -> int:
    """The d = 0 analogue: signed count of points, valued in Z."""
    total = 0
    for s in signs:
        if s not in (-1, 1):
            raise ValueError("point signs must be +1 or -1")
        total += s
    return total


def act_boundary(
    w: SurfaceCobordism,
    src_perm=None,
    tgt_perm=None,
    reflect_src=(),
    reflect_tgt=(),
) -> SurfaceCobordism:
    """Reparametrize boundary circles: rename by bijections and/or reflect.

    A reflection flips the sign of that circle on its (orientable) piece;
    on non-orientable pieces it is invisible.  Signs re-canonicalize, so
    reflecting every circle of a piece returns the same morphism.
    """
    src_map = {c: c for c in w.src}
    src_map.update(dict(src_perm or {}))
    tgt_map = {c: c for c in w.tgt}
    tgt_map.update(dict(tgt_perm or {}))
    new_src = tuple(src_map[c] for c in w.src)
    new_tgt = tuple(tgt_map[c] for c in w.tgt)
    if sorted(new_src) != sorted(w.src) or sorted(new_tgt) != sorted(w.tgt):
        raise ValueError("renamings must permute the boundary circle ids")
    reflect_src = set(reflect_src)
    reflect_tgt = set(reflect_tgt)
    if not reflect_src <= set(w.src) or not reflect_tgt <= set(w.tgt):
        raise ValueError("reflection flags must name boundary circles")
    comps = []
    for comp in w.components:
        new_in = [src_map[c] for c in comp.in_circles]
        new_out = [tgt_map[c] for c in comp.out_circles]
        if not comp.orientable or not comp.eps:
            comps.append(component(comp.orientable, comp.genus, new_in, new_out))
            continue
        eps = {}
        for side, cid, sign in comp.eps:
            if side == "in":
                flip = -1 if cid in reflect_src else 1
                eps[("in", src_map[cid])] = sign * flip
            else:
                flip = -1 if cid in reflect_tgt else 1
                eps[("out", tgt_map[cid])] = sign * flip
        comps.append(component(True, comp.genus, new_in, new_out, eps))
    return surface(new_src, new_tgt, comps)
