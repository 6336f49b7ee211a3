"""Cobordisms and point classes that only the surface tests build."""

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
