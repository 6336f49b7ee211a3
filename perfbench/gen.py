"""The benchmark's own input generators and reference answers.

Inputs are written as cobcat's JSON wire formats by this file alone; none
of cobcat's constructors (such as ``fincat.cyclic_group_category``) is used,
so a defect in them cannot hide in the benchmark's inputs.  Every generator
draws its ids and choices from a :class:`Names` over a ``random.Random``
made from the run's seed.
"""

from __future__ import annotations

import itertools
import math
from collections import deque


class Names:
    """Distinct random ids such as ``m3f09a2``, unique across one input set.

    Set iteration order varies between processes, so ids are kept in lists
    and a set is used for membership only.
    """

    def __init__(self, rng):
        self.rng = rng
        self.used: set[str] = set()

    def many(self, count: int, prefix: str) -> list[str]:
        out = []
        while len(out) < count:
            name = f"{prefix}{self.rng.randrange(16**6):06x}"
            if name not in self.used:
                self.used.add(name)
                out.append(name)
        return out

    def one(self, prefix: str) -> str:
        return self.many(1, prefix)[0]


def category_doc(objects, morphisms, identities, compose) -> dict:
    """Wire format; ``morphisms`` rows are (id, src, tgt) and ``compose`` rows
    (f, g, h) mean g after f = h."""
    return {
        "objects": list(objects),
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in morphisms],
        "identities": dict(identities),
        "compose": [list(row) for row in compose],
    }


def cyclic_group(names: Names, n: int) -> tuple[dict, list[str]]:
    """Z/n as a one-object category under random ids.

    Returns the document and the ids, ``names[k]`` being rotation by k.
    """
    obj = names.one("o")
    rot = names.many(n, "r")
    morphisms = [(rot[k], obj, obj) for k in range(n)]
    compose = [(rot[a], rot[b], rot[(a + b) % n]) for a in range(n) for b in range(n)]
    return category_doc([obj], morphisms, {obj: rot[0]}, compose), rot


def poset(names: Names, elements: list[str], below) -> dict:
    """Poset category of a reflexive, transitive relation ``below(a, b)``."""
    ids = {}
    for a in elements:
        for b in elements:
            if below(a, b):
                ids[(a, b)] = names.one("i" if a == b else "l")
    morphisms = [(m, a, b) for (a, b), m in ids.items()]
    compose = [
        (f, g, ids[(a, c)])
        for (a, b), f in ids.items()
        for (b2, c), g in ids.items()
        if b == b2
    ]
    return category_doc(elements, morphisms, {a: ids[(a, a)] for a in elements}, compose)


def _subsets(names: Names, k: int) -> tuple[list[str], dict[str, int]]:
    """Ids for the proper non-empty subsets of a k-set, and their bit masks."""
    masks = list(range(1, (1 << k) - 1))
    ids = names.many(len(masks), "s")
    return ids, dict(zip(ids, masks))


def proper_subsets(names: Names, k: int) -> dict:
    """Proper non-empty subsets of a k-set under inclusion: its nerve is
    the barycentric subdivision of the boundary of a (k-1)-simplex, S^(k-2)."""
    ids, mask = _subsets(names, k)
    return poset(names, ids, lambda a, b: mask[a] & mask[b] == mask[a])


def chain(names: Names, k: int) -> dict:
    """A chain of k elements: its nerve is a (k-1)-simplex."""
    elements = names.many(k, "p")
    return poset(names, elements, lambda a, b: elements.index(a) <= elements.index(b))


def cone(names: Names, k: int) -> dict:
    """The proper non-empty subsets of a k-set with a top element added
    above all of them: a poset with a terminal object, so a point."""
    ids, mask = _subsets(names, k)
    top = names.one("t")
    return poset(names, ids + [top], lambda a, b: b == top or (a != top and mask[a] & mask[b] == mask[a]))


def parallel_arrows(names: Names, k: int) -> dict:
    """Two objects and k parallel arrows: the nerve is a wedge of k-1 circles."""
    a, b = names.many(2, "o")
    ia, ib = names.many(2, "i")
    arrows = names.many(k, "f")
    morphisms = [(ia, a, a), (ib, b, b)] + [(f, a, b) for f in arrows]
    compose = [(ia, ia, ia), (ib, ib, ib)]
    compose += [(ia, f, f) for f in arrows] + [(f, ib, f) for f in arrows]
    return category_doc([a, b], morphisms, {a: ia, b: ib}, compose)


def disjoint_union(docs: list[dict]) -> dict:
    """Side by side; the ids of the parts must be distinct."""
    union = {key: [x for d in docs for x in d[key]] for key in ("objects", "morphisms", "compose")}
    union["identities"] = {obj: mor for d in docs for obj, mor in d["identities"].items()}
    return union


def components(doc: dict) -> list[list[str]]:
    """Connected components of a category document by breadth-first search."""
    adjacent = {o: set() for o in doc["objects"]}
    for m in doc["morphisms"]:
        adjacent[m["src"]].add(m["tgt"])
        adjacent[m["tgt"]].add(m["src"])
    seen: set[str] = set()
    out = []
    for start in doc["objects"]:
        if start in seen:
            continue
        seen.add(start)
        queue, comp = deque([start]), []
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in adjacent[x] - seen:
                seen.add(y)
                queue.append(y)
        out.append(sorted(comp))
    return sorted(out)


# -- reference answers ------------------------------------------------------


def group(rank: int = 0, torsion=()) -> dict:
    return {"rank": rank, "torsion": list(torsion)}


def cyclic_homology(n: int, cap: int) -> list[dict]:
    """H_p(BZ/n) for p < cap: Z, then Z/n in odd and 0 in even degrees."""
    return [group(1) if p == 0 else group(0, [n] if p % 2 else []) for p in range(cap)]


def sphere_homology(dim: int, cap: int) -> list[dict]:
    """H_p(S^dim) for p < cap."""
    return [group(1 if p in (0, dim) else 0) for p in range(cap)]


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)


def subset_chain_count(k: int, p: int) -> int:
    """p-chains of proper non-empty subsets of a k-set are ordered set
    partitions into p + 2 blocks."""
    return math.factorial(p + 2) * stirling2(k, p + 2)


def class_chi(name: str) -> int:
    """Euler characteristic of a connected closed surface from its name:
    S2, T2, Sigma<g> (2 - 2g), RP2, K, N<h> (2 - h)."""
    fixed = {"S2": 2, "T2": 0, "RP2": 1, "K": 0}
    if name in fixed:
        return fixed[name]
    if name.startswith("Sigma"):
        return 2 - 2 * int(name[5:])
    if name.startswith("N"):
        return 2 - int(name[1:])
    raise ValueError(f"unknown surface class {name!r}")


def surface_names(min_chi: int) -> set[str]:
    """Names of all connected closed surfaces with chi >= min_chi."""
    names = set()
    for g in itertools.count():
        if 2 - 2 * g < min_chi:
            break
        names.add(["S2", "T2"][g] if g < 2 else f"Sigma{g}")
    for h in itertools.count(1):
        if 2 - h < min_chi:
            break
        names.add(["RP2", "K"][h - 1] if h < 3 else f"N{h}")
    return names


# Rooted unordered trees with k nodes (OEIS A000081), k = 1..7.
ROOTED_TREES = (1, 1, 2, 4, 9, 20, 48)


def alternating_nodes(tree, depth: int = 0) -> int:
    """Nodes at even depth minus nodes at odd depth; a tree is the tuple of
    its children."""
    return (-1) ** depth + sum(alternating_nodes(child, depth + 1) for child in tree)
