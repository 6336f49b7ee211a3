"""Nerve of a finite category: homology and the edge-path fundamental group.

Cells in degree p are composable p-tuples of non-identity morphisms
(the normalized chain complex: faces that compose to an identity are
dropped).  :func:`build_nerve` counts the cells of each degree against the
cell ceiling and enumerates none.  Homology comes from the Morse complex of
Brown's collapsing scheme (K. S. Brown, "The geometry of rewriting
systems", 1992; E. Sköldberg, "Morse theory from an algebraic viewpoint",
2006): shortlex normal forms of the morphisms match most cells in pairs,
and the critical ones, the Anick chains (D. Anick, Trans. AMS 1986), are
listed straight from the category.  Their boundaries are projected along
the gradient paths one face at a time, and only they go through the exact
Smith invariant factors (:func:`~cobcat.exactmath.smith_diagonal`).  For
BZ/n one chain per degree is critical.  The cell lists and sparse boundary
columns of the whole nerve are built only on request, with a d∘d = 0 check.

Degrees above ``cap - 1`` are not reported: computing H_p honestly needs the
boundary out of degree p + 1, so a nerve built with ``cap = n`` yields
homology in degrees 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactmath import AbelianInvariants, GroupPresentation, IntMatrix, smith_diagonal
from .fincat import FinCat
from .limits import check_count

DEFAULT_CAP = 3


@dataclass(frozen=True)
class NerveComplex:
    """The nerve of ``category`` truncated at degree ``cap``, priced:
    ``counts[p]`` is the number of p-cells, and no cell is enumerated until
    ``cells``, ``columns`` or ``boundaries`` is read.

    ``cells[0]`` lists object indices; ``cells[p]`` for p >= 1 lists tuples
    of morphism indices forming composable chains of non-identities.
    ``columns[p][j]`` maps the indices of the degree-(p-1) faces of cell
    ``cells[p][j]`` to their non-zero coefficients in its boundary; the
    composite of consecutive boundaries is checked to be zero as they are
    built.
    """

    category: FinCat
    cap: int
    counts: tuple[int, ...]

    def cell_counts(self) -> list[int]:
        return list(self.counts)

    @cached_property
    def cells(self) -> tuple[tuple, ...]:
        c = self.category
        cells = [tuple(range(len(c.objects)))]
        cells.append(tuple((f,) for f in range(len(c.morphisms)) if not c.is_identity(f)))
        for p in range(2, self.cap + 1):
            cells.append(tuple(
                chain + (g,) for chain in cells[p - 1] for g in c.arrows[c.tgt[chain[-1]]]
            ))
        return tuple(cells)

    @cached_property
    def columns(self) -> tuple[tuple[dict[int, int], ...], ...]:
        cells = self.cells
        columns = [tuple({} for _ in cells[0])]
        for p in range(1, self.cap + 1):
            index = {cell: i for i, cell in enumerate(cells[p - 1])}
            columns.append(tuple(
                {index[face]: v for face, v in _faces(self.category, chain).items()}
                for chain in cells[p]
            ))
        _assert_chain_complex(columns)
        return tuple(columns)

    @property
    def boundaries(self) -> tuple[IntMatrix, ...]:
        """Dense boundary matrices; ``boundaries[p]`` maps degree-p chains
        to degree-(p-1) chains (``boundaries[0]`` has no rows)."""
        out = []
        for p, columns in enumerate(self.columns):
            rows = len(self.cells[p - 1]) if p else 0
            width = len(columns)
            data = [0] * (rows * width)
            for j, col in enumerate(columns):
                for i, v in col.items():
                    data[i * width + j] = v
            out.append(IntMatrix(rows, width, data))
        return tuple(out)


def build_nerve(c: FinCat, cap: int = DEFAULT_CAP) -> NerveComplex:
    """Price the nerve up to degree ``cap``: count its cells in each degree,
    by paths over the non-identities, and enumerate none of them.

    Both prices go through :func:`~cobcat.limits.check_count`, so the one
    ceiling is ``COBCAT_MAX_CELLS``.  The ``cap + 1`` degrees are priced
    first, so a huge cap is refused at once; then the running cell total at
    each degree.  Every cell :func:`homology` projects is a nerve cell, so
    the count bounds its work too.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    check_count(cap + 1, f"--cap {cap} asks for {cap + 1} degrees")
    # Chains of degree p ending at each object, v_p[y] = sum of v_{p-1}[x]
    # over the non-identities x -> y; above an empty degree all are empty.
    ends = [1] * len(c.objects)
    counts, total = [len(ends)], len(ends)
    for p in range(cap + 1):
        if p:
            ends, last = [0] * len(ends), ends
            for x, out in enumerate(c.arrows):
                for f in out:
                    ends[c.tgt[f]] += last[x]
            counts.append(sum(ends))
            total += counts[-1]
        check_count(total, f"nerve would reach {total} cells at degree {p}")
        if not any(ends):
            break
    return NerveComplex(c, cap, tuple(counts) + (0,) * (cap + 1 - len(counts)))


def _faces(c: FinCat, chain: tuple[int, ...]) -> dict:
    """The non-degenerate faces of a chain with their non-zero coefficients
    in its alternating face sum; the faces of a 1-chain are objects."""
    p = len(chain)
    if p == 1:
        x, y = c.src[chain[0]], c.tgt[chain[0]]
        return {y: 1, x: -1} if x != y else {}
    faces = {chain[1:]: 1}
    faces[chain[:-1]] = faces.get(chain[:-1], 0) + (-1) ** p
    for i in range(1, p):
        composite = c.table[chain[i - 1], chain[i]]
        if not c.is_identity(composite):
            face = chain[: i - 1] + (composite,) + chain[i + 1 :]
            faces[face] = faces.get(face, 0) + (-1) ** i
    return {face: v for face, v in faces.items() if v}


def _assert_chain_complex(columns) -> None:
    """d_{p-1} ∘ d_p = 0, one column of d_p at a time."""
    for p in range(2, len(columns)):
        lower = columns[p - 1]
        for col in columns[p]:
            image: dict[int, int] = {}
            for k, a in col.items():
                for i, b in lower[k].items():
                    image[i] = image.get(i, 0) + a * b
            if any(image.values()):
                raise AssertionError(f"boundary squared nonzero in degree {p}")


def _normal_forms(c: FinCat) -> dict[int, tuple[int, ...]]:
    """Shortlex-least paths of generators composing to each non-identity.

    The generators are the non-identities that are not a composite of two
    non-identities, then, in index order, each one the generators so far do
    not reach.  Every prefix and suffix of a normal form is a normal form.
    """
    table, src, tgt = c.table, c.src, c.tgt
    ident = set(c.identity)
    non_identities = [f for f in range(len(c.morphisms)) if f not in ident]
    composites = {h for (f, g), h in table.items() if f not in ident and g not in ident}
    gens = [f for f in non_identities if f not in composites]
    by_source: list[list[int]] = [[] for _ in c.objects]
    for s in gens:
        by_source[src[s]].append(s)

    def search(nf: dict[int, tuple[int, ...]], queue: list[int]) -> dict[int, tuple[int, ...]]:
        for x in queue:  # breadth first, generators in index order: shortlex
            for s in by_source[tgt[x]]:
                h = table[x, s]
                if h not in nf and h not in ident:
                    nf[h] = nf[x] + (s,)
                    queue.append(h)
        return nf

    nf = search({s: (s,) for s in gens}, list(gens))
    if len(nf) == len(non_identities):
        return nf
    for f in non_identities:  # close the reached set after each new generator
        if f not in nf:
            queue = [x for x in nf if tgt[x] == src[f]] + [f]
            nf[f] = (f,)
            gens.append(f)
            by_source[src[f]].append(f)
            search(nf, queue)
    gens.sort()
    for out in by_source:
        out.sort()
    return search({s: (s,) for s in gens}, list(gens))


def _collapsing_scheme(c: FinCat, cap: int):
    """Brown's collapsing scheme on the nerve, on chain tuples: the critical
    chains of degrees 0..cap, up to the first empty degree, and
    ``classify``, which sends a chain of degree 1 or more to ``(0, None)``
    if it is critical, ``(1, partner)`` if it is redundant and
    ``(-1, face)`` if it is collapsible onto a redundant face.

    With NF from :func:`_normal_forms`, a chain [x1|…|xp] is redundant if
    NF(x1) has two letters or more; its partner splits off the first
    letter.  Otherwise the chain is followed while each NF(xj) is the
    shortest prefix u of itself with NF(x(j-1))·u reducible (an Anick
    pair).  At the first xj where it is not, the chain is collapsible onto
    the face composing x(j-1) and xj if NF(x(j-1))·NF(xj) is a normal form,
    and redundant if u is a proper prefix: its partner splits xj = u·v.
    The critical chains, a generator followed by Anick pairs, are listed
    from a successor table of the Anick pairs.
    """
    table, tgt = c.table, c.tgt
    nf = _normal_forms(c)
    value = {w: x for x, w in nf.items()}
    splits: dict[tuple[int, int], tuple[int, ...] | None] = {}

    def split(pair: tuple[int, int]) -> tuple[int, ...] | None:
        # () for an Anick pair, None for a collapsible one, else (u, v).
        wx, wy = nf[pair[0]], nf[pair[1]]
        z, uv = pair[0], None
        for k, s in enumerate(wy):
            z = table[z, s]
            if nf.get(z) != wx + wy[: k + 1]:
                uv = () if k + 1 == len(wy) else (value[wy[: k + 1]], value[wy[k + 1 :]])
                break
        splits[pair] = uv
        return uv

    chains = [tuple(range(len(c.objects))), tuple((x,) for x in sorted(nf) if len(nf[x]) == 1)]
    successors: dict[int, list[int]] = {}
    while len(chains) <= cap and chains[-1]:
        layer = []
        for chain in chains[-1]:
            x = chain[-1]
            if x not in successors:
                successors[x] = [y for y in c.arrows[tgt[x]] if split((x, y)) == ()]
            layer.extend(chain + (y,) for y in successors[x])
        chains.append(tuple(layer))

    def classify(chain: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None]:
        word = nf[chain[0]]
        if len(word) > 1:
            return 1, (word[0], value[word[1:]]) + chain[1:]
        for j in range(1, len(chain)):
            pair = chain[j - 1], chain[j]
            uv = splits[pair] if pair in splits else split(pair)
            if uv is None:
                return -1, chain[: j - 1] + (table[pair],) + chain[j + 1 :]
            if uv:
                return 1, chain[:j] + uv + chain[j + 1 :]
        return 0, None

    return [layer for layer in chains if layer], classify


def homology(n: NerveComplex) -> list[AbelianInvariants]:
    """H_0 .. H_{cap-1} as canonical abelian invariants, from the critical
    chains of :func:`_collapsing_scheme` (algebraic discrete Morse theory),
    without enumerating the nerve.

    Each face of a critical p-chain is projected onto the critical
    (p-1)-chains once: a critical chain to itself, a collapsible one to 0,
    and a redundant chain r with partner q to -ε⁻¹ times the projections of
    the other faces of q, where ε is r's coefficient in dq.  The Smith
    invariant factors of these Morse boundaries give the homology, and the
    first degree without a critical chain ends the work.  A partner that
    does not collapse back onto r (a cell matched twice), an ε other than
    ±1, a cycle of the gradient flow or a Morse boundary whose square is
    not zero raises ``AssertionError``.

    >>> from cobcat.fincat import build_category
    >>> r = ["r0", "r1", "r2"]
    >>> bz3 = build_category(
    ...     ["*"], [(f, "*", "*") for f in r], {"*": "r0"},
    ...     [(r[i], r[j], r[(i + j) % 3]) for i in range(3) for j in range(3)])
    >>> [h.describe() for h in homology(build_nerve(bz3, cap=3))]
    ['Z', 'Z/3', '0']
    """
    c = n.category
    chains, classify = _collapsing_scheme(c, n.cap)
    morse: list[list[dict[int, int]]] = [[]]
    diags: list[list[int]] = [[]]
    for p in range(1, len(chains)):
        index = {cell: k for k, cell in enumerate(chains[p - 1])}
        proj = {x: {x: 1} for x in chains[0]} if p == 1 else {}  # an object is its own index
        stacked: dict[tuple, tuple[int, dict]] = {}  # r -> (ε, the faces of its partner)
        morse.append([])
        for chain in chains[p]:
            col = _faces(c, chain)
            stack = [g for g in col if g not in proj]
            while stack:
                r = stack[-1]
                if r in proj:
                    stack.pop()
                    continue
                if r not in stacked:
                    kind, q = classify(r)
                    if kind == 0 and r not in index:
                        raise AssertionError(f"{r} is critical but not an Anick chain")
                    if kind <= 0:
                        proj[r] = {index[r]: 1} if kind == 0 else {}
                        continue
                    if classify(q) != (-1, r):
                        raise AssertionError(f"a {p - 1}-cell is matched twice")
                    faces = _faces(c, q)
                    if faces.get(r) not in (1, -1):
                        raise AssertionError(f"matched incidence {faces.get(r)} in degree {p}")
                    stacked[r] = faces[r], faces
                eps, faces = stacked[r]
                for g in faces:
                    if g not in proj and g != r:
                        if g in stacked:
                            raise AssertionError(f"gradient flow cycle in degree {p - 1}")
                        stack.append(g)
                        break
                else:
                    proj[r] = _combine(proj, faces, r, -eps)
                    del stacked[r]
            morse[p].append(col if p == 1 else _combine(proj, col, None, 1))
        diags.append(smith_diagonal(morse[p], len(index)))
    _assert_chain_complex(morse)
    diags.append([])
    out = []
    for p in range(min(n.cap, len(chains))):
        free = len(chains[p]) - len(diags[p]) - len(diags[p + 1])
        out.append(AbelianInvariants(free, tuple(d for d in diags[p + 1] if d > 1)))
    return out + [AbelianInvariants(0, ())] * (n.cap - len(out))


def _combine(proj: dict, col: dict, skip, scale: int) -> dict[int, int]:
    """``scale`` times the projection of the faces in ``col`` but ``skip``."""
    out: dict[int, int] = {}
    for g, a in col.items():
        if g != skip:
            for k, b in proj[g].items():
                out[k] = out.get(k, 0) + scale * a * b
    return {k: v for k, v in out.items() if v}


def pi0(c: FinCat) -> list[list[str]]:
    """Connected components of the category, as sorted object-id classes."""
    groups = (group for x, group in enumerate(c.components) if group[0] == x)
    return sorted(sorted(c.objects[i] for i in group) for group in groups)


def component_objects(c: FinCat, basepoint: str) -> set[int]:
    return set(c.components[c.object_index(basepoint)])


def fundamental_group(c: FinCat, basepoint: str) -> GroupPresentation:
    """Edge-path presentation of pi_1 of the nerve at the basepoint.

    Generators are the non-identity morphisms of the basepoint's component,
    in index order, read from ``FinCat.components`` and ``FinCat.arrows``.
    Relators: each spanning-tree edge, and for every composable pair
    ``f: x -> y``, ``g: y -> z`` of non-identities the word ``g f h^-1``
    where ``h = g after f`` (the ``h`` letter is dropped when the composite
    is an identity).  The presentation is raw: no Tietze move shrinks it.
    Its dense relator matrix, relators times generators entries, is held to
    the cell ceiling here, before anything reduces it, so every command that
    reads the presentation is priced by this one check.
    """
    base = c.object_index(basepoint)
    component = c.components[base]
    gens = sorted(f for x in component for f in c.arrows[x])
    gen_letter = {f: i + 1 for i, f in enumerate(gens)}

    # Breadth-first spanning tree, scanning morphisms in index order so the
    # result is deterministic.  A morphism joins the tree only when exactly
    # one of its ends has been visited, so an endomorphism never does.  The
    # component is connected, so every pass adds an edge until it is covered.
    visited = {base}
    tree_edges: set[int] = set()
    while len(visited) < len(component):
        for f in gens:
            x, y = c.src[f], c.tgt[f]
            if (x in visited) != (y in visited):
                tree_edges.add(f)
                visited.update((x, y))

    relators: list[tuple[int, ...]] = [(gen_letter[f],) for f in sorted(tree_edges)]
    for f in gens:
        for g in c.arrows[c.tgt[f]]:
            h = c.compose(f, g)
            if c.is_identity(h):
                relators.append((gen_letter[g], gen_letter[f]))
            else:
                relators.append((gen_letter[g], gen_letter[f], -gen_letter[h]))
    rows, width = len(relators), len(gens)
    check_count(
        rows * width,
        f"the presentation at {basepoint} would reduce {rows} relators over "
        f"{width} generators, {rows * width} matrix entries",
    )
    return GroupPresentation(
        tuple(c.morphisms[f] for f in gens), tuple(relators)
    )
