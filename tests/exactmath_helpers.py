"""Word reductions and Tietze simplification of group presentations, which
only the tests use to compare presentations up to isomorphism and to reduce
the commuting-square words of the relations oracle."""

from __future__ import annotations

from typing import Iterable

from cobcat.exactmath import GroupPresentation, Word


def free_reduce(word: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs.

    >>> free_reduce((1, 2, -2, -1, 3))
    (3,)
    """
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word: Iterable[int]) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def inverse_word(word: Iterable[int]) -> Word:
    return tuple(-letter for letter in reversed(tuple(word)))


def _canonical_relator(word: Word) -> Word:
    """Least rotation of the cyclically reduced word or its inverse.

    Ordered by generator index first, with positive letters preferred, so
    ``a*a`` wins over ``a^-1*a^-1``.
    """
    w = cyclic_reduce(word)
    if not w:
        return ()
    candidates = []
    for base in (w, inverse_word(w)):
        for s in range(len(base)):
            candidates.append(base[s:] + base[:s])
    return min(candidates, key=lambda c: tuple((abs(l), l < 0) for l in c))


def simplify_presentation(
    p: GroupPresentation, effort: int = 100
) -> GroupPresentation:
    """Bounded Tietze simplification; best effort, deterministic.

    Each pass freely and cyclically reduces relators, removes duplicates,
    then performs at most one generator elimination: a length-1 relator kills
    its generator, and a length-2 relator on two distinct generators
    substitutes the later-indexed one.  ``effort`` bounds the number of
    passes; 0 returns the presentation unchanged.  The simplified group is
    isomorphic to the input (only Tietze moves are used).

    >>> p = GroupPresentation(("a", "b"), ((1, 2),))
    >>> simplify_presentation(p).generators
    ('a',)
    >>> simplify_presentation(p, effort=0) == p
    True
    """
    if effort <= 0:
        return p
    gens = list(p.generators)
    relators = [tuple(r) for r in p.relators]

    def drop_generator(victim: int, replacement: Word) -> None:
        # victim is 1-based; replacement is a word in the *old* indexing.
        nonlocal gens, relators
        new_rels = []
        for rel in relators:
            out: list[int] = []
            for letter in rel:
                if abs(letter) == victim:
                    out.extend(replacement if letter > 0 else inverse_word(replacement))
                else:
                    out.append(letter)
            new_rels.append(tuple(out))
        remap = {}
        shift = 0
        for i in range(1, len(gens) + 1):
            if i == victim:
                shift = 1
                continue
            remap[i] = i - shift
        gens = [g for i, g in enumerate(gens, start=1) if i != victim]
        relators = [
            tuple((1 if l > 0 else -1) * remap[abs(l)] for l in rel)
            for rel in new_rels
        ]

    for _ in range(effort):
        before = (tuple(gens), tuple(relators))
        seen = set()
        cleaned = []
        for rel in relators:
            canon = _canonical_relator(rel)
            if canon and canon not in seen:
                seen.add(canon)
                cleaned.append(canon)
        relators = cleaned

        elimination = None
        for rel in relators:
            if len(rel) == 1:
                elimination = (abs(rel[0]), ())
                break
            if len(rel) == 2 and abs(rel[0]) != abs(rel[1]):
                # x^e y^f = 1, eliminate the later generator of the two.
                a, b = rel
                if abs(a) < abs(b):
                    keep, victim = a, b
                else:
                    keep, victim = b, a
                # victim^f = keep^-e  =>  victim = keep^(-e*f)
                rep_letter = -keep if victim > 0 else keep
                elimination = (abs(victim), (rep_letter,))
                break
        if elimination is not None:
            drop_generator(*elimination)
        if (tuple(gens), tuple(relators)) == before:
            break

    return GroupPresentation(tuple(gens), tuple(relators))
