"""``cli-batch``: about 60 small ``cli.dispatch`` calls over every subcommand.

Per-invocation overhead dominates: ``dispatch`` builds its argparse parser
on every call, so this workload shows what strict parsing or budget checks
would add to a small command, and a sparse-homology change that costs tiny
complexes.  Each result is serialized the way ``cli.main`` does.  The seed
draws the ids, words, surfaces, matchings and pairings in the input files and
the job order; the size and kind of each input, and so the work, are the
same for every seed.

Three malformed inputs stay in the mix.  Each must be refused with exit
code 1 and a JSON ``error``; today each is accepted or crashes, and is
counted as a failed operation.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import gen
from jobs import Failed, Job

DIM = 3  # of every pairing; frob eval matrices are DIM^n x DIM^m
N_A, N_B, N_BROKEN = 5, 3, 4  # orders of the cyclic groups
ARROWS = 3  # parallel arrows
PRIME = 7  # graded lines over F_7
NEST_DEPTH = 100_000


def serialize(report) -> str:
    """Standard output of one invocation, as ``cli.main`` prints it."""
    return json.dumps(report.payload(), sort_keys=True)


def _count_entries(tracer, args, result) -> None:
    tracer.count("monoidal.evaluate.entries", sum(len(row) for row in result))
    tracer.count("monoidal.evaluate.nonzero", sum(1 for row in result for v in row if v))


# Every cobcat function a handler calls is wrapped, reading the input file
# too, so that the self time of cli.dispatch is the command line's own
# overhead: argparse and glue, with the small methods left unwrapped (see
# README.md).
TARGETS = (
    ("cobcat.cli.dispatch", "cli.dispatch", None),
    ("cobcat.cli._load", "cli.load", None),
    ("wl_cli.serialize", "cli.serialize", None),
    ("cobcat.fincat.from_json", "fincat.from_json", None),
    ("cobcat.fincat.validate_category", "fincat.validate_category", None),
    ("cobcat.fincat.is_groupoid", "fincat.is_groupoid", None),
    ("cobcat.nerve.build_nerve", "nerve.build_nerve", None),
    ("cobcat.nerve.homology", "nerve.homology", None),
    ("cobcat.nerve.fundamental_group", "nerve.fundamental_group", None),
    ("cobcat.nerve.pi0", "nerve.pi0", None),
    ("cobcat.nerve.component_objects", "nerve.component_objects", None),
    ("cobcat.exactmath.abelianize", "exactmath.abelianize", None),
    ("cobcat.localize.abelian_loop_classes", "localize.abelian_loop_classes", None),
    ("cobcat.localize.relation_word", "localize.relation_word", None),
    ("cobcat.localize.word_class", "localize.word_class", None),
    ("cobcat.localize.surface_localization_group", "localize.surface_localization_group", None),
    ("cobcat.cob1.diagram_from_json", "cob1.diagram_from_json", None),
    ("cobcat.cob1.compose_planar", "cob1.compose_planar", None),
    ("cobcat.cob1.f_invariant", "cob1.f_invariant", None),
    ("cobcat.cob1.reduce_endomorphism", "cob1.reduce_endomorphism", None),
    ("cobcat.cob1.matching_from_json", "cob1.matching_from_json", None),
    ("cobcat.cob2.surface_from_json", "cob2.surface_from_json", None),
    ("cobcat.cob2.compose_surface", "cob2.compose_surface", None),
    ("cobcat.cob2.surface_to_json", "cob2.surface_to_json", None),
    ("cobcat.cob2.surface_class", "cob2.surface_class", None),
    ("cobcat.cob2.euler_tqft", "cob2.euler_tqft", None),
    ("cobcat.cob2.is_k_connected", "cob2.is_k_connected", None),
    ("cobcat.cob2.oriented_class", "cob2.oriented_class", None),
    ("cobcat.cob2.chi_of_class", "cob2.chi_of_class", None),
    ("cobcat.cob2.class_names", "cob2.class_names", None),
    ("cobcat.cob2.is_nullbordant", "cob2.is_nullbordant", None),
    ("cobcat.cob2.unoriented_class", "cob2.unoriented_class", None),
    ("cobcat.cob1.restricted_from_matching", "cob1.restricted_from_matching", None),
    ("cobcat.exactmath.GroupPresentation.render_word", "exactmath.GroupPresentation.render_word", None),
    ("cobcat.monoidal.picard_from_json", "monoidal.picard_from_json", None),
    ("cobcat.monoidal.k_invariant", "monoidal.k_invariant", None),
    ("cobcat.monoidal.picard_equivalent", "monoidal.picard_equivalent", None),
    ("cobcat.monoidal.cob1_picard", "monoidal.cob1_picard", None),
    ("cobcat.monoidal.frobenius_from_json", "monoidal.frobenius_from_json", None),
    ("cobcat.monoidal.extend_to_full", "monoidal.extend_to_full", None),
    ("cobcat.monoidal.evaluate_restricted", "monoidal.evaluate_restricted", None),
    ("cobcat.monoidal.FullEvaluator.evaluate", "monoidal.FullEvaluator.evaluate", _count_entries),
    ("cobcat.monoidal.mat_to_json", "monoidal.mat_to_json", None),
)

LAYERS = (
    ("monoidal.FullEvaluator.evaluate.s", "monoidal.FullEvaluator.evaluate", "s"),
    ("monoidal.picard_equivalent.s", "monoidal.picard_equivalent", "s"),
    ("cli.dispatch.s", "cli.dispatch", "s"),
    ("cli.overhead_s", "cli.dispatch", "self_s"),
    ("cli.load.s", "cli.load", "s"),
    ("fincat.from_json.s", "fincat.from_json", "s"),
    ("fincat.validate_category.s", "fincat.validate_category", "s"),
    ("cli.serialize_s", "cli.serialize", "s"),
)

COUNTS = ("monoidal.evaluate.entries", "monoidal.evaluate.nonzero")


# -- inputs ------------------------------------------------------------------


def planar_word(rng, m: int, length: int) -> dict:
    """A random cup/cap word on m incoming strands."""
    count, slices = m, []
    for _ in range(length):
        if count >= 2 and rng.random() < 0.5:
            slices.append(["cap", rng.randrange(count - 1)])
            count -= 2
        else:
            slices.append(["cup", rng.randrange(count + 1)])
            count += 2
    return {"m": m, "slices": slices}


def word_outputs(word: dict) -> int:
    return word["m"] + sum(2 if kind == "cup" else -2 for kind, _ in word["slices"])


def random_forest(rng, nodes: int) -> list:
    """A random nesting forest; a tree is the tuple of its children."""
    children: list[list] = [[] for _ in range(nodes)]
    roots = []
    for k in range(nodes):
        parent = rng.randrange(-1, k)
        (roots if parent < 0 else children[parent]).append(k)

    def tree(k):
        return tuple(tree(c) for c in children[k])

    return [tree(k) for k in roots]


def forest_word(forest) -> dict:
    """A closed word drawing each circle with its children nested inside."""
    slices: list = []

    def draw(tree, pos):
        slices.append(["cup", pos])
        for child in tree:
            draw(child, pos + 1)
        slices.append(["cap", pos])

    for tree in forest:
        draw(tree, 0)
    return {"m": 0, "slices": slices}


def random_surface(rng, src: list[str], tgt: list[str], closed: int, outgoing: bool = False) -> dict:
    """Pieces owning the given circles plus ``closed`` closed pieces.  With
    ``outgoing``, each piece that owns circles owns an outgoing one."""
    circles = [("in", c) for c in src] + [("out", c) for c in tgt]
    rng.shuffle(circles)
    if outgoing:  # one outgoing circle to each piece first
        circles.sort(key=lambda c: c[0] != "out")
        pieces = rng.randint(1, len(tgt))
    else:
        pieces = rng.randint(1, len(circles)) if circles else 0
    owner = list(range(pieces)) + [rng.randrange(pieces) for _ in circles[pieces:]]
    comps = []
    for k in range(pieces + closed):
        own = [c for c, o in zip(circles, owner) if o == k]
        entry: dict = {
            "orientable": rng.random() < 0.6,
            "in": sorted(c for side, c in own if side == "in"),
            "out": sorted(c for side, c in own if side == "out"),
        }
        if entry["orientable"]:
            entry["genus"] = rng.randint(0, 2)
            if own:
                entry["eps"] = {c: rng.choice((1, -1)) for _, c in own}
        else:
            entry["crosscaps"] = rng.randint(1, 3)
        comps.append(entry)
    return {"src": src, "tgt": tgt, "components": comps}


def surface_chi(doc: dict) -> int:
    total = 0
    for c in doc["components"]:
        closed = 2 - 2 * c["genus"] if c["orientable"] else 2 - c["crosscaps"]
        total += closed - len(c.get("in", ())) - len(c.get("out", ()))
    return total


def class_name(comp: dict) -> str:
    if comp["orientable"]:
        g = comp["genus"]
        return ["S2", "T2"][g] if g < 2 else f"Sigma{g}"
    h = comp["crosscaps"]
    return ["RP2", "K"][h - 1] if h < 3 else f"N{h}"


def random_matching(rng, m: int, n: int, caps: int, cups: int) -> dict:
    """Points 0..m-1 incoming, m..m+n-1 outgoing; ``caps`` pairs of incoming
    points, ``cups`` pairs of outgoing ones, the rest through-strands."""
    ins, outs = list(range(m)), list(range(m, m + n))
    rng.shuffle(ins)
    rng.shuffle(outs)
    pairs = [ins[2 * i : 2 * i + 2] for i in range(caps)]
    pairs += [outs[2 * i : 2 * i + 2] for i in range(cups)]
    pairs += [[a, b] for a, b in zip(ins[2 * caps :], outs[2 * cups :])]
    return {"m": m, "n": n, "pairs": sorted(sorted(p) for p in pairs), "circles": 0}


def glue(w1: dict, w2: dict) -> dict:
    """w2 after w1, traced point to point; closed loops become circles."""
    m, k, n = w1["m"], w1["n"], w2["n"]
    arc = {}
    for a, b in w1["pairs"]:
        arc[("1", a)], arc[("1", b)] = ("1", b), ("1", a)
    for a, b in w2["pairs"]:
        arc[("2", a)], arc[("2", b)] = ("2", b), ("2", a)

    def across(node):  # the same middle point seen from the other side
        side, p = node
        return ("2", p - m) if side == "1" else ("1", p + m)

    def middle(node):
        side, p = node
        return (side == "1" and p >= m) or (side == "2" and p < k)

    def label(node):
        side, p = node
        return p if side == "1" else m + p - k

    ends = [("1", p) for p in range(m)] + [("2", p) for p in range(k, k + n)]
    seen, pairs = set(), []
    for start in ends:
        if start in seen:
            continue
        node = arc[start]
        while middle(node):
            seen.update((node, across(node)))
            node = arc[across(node)]
        seen.update((start, node))
        pairs.append(sorted((label(start), label(node))))
    loops = 0
    for p in range(m, m + k):
        node = ("1", p)
        if node in seen:
            continue
        loops += 1
        while node not in seen:
            seen.update((node, across(node)))
            node = arc[across(node)]
    circles = w1["circles"] + w2["circles"] + loops
    return {"m": m, "n": n, "pairs": sorted(pairs), "circles": circles}


class Field:
    """Q (p = 0) or F_p, for the benchmark's own linear algebra."""

    def __init__(self, p: int):
        self.p = p

    def read(self, v):
        return Fraction(str(v)) if self.p == 0 else int(v) % self.p

    def norm(self, v):
        return v if self.p == 0 else v % self.p

    def inverse(self, rows):
        """Gauss-Jordan inverse, or None when singular."""
        n = len(rows)
        a = [[self.read(v) for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if self.norm(a[r][col])), None)
            if pivot is None:
                return None
            a[col], a[pivot] = a[pivot], a[col]
            inv = 1 / a[col][col] if self.p == 0 else pow(a[col][col], -1, self.p)
            a[col] = [self.norm(v * inv) for v in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [self.norm(x - f * y) for x, y in zip(a[r], a[col])]
        return [row[n:] for row in a]


def full_pairing(rng, field: Field) -> list[list[int]]:
    """A symmetric, nondegenerate pairing with no zero entry in it or in its
    inverse, so every frob eval matrix has a seed-independent zero pattern."""
    while True:
        values = [v for v in range(-4, 5) if field.norm(v)] if field.p == 0 else list(range(1, field.p))
        b = [[0] * DIM for _ in range(DIM)]
        for i in range(DIM):
            for j in range(i, DIM):
                b[i][j] = b[j][i] = rng.choice(values)
        inv = field.inverse(b)
        if inv is not None and all(v for row in inv for v in row):
            return b


def degenerate_pairing(rng) -> list[list[int]]:
    """x x^T + y y^T: symmetric of rank at most 2 < DIM."""
    x = [rng.randint(-3, 3) for _ in range(DIM)]
    y = [rng.randint(-3, 3) for _ in range(DIM)]
    return [[x[i] * x[j] + y[i] * y[j] for j in range(DIM)] for i in range(DIM)]


def entry(w: dict, b, cap, field: Field, row: int, col: int):
    """One matrix entry from the 1-d field theory's definition: caps insert
    the inverse pairing, cups the pairing, circles the dimension."""
    m, n = w["m"], w["n"]
    legs = [(col // DIM ** (m - 1 - i)) % DIM for i in range(m)]
    legs += [(row // DIM ** (n - 1 - i)) % DIM for i in range(n)]
    value = field.norm(Fraction(DIM) ** w["circles"] if field.p == 0 else DIM ** w["circles"])
    for a, c in w["pairs"]:
        if c < m:
            value *= cap[legs[a]][legs[c]]
        elif a >= m:
            value *= b[legs[a]][legs[c]]
        elif legs[a] != legs[c]:
            return 0
        value = field.norm(value)
    return value


def matmul(x, y, field: Field):
    cols = list(zip(*y))
    return [[field.norm(sum(a * c for a, c in zip(row, col))) for col in cols] for row in x]


# -- the job list ------------------------------------------------------------


def generate(names: gen.Names) -> tuple[dict[str, object], dict]:
    """Input documents by file stem, and the facts the checks need."""
    rng = names.rng
    docs: dict[str, object] = {}
    facts: dict = {}

    docs["bz_a"], facts["bz_a"] = gen.cyclic_group(names, N_A)
    docs["bz_b"], _ = gen.cyclic_group(names, N_B)
    broken, rot = gen.cyclic_group(names, N_BROKEN)
    for row in broken["compose"]:
        if row[:2] == [rot[1], rot[1]]:
            row[2] = rot[0]
    docs["broken"] = broken
    docs["cone"] = gen.cone(names, 3)
    docs["circle_poset"] = gen.proper_subsets(names, 3)
    docs["parallel"] = gen.parallel_arrows(names, ARROWS)
    docs["forest_poset"] = gen.disjoint_union(
        [gen.chain(names, 4), gen.proper_subsets(names, 3), gen.chain(names, 2)]
    )

    for tag in ("x", "y"):
        a = planar_word(rng, 2, 5)
        b = planar_word(rng, word_outputs(a), 5)
        docs[f"word_{tag}1"], docs[f"word_{tag}2"] = a, b
        docs[f"word_{tag}12"] = {"m": a["m"], "slices": a["slices"] + b["slices"]}
    for i in range(3):
        forest = random_forest(rng, 5)
        docs[f"closed_{i}"] = forest_word(forest)
        facts[f"closed_{i}"] = sum(gen.alternating_nodes(t) for t in forest)

    for tag in ("x", "y"):
        src, mid, tgt = names.many(2, "a"), names.many(2, "c"), names.many(1, "b")
        docs[f"surf_{tag}1"] = random_surface(rng, src, mid, 1)
        docs[f"surf_{tag}2"] = random_surface(rng, mid, tgt, 1)
    docs["surf_out"] = random_surface(rng, names.many(2, "a"), names.many(3, "b"), 0, outgoing=True)
    for i in range(2):
        docs[f"closed_surf_{i}"] = random_surface(rng, [], [], 2)

    for tag, value in (("twisted", (PRIME - 1) // 2), ("plain", 0)):
        docs[f"lines_{tag}"] = {
            "pi0": gen.group(0, [2]),
            "pi1": gen.group(0, [PRIME - 1]),
            "c": [[[value]]],
            "h": [],
        }

    q, f7 = Field(0), Field(7)
    docs["theory_q"] = {"field": "Q", "pairing": full_pairing(rng, q)}
    docs["theory_f7"] = {"field": "F7", "pairing": full_pairing(rng, f7)}
    docs["theory_degenerate"] = {"field": "Q", "pairing": degenerate_pairing(rng)}
    docs["big_1"] = random_matching(rng, 5, 5, 1, 1)
    docs["big_2"] = random_matching(rng, 5, 5, 2, 2)
    docs["step_1"] = random_matching(rng, 3, 3, 1, 1)
    docs["step_2"] = random_matching(rng, 3, 3, 1, 1)
    docs["step_12"] = glue(docs["step_1"], docs["step_2"])
    docs["loop"] = {"m": 0, "n": 0, "pairs": [], "circles": 1}
    docs["identity_2"] = {"m": 2, "n": 2, "pairs": [[0, 2], [1, 3]], "circles": 0}

    docs["bad_float"] = {"m": 2.7, "slices": [["cup", 0.9], ["cap", 0]]}
    docs["bad_bool"] = {"m": True, "slices": [["cup", 0]]}
    docs["deep"] = "[" * NEST_DEPTH + "]" * NEST_DEPTH  # written as is
    return docs, facts


def prepare(cobcat, paths: dict[str, str], docs: dict, facts: dict) -> tuple[list[Job], object]:
    """Parse the category inputs, and list the jobs with their checks.

    Returns the jobs and the cross-job check that runs after the first pass.
    """
    # "broken" breaks associativity, so from_json refuses it.
    for stem in ("bz_a", "bz_b", "cone", "circle_poset", "parallel", "forest_poset"):
        with open(paths[stem], encoding="utf-8") as fh:
            cobcat.fincat.from_json(json.load(fh))

    cli = cobcat.cli  # looked up per call, so tracing can wrap dispatch
    jobs: list[Job] = []

    def add(name, argv, check):
        def run(argv=argv):
            report = cli.dispatch(argv)
            return report, serialize(report)

        def checked(out, check=check):
            report, _ = out
            if report.exit_code != 0:
                raise Failed(f"exit {report.exit_code}: {report.error}")
            return check(report.result)

        jobs.append(Job(name, run, checked, _text))

    def refuse(name, argv):
        """The input must be refused with exit code 1 and a JSON error."""

        def run(argv=argv):
            report = cli.dispatch(argv)
            return report, serialize(report)

        def checked(out):
            report, text = out
            if report.exit_code != 1 or "error" not in json.loads(text):
                raise Failed(f"accepted malformed input: exit {report.exit_code}, {text[:120]}")
            return None

        jobs.append(Job(name, run, checked, _text))

    def expect(want):
        return lambda got: None if got == want else f"{got}, expected {want}"

    P = paths

    # Finite categories.
    for stem, want in (
        ("bz_a", gen.cyclic_homology(N_A, 3)),
        ("bz_b", gen.cyclic_homology(N_B, 3)),
        ("cone", [gen.group(1), gen.group(), gen.group()]),
        ("circle_poset", gen.sphere_homology(1, 3)),
    ):
        add(f"cat homology {stem}", ["cat", "homology", "--cap", "3", P[stem]], expect({"H": want}))
    add("cat homology parallel", ["cat", "homology", "--cap", "2", P["parallel"]],
        expect({"H": [gen.group(1), gen.group(ARROWS - 1)]}))
    for stem in ("forest_poset", "cone", "bz_a"):
        add(f"cat pi0 {stem}", ["cat", "pi0", P[stem]], expect({"components": gen.components(docs[stem])}))
    base_a = docs["bz_a"]["objects"][0]
    base_p = docs["parallel"]["morphisms"][2]["src"]
    add("cat pi1 bz_a", ["cat", "pi1", "--base", base_a, P["bz_a"]],
        lambda r: expect(gen.group(0, [N_A]))(r["abelianized"]))
    add("cat pi1 parallel", ["cat", "pi1", "--base", base_p, P["parallel"]],
        lambda r: expect(gen.group(ARROWS - 1))(r["abelianized"]))
    add("cat validate bz_a", ["cat", "validate", P["bz_a"]],
        expect({"groupoid": True, "problems": [], "valid": True}))
    add("cat validate cone", ["cat", "validate", P["cone"]],
        expect({"groupoid": False, "problems": [], "valid": True}))
    refuse("cat validate broken", ["cat", "validate", P["broken"]])

    rot = facts["bz_a"]

    def check_aut(r):
        if r["abelianized"] != gen.group(0, [N_A]):
            return f"abelianized {r['abelianized']}, expected Z/{N_A}"
        (v1, mod), = r["loop_classes"][rot[1]]
        if mod != N_A or math.gcd(v1, N_A) != 1:
            return f"rotation by 1 has class {v1} mod {mod}, not a generator of Z/{N_A}"
        for j, name in enumerate(rot):
            if r["loop_classes"][name] != [[j * v1 % N_A, N_A]]:
                return f"class of rotation by {j} is {r['loop_classes'][name]}, not {j} times {v1}"
        return None

    add("localize aut bz_a", ["localize", "aut", "--base", base_a, P["bz_a"]], check_aut)

    def check_surfaces(r):
        if r["group"] != "Z" or set(r["classes"]) != gen.surface_names(-2):
            return f"group {r['group']} on classes {sorted(r['classes'])}"
        bad = {c: v for c, v in r["classes"].items() if v != gen.class_chi(c)}
        return f"classes off their Euler characteristic: {bad}" if bad else None

    add("localize surfaces", ["localize", "surfaces", "--max-chi", "2"], check_surfaces)
    add("relations bz_b", ["relations", P["bz_b"]],
        expect({"checked": N_B**4, "components": 1, "nonvanishing": 0}))
    forest_doc = docs["forest_poset"]
    add("relations forest_poset", ["relations", P["forest_poset"]],
        expect({"checked": len(forest_doc["objects"]),
                "components": len(gen.components(forest_doc)), "nonvanishing": 0}))

    # Planar 1-cobordisms.
    for tag in ("x", "y"):
        for part in ("1", "2", "12"):
            add(f"cob1 f word_{tag}{part}", ["cob1", "f", P[f"word_{tag}{part}"]], lambda r: None)
        add(f"cob1 compose word_{tag}", ["cob1", "compose", P[f"word_{tag}1"], P[f"word_{tag}2"]],
            expect(docs[f"word_{tag}12"]))
    for i in range(3):
        add(f"cob1 reduce closed_{i}", ["cob1", "reduce", P[f"closed_{i}"]], expect(facts[f"closed_{i}"]))
    add("cob1 f closed_0", ["cob1", "f", P["closed_0"]], expect(facts["closed_0"]))

    # Surface cobordisms.
    for tag in ("x", "y"):
        first, second = docs[f"surf_{tag}1"], docs[f"surf_{tag}2"]

        def check_compose(r, first=first, second=second):
            if r["src"] != first["src"] or r["tgt"] != second["tgt"]:
                return f"boundary {r['src']} -> {r['tgt']}"
            got, want = surface_chi(r), surface_chi(first) + surface_chi(second)
            return None if got == want else f"chi {got}, expected {want} = chi sum of the pieces"

        add(f"cob2 compose surf_{tag}", ["cob2", "compose", P[f"surf_{tag}1"], P[f"surf_{tag}2"]], check_compose)
        for part in ("1", "2"):
            stem = f"surf_{tag}{part}"
            add(f"cob2 euler {stem}", ["cob2", "euler", P[stem]], expect({"euler": surface_chi(docs[stem])}))
    # surf_x1 and surf_x2 have a closed piece, so kcheck is False on them
    # and True on surf_out.
    for stem in ("surf_x1", "surf_x2", "surf_out"):
        touches = all(c["out"] for c in docs[stem]["components"])
        add(f"cob2 kcheck {stem}", ["cob2", "kcheck", "--k", "0", P[stem]],
            expect({"k": 0, "k_connected": touches}))
    for i in range(2):
        comps = docs[f"closed_surf_{i}"]["components"]
        chi = sum(gen.class_chi(class_name(c)) for c in comps)

        def check_class(r, comps=comps, chi=chi):
            oriented = 0 if all(c["orientable"] for c in comps) else None
            want = (sorted(class_name(c) for c in comps), chi, chi % 2, chi % 2 == 0, oriented)
            got = (sorted(r["classes"]), r["chi"], r["unoriented"], r["nullbordant"], r["oriented"])
            return None if got == want else f"{got}, expected {want}"

        add(f"cob2 class closed_surf_{i}", ["cob2", "class", P[f"closed_surf_{i}"]], check_class)

    # Picard data: graded lines over F_p; -1 has class (p-1)/2 in Z/(p-1).
    minus_one = [(PRIME - 1) // 2]
    for element in ("1", "3"):
        add(f"picard k twisted {element}", ["picard", "k", "--input", P["lines_twisted"], "--element", element],
            expect({"element": [1], "k": minus_one}))
    add("picard k plain", ["picard", "k", "--input", P["lines_plain"], "--element", "1"],
        expect({"element": [1], "k": [0]}))
    add("picard equivalent same", ["picard", "equivalent", P["lines_twisted"], P["lines_twisted"]],
        expect({"equivalent": True}))
    add("picard equivalent differ", ["picard", "equivalent", P["lines_twisted"], P["lines_plain"]],
        expect({"equivalent": False}))

    def check_cob1(r):
        got = (r["pi0"], r["pi1"], r["k"])
        want = (gen.group(0, [2]), gen.group(1), [0])
        return None if got == want else f"{got}, expected {want}"

    add("picard cob1", ["picard", "cob1", "--max-points", "6"], check_cob1)

    # Field theories from a pairing.
    fields = {"theory_q": Field(0), "theory_f7": Field(7), "theory_degenerate": Field(0)}
    for stem, field in fields.items():
        b = docs[stem]["pairing"]
        extends = field.inverse(b) is not None
        circle = DIM % field.p if field.p else DIM
        want = {"circle": circle if extends else None, "dim": DIM, "extends": extends}
        add(f"frob extend {stem}", ["frob", "extend", P[stem]],
            lambda r, want=want: expect(want)({key: r[key] for key in want}))

    def check_eval(theory: str, w: dict, full: bool):
        field = fields[theory]
        b = [[field.read(v) for v in row] for row in docs[theory]["pairing"]]
        cap = field.inverse(b)
        rows, cols = DIM ** w["n"], DIM ** w["m"]
        caps = sum(1 for a, c in w["pairs"] if c < w["m"])
        cups = sum(1 for a, c in w["pairs"] if a >= w["m"])
        sampler = random.Random(0)

        def check(r):
            mat = [[field.read(v) for v in row] for row in r["matrix"]]
            if (r["rows"], r["cols"], len(mat), len(mat[0])) != (rows, cols, rows, cols):
                return f"shape {r['rows']} x {r['cols']}, expected {rows} x {cols}"
            if full:
                nonzero = sum(1 for row in mat for v in row if v)
                want = DIM ** (w["m"] + 2 * cups)
                if nonzero != want:
                    return f"{nonzero} non-zero entries, expected {want} from {caps} caps, {cups} cups"
                cells = [(sampler.randrange(rows), sampler.randrange(cols)) for _ in range(48)]
            else:
                cells = itertools.product(range(rows), range(cols))
            for i, j in cells:
                if mat[i][j] != entry(w, b, cap, field, i, j):
                    return f"entry ({i}, {j}) is {mat[i][j]}, expected {entry(w, b, cap, field, i, j)}"
            return None

        return check

    for theory, stem in (("theory_q", "big_1"), ("theory_f7", "big_2")):
        add(f"frob eval {theory} {stem}", ["frob", "eval", P[theory], P[stem]],
            check_eval(theory, docs[stem], True))
    for stem in ("step_1", "step_2", "step_12"):
        add(f"frob eval theory_q {stem}", ["frob", "eval", P["theory_q"], P[stem]],
            check_eval("theory_q", docs[stem], False))
    for theory in ("theory_q", "theory_f7"):
        add(f"frob eval {theory} loop", ["frob", "eval", P[theory], P["loop"]],
            expect({"cols": 1, "matrix": [[DIM]], "rows": 1}))
    identity = [[int(i == j) for j in range(DIM**2)] for i in range(DIM**2)]
    add("frob eval theory_f7 identity_2", ["frob", "eval", P["theory_f7"], P["identity_2"]],
        expect({"cols": DIM**2, "matrix": identity, "rows": DIM**2}))

    refuse("cob1 f bad_float", ["cob1", "f", P["bad_float"]])
    refuse("cob1 f bad_bool", ["cob1", "f", P["bad_bool"]])
    refuse("cat validate deep", ["cat", "validate", P["deep"]])

    def check_pass(outputs: dict) -> list[str]:
        """Properties across jobs: f is additive under composition, and
        frob eval is functorial.  A property is skipped when one of its jobs
        failed, since the failure is counted already."""
        problems = []

        def result(name):
            report = outputs[name][0] if name in outputs else None
            return report.result if report is not None and report.exit_code == 0 else None

        for tag in ("x", "y"):
            f1, f2, f12 = (result(f"cob1 f word_{tag}{part}") for part in ("1", "2", "12"))
            if None not in (f1, f2, f12) and f12 != f1 + f2:
                problems.append(f"f(word_{tag}2 after word_{tag}1) = {f12}, but f values are {f1} and {f2}")
        field = fields["theory_q"]
        evals = [result(f"frob eval theory_q {s}") for s in ("step_1", "step_2", "step_12")]
        if None in evals:
            return problems
        w1, w2, w12 = ([[field.read(v) for v in row] for row in r["matrix"]] for r in evals)
        if w12 != matmul(w2, w1, field):
            problems.append("frob eval of step_2 after step_1 is not the product of their matrices")
        return problems

    return jobs, check_pass


def _text(out) -> str:
    return out[1]
