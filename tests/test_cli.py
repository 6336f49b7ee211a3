import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cobcat
from cobcat import cli, cob1, cob2, fincat, limits, nerve
from cobcat.cli import RunReport, dispatch, main
from fincat_helpers import cyclic_group_category, disjoint_union, product, to_json
from localize_oracles import brute_force_relations


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "s2poset": write(tmp_path, "s2poset.json", to_json(fincat.subset_poset_category(4))),
        "parallel": write(tmp_path, "pp.json", to_json(fincat.parallel_pair())),
        "cyclic3": write(tmp_path, "cyc3.json", to_json(cyclic_group_category(3))),
        "cyclic5": write(tmp_path, "cyc5.json", to_json(cyclic_group_category(5))),
        "terminal": write(tmp_path, "pt.json", to_json(fincat.terminal_category())),
        "circle": write(tmp_path, "circle.json", cob1.planar_circle().to_json()),
        "nested": write(tmp_path, "nested.json", cob1.planar_nested_pair().to_json()),
        "cup": write(tmp_path, "cup.json", cob1.cup_matching().to_json()),
        "cap": write(tmp_path, "cap.json", cob1.cap_matching().to_json()),
        "theory": write(tmp_path, "theory.json", {"field": "Q", "pairing": [[1, 0], [0, 1]]}),
        "theory_f3": write(tmp_path, "theory_f3.json", {"field": "F3", "pairing": [[0, 1], [1, 0]]}),
        "degenerate": write(tmp_path, "deg.json", {"field": "Q", "pairing": [[0, 0], [0, 1]]}),
        "svect": write(tmp_path, "svect.json", {
            "pi0": {"rank": 0, "torsion": [2]},
            "pi1": {"rank": 0, "torsion": [4]},
            "c": [[[2]]],
            "h": [],
        }),
        "graded": write(tmp_path, "graded.json", {
            "pi0": {"rank": 0, "torsion": [2]},
            "pi1": {"rank": 0, "torsion": [4]},
            "c": [[[0]]],
            "h": [],
        }),
        "cylinder": write(tmp_path, "cyl.json", cob2.surface_to_json(cob2.identity_surface(("c",)))),
        "torus": write(tmp_path, "torus.json", cob2.surface_to_json(cob2.torus_endo())),
        "klein": write(tmp_path, "klein.json", cob2.surface_to_json(cob2.klein_endo())),
        "disc": write(tmp_path, "disc.json", cob2.surface_to_json(cob2.disc("c"))),
        "capdisc": write(tmp_path, "capdisc.json", cob2.surface_to_json(cob2.cap_disc("c"))),
    }


def ok(*argv) -> object:
    report = dispatch(argv)
    assert report.exit_code == 0, report.error
    assert report.error is None
    return report.result


@st.composite
def relation_categories(draw):
    """Cyclic groups, parallel pairs and subset posets, and products and
    disjoint unions of two of them, with at most 50 morphisms."""

    def atom():
        kind = draw(st.sampled_from(["cyclic", "parallel", "subsets"]))
        if kind == "cyclic":
            return cyclic_group_category(draw(st.integers(1, 4)))
        if kind == "subsets":
            return fincat.subset_poset_category(draw(st.integers(2, 4)))
        return fincat.parallel_pair()

    shape = draw(st.sampled_from(["atom", "product", "union"]))
    if shape == "atom":
        return atom()
    c = product(atom(), atom()) if shape == "product" else disjoint_union(atom(), atom())
    assume(len(c.morphisms) <= 50)
    return c


def assert_relations_match_oracle(c, path, base=None):
    """The command's report, over every component or the base's, against
    the brute-force loop over every commuting square."""
    bases = [comp[0] for comp in nerve.pi0(c)] if base is None else [base]
    checked, nonvanishing = brute_force_relations(c, bases)
    assert nonvanishing == 0
    argv = ("relations", path) if base is None else ("relations", "--base", base, path)
    assert ok(*argv) == {"checked": checked, "components": len(bases), "nonvanishing": 0}


class TestCat:
    def test_homology_sphere_poset(self, files):
        result = ok("cat", "homology", "--cap", "3", files["s2poset"])
        assert result == {"H": [
            {"rank": 1, "torsion": []},
            {"rank": 0, "torsion": []},
            {"rank": 1, "torsion": []},
        ]}

    def test_homology_terminal_object(self, files):
        result = ok("cat", "homology", "--cap", "3", files["terminal"])
        assert result == {"H": [
            {"rank": 1, "torsion": []},
            {"rank": 0, "torsion": []},
            {"rank": 0, "torsion": []},
        ]}

    def test_pi1_parallel_pair(self, files):
        result = ok("cat", "pi1", "--base", "a", files["parallel"])
        assert result["abelianized"] == {"rank": 1, "torsion": []}
        assert result["generators"] == ["f", "g"]

    def test_pi0(self, files):
        assert ok("cat", "pi0", files["parallel"]) == {"components": [["a", "b"]]}

    def test_validate(self, files):
        result = ok("cat", "validate", files["cyclic3"])
        assert result == {"groupoid": True, "problems": [], "valid": True}

    def test_validate_checks_the_axioms_once(self, files, monkeypatch):
        calls = []
        check = fincat.validate_category
        monkeypatch.setattr(fincat, "validate_category", lambda c: calls.append(c) or check(c))
        assert ok("cat", "validate", files["cyclic3"])["valid"]
        assert len(calls) == 1

    def test_validate_broken_names_the_first_problem(self, tmp_path):
        # r1 r1 = r0 breaks associativity in the group of order 3.
        doc = to_json(cyclic_group_category(3))
        doc["compose"] = [[f, g, "r0" if (f, g) == ("r1", "r1") else h] for f, g, h in doc["compose"]]
        c = cyclic_group_category(3)
        broken = dataclasses.replace(c, table={**c.table, (1, 1): 0})
        report = dispatch(("cat", "validate", write(tmp_path, "broken.json", doc)))
        assert report.exit_code == 1
        assert report.error == f"ValueError: {fincat.validate_category(broken)[0]}"

    def test_missing_file_is_domain_error(self):
        report = dispatch(("cat", "pi0", "/nonexistent/file.json"))
        assert report.exit_code == 1
        assert report.result is None

    def test_cell_ceiling_exit_code(self, files, monkeypatch):
        monkeypatch.setenv("COBCAT_MAX_CELLS", "5")
        report = dispatch(("cat", "homology", files["s2poset"]))
        assert report.exit_code == 2
        assert "5" in report.error

    def test_max_cells_is_unrecognized(self, files):
        report = dispatch(("cat", "homology", "--max-cells", "5", files["s2poset"]))
        assert report.exit_code == 1
        assert report.error.startswith("unrecognized command line")

    def test_bad_basepoint(self, files):
        report = dispatch(("cat", "pi1", "--base", "zzz", files["parallel"]))
        assert report.exit_code == 1

    def test_deeply_nested_input_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["cat", "validate", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert "nested too deeply" in payload["error"]

    @pytest.mark.parametrize(
        "field, value",
        [("objects", "ab"), ("compose", ["iii", "jjj"]), ("identities", ["ai", "bj"])],
    )
    def test_strings_are_not_lists(self, tmp_path, field, value):
        doc = {
            "objects": ["a", "b"],
            "morphisms": [{"id": "i", "src": "a", "tgt": "a"}, {"id": "j", "src": "b", "tgt": "b"}],
            "identities": {"a": "i", "b": "j"},
            "compose": [["i", "i", "i"], ["j", "j", "j"]],
        }
        assert ok("cat", "validate", write(tmp_path, "list.json", doc))["valid"]
        doc[field] = value
        report = dispatch(("cat", "validate", write(tmp_path, "str.json", doc)))
        assert report.exit_code == 1
        assert set(report.payload()) == {"command", "error"}

    def test_cap_counts_against_the_cell_ceiling(self, files, monkeypatch):
        monkeypatch.setenv("COBCAT_MAX_CELLS", "10")
        report = dispatch(("cat", "homology", "--cap", "10", files["terminal"]))
        assert report.exit_code == 2
        assert "--cap 10" in report.error and "COBCAT_MAX_CELLS" in report.error

    def test_nerve_layers_are_priced_before_any_is_built(self, files, capsys, monkeypatch):
        # BZ/3 has 2^p cells in degree p; the running total passes 10^6 at
        # degree 19, and all of it is counted before a layer is built.
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        start = time.perf_counter()
        assert main(["cat", "homology", "--cap", "100000", files["cyclic3"]]) == 2
        assert time.perf_counter() - start < 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert f"{2**20 - 1} cells at degree 19" in error and "ceiling of 1000000" in error

    def test_cap_far_above_the_last_cell(self, files, capsys, monkeypatch):
        # The one-object category has no cell above degree 0; each of the
        # 99,999 empty degrees reported costs a constant, serialization too.
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        argv = ["cat", "homology", "--cap", "100000", files["terminal"]]
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 0.4
        groups = ['{"rank": 1, "torsion": []}'] + ['{"rank": 0, "torsion": []}'] * 99999
        result = '{"H": [' + ", ".join(groups) + "]}"
        assert capsys.readouterr().out == f'{{"command": {json.dumps(argv)}, "result": {result}}}\n'

    def test_failed_self_check_is_internal_error(self, files, monkeypatch):
        real = nerve._faces

        def broken(c, chain):
            # Every 1-chain's boundary set to one object, so the Morse
            # boundaries d_1 . d_2 != 0.
            return {0: 1} if len(chain) == 1 else real(c, chain)

        monkeypatch.setattr(nerve, "_faces", broken)
        report = dispatch(("cat", "homology", "--cap", "3", files["cyclic3"]))
        assert report.exit_code == 3
        assert report.error.startswith("internal error: AssertionError: boundary squared nonzero")

    @pytest.mark.parametrize(
        "flaw, check",
        [
            ("partner not collapsible", "matched twice"),
            ("non-unit pair", "matched incidence 2"),
            ("two-cycle", "gradient flow cycle"),
            ("critical non-Anick chain", "not an Anick chain"),
        ],
        ids=["partner not collapsible", "non-unit pair", "two-cycle", "critical non-Anick chain"],
    )
    def test_broken_matching_is_internal_error(self, files, monkeypatch, capsys, flaw, check):
        real = nerve._collapsing_scheme

        def broken(c, cap):
            # In BZ/3, d[r2|r2] = 2[r2] - [r1], and d[r1|r2] = [r2] + [r1]
            # because r1 r2 is the identity, and likewise d[r2|r1].  Each
            # flaw reclassifies a few chains, and the faces of the critical
            # [r1|r2] are projected through them.  Unchecked, the first flaw
            # would answer H_1 = Z, not Z/3.
            chains, classify = real(c, cap)
            r1, r2 = (c.morphisms.index(f"r{k}") for k in (1, 2))
            kinds = {
                "partner not collapsible": {(r2,): (1, (r1, r2))},
                "non-unit pair": {(r2,): (1, (r2, r2)), (r2, r2): (-1, (r2,))},
                "two-cycle": {
                    (r1,): (1, (r1, r2)),
                    (r1, r2): (-1, (r1,)),
                    (r2,): (1, (r2, r1)),
                    (r2, r1): (-1, (r2,)),
                },
                "critical non-Anick chain": {(r2,): (0, None)},
            }[flaw]
            return chains, lambda chain: kinds.get(chain) or classify(chain)

        monkeypatch.setattr(nerve, "_collapsing_scheme", broken)
        assert main(["cat", "homology", "--cap", "3", files["cyclic3"]]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert "result" not in payload
        assert payload["error"].startswith("internal error: AssertionError: ")
        assert check in payload["error"]

    @pytest.mark.parametrize(
        "stem, result",
        [
            (
                "cyclic5",
                '{"H": [{"rank": 1, "torsion": []}, {"rank": 0, "torsion": [5]}, '
                '{"rank": 0, "torsion": []}, {"rank": 0, "torsion": [5]}]}',
            ),
            (
                "s2poset",
                '{"H": [{"rank": 1, "torsion": []}, {"rank": 0, "torsion": []}, '
                '{"rank": 1, "torsion": []}, {"rank": 0, "torsion": []}]}',
            ),
        ],
    )
    def test_homology_cap4_golden_stdout(self, files, capsys, stem, result):
        # The bytes the full-boundary path printed.
        path = files[stem]
        assert main(["cat", "homology", "--cap", "4", path]) == 0
        command = json.dumps(["cat", "homology", "--cap", "4", path])
        assert capsys.readouterr().out == f'{{"command": {command}, "result": {result}}}\n'


class TestLocalize:
    def test_aut_cyclic(self, files):
        result = ok("localize", "aut", "--base", "*", files["cyclic3"])
        assert result["abelianized"] == {"rank": 0, "torsion": [3]}
        assert result["loop_classes"]["r0"] == [[0, 3]]
        value, modulus = result["loop_classes"]["r1"][0]
        assert modulus == 3 and value % 3 != 0
        doubled = (2 * value) % 3
        assert result["loop_classes"]["r2"] == [[doubled, 3]]

    def test_aut_builds_the_presentation_once(self, files, monkeypatch):
        calls = []
        real = nerve.fundamental_group
        monkeypatch.setattr(nerve, "fundamental_group", lambda c, base: calls.append(base) or real(c, base))
        assert ok("localize", "aut", "--base", "*", files["cyclic3"])["generators"] == ["r1", "r2"]
        assert calls == ["*"]

    def test_surfaces(self, files):
        result = ok("localize", "surfaces", "--max-chi", "4")
        assert result["group"] == "Z"
        assert result["classes"]["S2"] == 2
        assert result["classes"]["T2"] == 0
        assert result["classes"]["K"] == 0
        assert result["classes"]["RP2"] == 1


class TestCob1:
    def test_f_circle(self, files):
        assert ok("cob1", "f", files["circle"]) == 1

    def test_f_nested(self, files):
        assert ok("cob1", "f", files["nested"]) == 0

    def test_compose_round_trip(self, files):
        result = ok("cob1", "compose", files["circle"], files["circle"])
        again = cob1.diagram_from_json(result)
        assert again == cob1.compose_planar(cob1.planar_circle(), cob1.planar_circle())

    def test_compose_interface_mismatch(self, files):
        report = dispatch(("cob1", "compose", files["cup"], files["circle"]))
        assert report.exit_code == 1

    def test_reduce(self, files):
        assert ok("cob1", "reduce", files["nested"]) == 0

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": 2.7, "slices": [["cup", 0.9], ["cap", 0]]},
            {"m": True, "slices": [["cup", 0]]},
            {"m": "0", "slices": [["cup", 0]]},
            {"m": 0, "slices": [["cup", 0.0]]},
            {"m": 0, "slices": [["cup"]]},
            {"m": 0, "n": 2.0, "slices": [["cup", 0]]},
        ],
    )
    def test_non_integer_input_refused(self, tmp_path, doc):
        report = dispatch(("cob1", "f", write(tmp_path, "bad.json", doc)))
        assert report.exit_code == 1
        assert set(report.payload()) == {"command", "error"}


class TestCob2:
    def test_compose_round_trip(self, files):
        result = ok("cob2", "compose", files["cylinder"], files["cylinder"])
        again = cob2.surface_from_json(result)
        assert again == cob2.identity_surface(("c",))

    def test_euler(self, files):
        assert ok("cob2", "euler", files["disc"]) == {"euler": 1}
        assert ok("cob2", "euler", files["torus"]) == {"euler": 0}

    def test_class_torus(self, files):
        result = ok("cob2", "class", files["torus"])
        assert result["classes"] == ["T2"]
        assert result["nullbordant"] is True
        assert result["oriented"] == 0
        assert result["unoriented"] == 0
        assert result["chi"] == 0

    def test_class_klein(self, files):
        result = ok("cob2", "class", files["klein"])
        assert result["classes"] == ["K"]
        assert result["nullbordant"] is True
        assert result["oriented"] is None

    def test_class_needs_closed(self, files):
        report = dispatch(("cob2", "class", files["disc"]))
        assert report.exit_code == 1

    @pytest.mark.parametrize("flag", ["no", "", 1, 0, None])
    def test_orientable_must_be_boolean(self, tmp_path, flag):
        entry = {"orientable": flag, "genus": 1, "crosscaps": 1}
        doc = {"src": [], "tgt": [], "components": [entry]}
        report = dispatch(("cob2", "class", write(tmp_path, "s.json", doc)))
        assert report.exit_code == 1
        assert set(report.payload()) == {"command", "error"}

    @pytest.mark.parametrize(
        "doc",
        [
            {"src": "ab", "tgt": [], "components": [{"in": ["a", "b"]}]},
            {"src": [], "tgt": "ab", "components": [{"out": ["a", "b"]}]},
            {"src": ["a", "b"], "tgt": [], "components": [{"in": "ab"}]},
            {"src": [], "tgt": ["a", "b"], "components": [{"out": "ab"}]},
        ],
    )
    def test_circle_lists_must_be_arrays(self, tmp_path, doc):
        doc["components"][0].update(orientable=True, genus=0)
        report = dispatch(("cob2", "euler", write(tmp_path, "s.json", doc)))
        assert report.exit_code == 1
        assert set(report.payload()) == {"command", "error"}

    def test_kcheck(self, files):
        assert ok("cob2", "kcheck", "--k", "0", files["disc"]) == {
            "k": 0,
            "k_connected": True,
        }
        assert ok("cob2", "kcheck", "--k", "0", files["capdisc"]) == {
            "k": 0,
            "k_connected": False,
        }


class TestPicard:
    def test_k(self, files):
        result = ok("picard", "k", "--input", files["svect"], "--element", "1")
        assert result == {"element": [1], "k": [2]}

    def test_k_zero_element(self, files):
        result = ok("picard", "k", "--input", files["svect"], "--element", "0")
        assert result == {"element": [0], "k": [0]}

    def test_equivalent(self, files):
        result = ok("picard", "equivalent", files["svect"], files["graded"])
        assert result == {"equivalent": False}
        result = ok("picard", "equivalent", files["svect"], files["svect"])
        assert result == {"equivalent": True}

    def test_cob1(self, files):
        result = ok("picard", "cob1")
        assert result["pi0"] == {"rank": 0, "torsion": [2]}
        assert result["pi1"] == {"rank": 1, "torsion": []}
        assert result["k"] == [0]
        assert len(result["derivation"]) >= 2

    def test_bad_element(self, files):
        report = dispatch(("picard", "k", "--input", files["svect"], "--element", "1,2"))
        assert report.exit_code == 1

    def test_equivalent_answers_large_cyclic(self, tmp_path, capsys):
        # Z/10^8 has 10^8 images for its generator; the corner ranks of k
        # decide equivalence without listing any of them.
        big = write(tmp_path, "big.json", {
            "pi0": {"rank": 0, "torsion": [10**8]},
            "pi1": {"rank": 0, "torsion": [10**8]},
            "c": [[[0]]],
            "h": [],
        })
        start = time.perf_counter()
        assert main(["picard", "equivalent", big, big]) == 0
        assert time.perf_counter() - start < 0.1
        assert json.loads(capsys.readouterr().out)["result"] == {"equivalent": True}

    @staticmethod
    def carry_associator(order: int) -> dict:
        # h(a, b, c) = a * carry(b + c) mod 2: the cup product of the
        # reduction Z/order -> Z/2 with the carry cocycle, so a 3-cocycle.
        h = [
            [[a], [b], [c], [1]]
            for a in range(1, order, 2)
            for b in range(1, order)
            for c in range(1, order)
            if b + c >= order
        ]
        return {
            "pi0": {"rank": 0, "torsion": [order]},
            "pi1": {"rank": 0, "torsion": [2]},
            "c": [[[0]]],
            "h": h,
        }

    def test_associator_check_is_priced(self, tmp_path, monkeypatch):
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        small = write(tmp_path, "z4.json", self.carry_associator(4))
        assert ok("picard", "equivalent", small, small) == {"equivalent": True}
        big = write(tmp_path, "z32.json", self.carry_associator(32))
        start = time.perf_counter()
        report = dispatch(("picard", "equivalent", big, big))
        assert time.perf_counter() - start < 1
        assert report.exit_code == 2
        assert "32^4 = 1048576 quadruples" in report.error and "ceiling of 1000000" in report.error

    def test_associator_on_a_free_group_is_bad_input(self, tmp_path):
        doc = {
            "pi0": {"rank": 1, "torsion": []},
            "pi1": {"rank": 0, "torsion": [2]},
            "c": [[[0]]],
            "h": [[[1], [1], [1], [1]]],
        }
        report = dispatch(("picard", "k", "--input", write(tmp_path, "free.json", doc), "--element", "1"))
        assert report.exit_code == 1
        assert "finite groups" in report.error

    def test_search_bound_is_unrecognized(self, files):
        report = dispatch(("picard", "equivalent", files["svect"], files["svect"], "--search-bound", "5"))
        assert report.exit_code == 1
        assert report.error.startswith("unrecognized command line")


class TestFrob:
    def test_extend(self, files):
        result = ok("frob", "extend", files["theory"])
        assert result == {
            "circle": 2,
            "dim": 2,
            "extends": True,
            "reason": "pairing is nondegenerate",
        }

    def test_extend_mod3(self, files):
        result = ok("frob", "extend", files["theory_f3"])
        assert result["extends"] is True
        assert result["circle"] == 2

    def test_extend_degenerate(self, files):
        result = ok("frob", "extend", files["degenerate"])
        assert result["extends"] is False
        assert result["circle"] is None

    @pytest.mark.parametrize(
        "theory",
        [
            {"field": "Q", "pairing": [["1/0"]]},
            {"field": "F7", "pairing": [["1/7"]]},
            {"field": "F7", "pairing": [["3/14"]]},
        ],
    )
    def test_zero_denominator_refused(self, tmp_path, theory):
        report = dispatch(("frob", "extend", write(tmp_path, "t.json", theory)))
        assert report.exit_code == 1
        assert set(report.payload()) == {"command", "error"}

    @pytest.mark.parametrize(
        "pairing, command",
        [(["12", "21"], "extend"), ("1", "extend"), (["12", "21"], "eval")],
    )
    def test_pairing_rows_must_be_arrays(self, tmp_path, files, capsys, pairing, command):
        # A string is not read as the list of its characters.
        theory = write(tmp_path, "t.json", {"field": "Q", "pairing": pairing})
        argv = ["frob", command, theory] + ([files["cup"]] if command == "eval" else [])
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"command", "error"}
        assert "must be a JSON array" in payload["error"]

    @pytest.mark.parametrize("field", [5, " f5 "])
    def test_field_must_be_a_plain_string(self, tmp_path, capsys, field):
        theory = write(tmp_path, "t.json", {"field": field, "pairing": [[1]]})
        assert main(["frob", "extend", theory]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"command", "error"}
        assert "unknown field" in payload["error"]

    def test_eval_cup(self, files):
        result = ok("frob", "eval", files["theory"], files["cup"])
        assert result == {"cols": 1, "matrix": [[1], [0], [0], [1]], "rows": 4}

    def test_eval_cap_needs_extension(self, files):
        report = dispatch(("frob", "eval", files["degenerate"], files["cap"]))
        assert report.exit_code == 1
        result = ok("frob", "eval", files["theory"], files["cap"])
        assert result == {"cols": 4, "matrix": [[1, 0, 0, 1]], "rows": 1}

    @pytest.mark.parametrize(
        "field, morphism, count",
        [
            ("Q", {"m": 8, "n": 8, "pairs": [[i, 8 + i] for i in range(8)]}, "3^16 matrix entries"),
            ("F7", {"m": 30, "n": 0, "pairs": [[2 * i, 2 * i + 1] for i in range(15)]},
             "3^30 matrix entries"),
            ("Q", {"m": 0, "n": 0, "pairs": [], "circles": 10**11},
             "power 100000000000, about 300000000000 bits"),
        ],
    )
    def test_eval_is_budgeted(self, tmp_path, capsys, monkeypatch, field, morphism, count):
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        theory = write(tmp_path, "t.json", {"field": field, "pairing": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        start = time.perf_counter()
        assert main(["frob", "eval", theory, write(tmp_path, "w.json", morphism)]) == 2
        assert time.perf_counter() - start < 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert count in error and "ceiling of 1000000" in error and "COBCAT_MAX_CELLS" in error

    def test_eval_circle_power_mod_p(self, tmp_path, monkeypatch):
        # Over F_p the circle value is raised by three-argument pow, so the
        # circle count costs nothing.
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        theory = write(tmp_path, "t.json", {"field": "F7", "pairing": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        loops = write(tmp_path, "w.json", {"m": 0, "n": 0, "pairs": [], "circles": 10**11})
        start = time.perf_counter()
        result = ok("frob", "eval", theory, loops)
        assert time.perf_counter() - start < 1
        assert result == {"cols": 1, "matrix": [[pow(3, 10**11, 7)]], "rows": 1}


class TestRelations:
    def test_parallel_pair(self, files):
        assert ok("relations", files["parallel"]) == {
            "checked": 2,
            "components": 1,
            "nonvanishing": 0,
        }

    def test_cyclic_exhaustive(self, files):
        assert ok("relations", files["cyclic3"]) == {
            "checked": 81,
            "components": 1,
            "nonvanishing": 0,
        }

    def test_base_restriction(self, files):
        full = ok("relations", files["parallel"])
        based = ok("relations", "--base", "a", files["parallel"])
        assert based == full

    def test_relator_price_is_the_only_ceiling(self, files, tmp_path, capsys, monkeypatch):
        # BZ/3 has 4 relators over 2 generators: 8 entries, and 81 squares
        # that are counted, not built, so 8 is the ceiling that matters.
        monkeypatch.setenv("COBCAT_MAX_CELLS", "7")
        assert main(["relations", files["cyclic3"]]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert "would reduce 4 relators over 2 generators, 8 matrix entries" in error
        assert "ceiling of 7" in error
        monkeypatch.setenv("COBCAT_MAX_CELLS", "8")
        assert ok("relations", files["cyclic3"])["checked"] == 81
        # BZ/32 has 32^4 = 1,048,576 squares, over the default ceiling, and
        # 961 relators over 31 generators, under it.
        monkeypatch.delenv("COBCAT_MAX_CELLS")
        path = write(tmp_path, "cyc32.json", to_json(cyclic_group_category(32)))
        assert main(["relations", path]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == {
            "checked": 32**4,
            "components": 1,
            "nonvanishing": 0,
        }

    @pytest.mark.parametrize("name", ["s2poset", "parallel", "cyclic3", "cyclic5", "terminal"])
    def test_brute_force_oracle_on_corpus(self, files, name):
        c = fincat.from_json(json.loads(Path(files[name]).read_text()))
        assert_relations_match_oracle(c, files[name])

    @settings(max_examples=40, deadline=None)
    @given(relation_categories(), st.data())
    def test_brute_force_oracle_on_drawn_categories(self, tmp_path_factory, c, data):
        path = write(tmp_path_factory.getbasetemp(), "drawn.json", to_json(c))
        assert_relations_match_oracle(c, path, data.draw(st.none() | st.sampled_from(c.objects)))

    def test_a_dropped_relator_is_an_internal_error(self, tmp_path, monkeypatch):
        real = nerve.fundamental_group

        def drop_last(c, basepoint):
            p = real(c, basepoint)
            return dataclasses.replace(p, relators=p.relators[:-1])

        monkeypatch.setattr(nerve, "fundamental_group", drop_last)
        report = dispatch(("relations", write(tmp_path, "cyc2.json", to_json(cyclic_group_category(2)))))
        assert report.exit_code == 3
        assert report.error == (
            "internal error: AssertionError: class of r0 is not the sum of the classes of r1 and r1"
        )

    def test_cyclic_group_of_order_31(self, tmp_path, monkeypatch):
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        path = write(tmp_path, "cyc31.json", to_json(cyclic_group_category(31)))
        start = time.perf_counter()
        result = ok("relations", path)
        assert time.perf_counter() - start < 1
        assert result == {"checked": 31**4, "components": 1, "nonvanishing": 0}


def sparse_category(n: int, arrows) -> fincat.FinCat:
    """Objects o0..o(n-1) and the given (src, tgt) index pairs as arrows,
    no two of them composable."""
    objects = [f"o{i}" for i in range(n)]
    ids = [(f"id_{o}", o, o) for o in objects]
    named = [(f"a{k}", objects[x], objects[y]) for k, (x, y) in enumerate(arrows)]
    compose = [(i, i, i) for i, _, _ in ids]
    for a, x, y in named:
        compose += [(f"id_{x}", a, a), (a, f"id_{y}", a)]
    return fincat.build_category(objects, ids + named, {o: f"id_{o}" for o in objects}, compose)


def zigzag_category(n: int) -> fincat.FinCat:
    """The path o0 -> o1 <- o2 -> o3 ...: n - 1 arrows, none composable."""
    return sparse_category(n, [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)])


class TestManyObjects:
    """Many objects and few arrows: no step is quadratic in the objects or
    in the components."""

    def test_relations_on_a_discrete_category(self, tmp_path, monkeypatch):
        # 2,000 components: each is found once, not rebuilt per basepoint.
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        path = write(tmp_path, "discrete.json", to_json(sparse_category(2000, [])))
        start = time.perf_counter()
        result = ok("relations", path)
        assert time.perf_counter() - start < 2
        assert result == {"checked": 2000, "components": 2000, "nonvanishing": 0}

    def test_localize_aut_on_a_zigzag(self, tmp_path, monkeypatch):
        # 999 one-letter relators over 999 generators, 998,001 entries under
        # the ceiling: every Smith pivot is a unit.
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        path = write(tmp_path, "zigzag.json", to_json(zigzag_category(1000)))
        start = time.perf_counter()
        result = ok("localize", "aut", "--base", "o0", path)
        assert time.perf_counter() - start < 3
        assert result["abelianized"] == {"rank": 0, "torsion": []}
        assert len(result["generators"]) == len(result["relators"]) == 999

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_relations_on_a_long_zigzag_is_refused_fast(self, tmp_path, capsys, monkeypatch, n):
        # One component of n objects: ``checked`` walks its 2n - 1 hom-sets,
        # not its n² object pairs, before the presentation price refuses.
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        path = write(tmp_path, "zigzag.json", to_json(zigzag_category(n)))
        start = time.perf_counter()
        assert main(["relations", path]) == 2
        assert time.perf_counter() - start < 1.5
        error = json.loads(capsys.readouterr().out)["error"]
        assert f"{n - 1} relators over {n - 1} generators, {(n - 1) ** 2} matrix entries" in error


def chain_category(n: int) -> fincat.FinCat:
    return fincat.poset_category([f"c{i}" for i in range(n)], lambda a, b: int(a[1:]) <= int(b[1:]))


PRICED = [["relations"], ["localize", "aut", "--base", "c0"], ["cat", "pi1", "--base", "c0"]]


class TestRelatorPrice:
    """``relations``, ``localize aut`` and ``cat pi1`` hold the dense
    relator matrix, rows times generators, to the cell ceiling before
    reducing it."""

    @pytest.mark.parametrize("argv", PRICED)
    def test_long_chain_is_refused_at_once(self, tmp_path, capsys, monkeypatch, argv):
        # 29 tree edges and C(30, 3) composable pairs over C(30, 2) generators.
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        path = write(tmp_path, "chain30.json", to_json(chain_category(30)))
        start = time.perf_counter()
        assert main([*argv, path]) == 2
        assert time.perf_counter() - start < 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert "4089 relators over 435 generators, 1778715 matrix entries" in error
        assert "ceiling of 1000000" in error and "COBCAT_MAX_CELLS" in error

    @pytest.mark.parametrize("argv", PRICED)
    def test_price_is_exact(self, tmp_path, monkeypatch, argv):
        # 4 tree edges and C(5, 3) pairs over C(5, 2) generators: 140 entries.
        path = write(tmp_path, "chain5.json", to_json(chain_category(5)))
        monkeypatch.setenv("COBCAT_MAX_CELLS", "139")
        report = dispatch((*argv, path))
        assert report.exit_code == 2 and "140 matrix entries" in report.error
        monkeypatch.setenv("COBCAT_MAX_CELLS", "140")
        ok(*argv, path)


class TestCategoryLoad:
    def test_sixty_element_chain_loads_in_under_a_second(self, tmp_path):
        # 1,830 morphisms: the axiom check walks the C(63, 4) = 595,665
        # composable triples, not every pair and triple of morphisms.
        path = write(tmp_path, "chain60.json", to_json(chain_category(60)))
        start = time.perf_counter()
        result = ok("cat", "pi0", path)
        assert time.perf_counter() - start < 1
        assert result == {"components": [sorted(f"c{i}" for i in range(60))]}


class TestCeilingVariable:
    @pytest.mark.parametrize("value", ["0", "-2", "abc", "", "1_000", " 7", "+5", "\N{ARABIC-INDIC DIGIT FIVE}"])
    @pytest.mark.parametrize("argv", [["cat", "homology", "--cap", "3"], ["relations"]])
    def test_malformed_value_is_bad_input(self, files, monkeypatch, value, argv):
        monkeypatch.setenv("COBCAT_MAX_CELLS", value)
        report = dispatch((*argv, files["cyclic3"]))
        assert report.exit_code == 1
        assert report.error == (
            f"ValueError: COBCAT_MAX_CELLS must be a positive integer, got {value!r}"
        )

    def test_unset_gives_the_default(self, monkeypatch):
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        assert limits.max_cells_default() == 10**6
        monkeypatch.setenv("COBCAT_MAX_CELLS", "7")
        assert limits.max_cells_default() == 7


# Every priced command, with a ceiling of 10 and the count it refuses.
PRICED_COMMANDS = {
    "homology-degrees": (["cat", "homology", "--cap", "10", "{terminal}"], "--cap 10 asks for 11 degrees"),
    "homology-cells": (["cat", "homology", "--cap", "3", "{s2poset}"], "reach 14 cells at degree 0"),
    "pi1": (["cat", "pi1", "--base", "c0", "{chain5}"], "140 matrix entries"),
    "aut": (["localize", "aut", "--base", "c0", "{chain5}"], "140 matrix entries"),
    "relations": (["relations", "{chain5}"], "140 matrix entries"),
    "surfaces": (["localize", "surfaces", "--max-chi", "0"], "close 40 cup-cap pairs"),
    "picard-cob1": (["picard", "cob1", "--max-points", "6"], "close 30 cup-cap pairs"),
    "frob-eval": (["frob", "eval", "{theory}", "{through2}"], "write 2^4 matrix entries"),
    "associator": (["picard", "equivalent", "{carry4}", "{carry4}"], "visit 4^4 = 256 quadruples"),
}


class TestOneRefusalForm:
    @pytest.mark.parametrize("name", sorted(PRICED_COMMANDS))
    def test_every_budget_refuses_alike(self, files, tmp_path, capsys, monkeypatch, name):
        paths = dict(
            files,
            chain5=write(tmp_path, "chain5.json", to_json(chain_category(5))),
            through2=write(tmp_path, "through2.json", {"m": 2, "n": 2, "pairs": [[0, 2], [1, 3]]}),
            carry4=write(tmp_path, "carry4.json", TestPicard.carry_associator(4)),
        )
        argv, count = PRICED_COMMANDS[name]
        monkeypatch.setenv("COBCAT_MAX_CELLS", "10")
        assert main([arg.format(**paths) for arg in argv]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert count in error
        assert error.endswith("over the ceiling of 10 (COBCAT_MAX_CELLS)")


# Each integer option, with a value it answers for.
INTEGER_OPTIONS = [
    (["cat", "homology", "--cap", "{}", "{terminal}"], "2"),
    (["localize", "surfaces", "--max-chi", "{}"], "2"),
    (["picard", "cob1", "--max-points", "{}"], "2"),
    (["cob2", "kcheck", "--k", "{}", "{cylinder}"], "0"),
]


class TestStrictIntegers:
    @pytest.mark.parametrize("argv, plain", INTEGER_OPTIONS, ids=[a[2] for a, _ in INTEGER_OPTIONS])
    @pytest.mark.parametrize("text", ["1_0", " 2", "+2", "\N{ARABIC-INDIC DIGIT TWO}"])
    def test_integer_options_are_read_strictly(self, files, argv, plain, text):
        # int() reads each of these texts; the options read only an
        # optional minus sign and ASCII digits.
        report = dispatch([arg.format(text, **files) for arg in argv])
        assert report.exit_code == 1
        assert report.error.startswith(f"unrecognized command line; argument {argv[2]}: invalid integer {text!r}; usage: ")
        ok(*(arg.format(plain, **files) for arg in argv))

    @pytest.mark.parametrize("element", ["1_0", "1, 1", "+1", "\N{ARABIC-INDIC DIGIT ONE}"])
    def test_element_coordinates_are_read_strictly(self, files, element):
        report = dispatch(("picard", "k", "--input", files["svect"], "--element", element))
        assert report.exit_code == 1
        coordinate = element.split(",")[-1]
        assert report.error == f"ValueError: invalid literal for int() with base 10: {coordinate!r}"

    def test_negative_integers_are_read(self, files):
        assert ok("picard", "k", "--input", files["svect"], "--element", "-1")["element"] == [1]
        assert ok("cob2", "kcheck", "--k", "-1", files["cylinder"])["k"] == -1


class TestReportShape:
    def test_unknown_command(self):
        report = dispatch(("nonsense",))
        assert report.exit_code == 1
        assert "usage" in report.error

    def test_payload_keys(self, files):
        report = dispatch(("cob1", "f", files["circle"]))
        assert set(report.payload()) == {"command", "result"}
        bad = dispatch(("nonsense",))
        assert set(bad.payload()) == {"command", "error"}

    def test_main_deterministic_stdout(self, files, capsys):
        assert main(["localize", "surfaces", "--max-chi", "4"]) == 0
        first = capsys.readouterr()
        assert main(["localize", "surfaces", "--max-chi", "4"]) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert "elapsed" in first.err
        assert "elapsed" not in first.out
        payload = json.loads(first.out)
        assert list(payload) == sorted(payload)

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                ["localize", "surfaces", "--max-chi", "4"],
                '{"command": ["localize", "surfaces", "--max-chi", "4"], "result": '
                '{"classes": {"K": 0, "N3": -1, "N4": -2, "N5": -3, "N6": -4, '
                '"RP2": 1, "S2": 2, "Sigma2": -2, "Sigma3": -4, "T2": 0}, '
                '"group": "Z"}}\n',
            ),
            (
                ["picard", "cob1", "--max-points", "8"],
                '{"command": ["picard", "cob1", "--max-points", "8"], "result": '
                '{"derivation": ["swap absorption: compose(cup, swap) == cup is '
                'True (a single arc either way)", "transport along the cup: '
                'cap.swap.cup and cap.cup close to 1 and 1 circles, so k = 0 * '
                '[circle] = [0]", "cross-check: antisymmetry forces 2k = 0 and Z '
                'is torsion-free, so k = 0"], "k": [0], "pi0": {"rank": 0, '
                '"torsion": [2]}, "pi1": {"rank": 1, "torsion": []}}}\n',
            ),
        ],
    )
    def test_main_golden_stdout(self, argv, stdout, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == stdout

    def test_surface_closings_are_budgeted(self, capsys, monkeypatch):
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        start = time.perf_counter()
        assert main(["localize", "surfaces", "--max-chi", "40"]) == 2
        assert time.perf_counter() - start < 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert "--max-chi 40" in error and "15417320 cup-cap pairs" in error
        assert "ceiling of 1000000" in error and "COBCAT_MAX_CELLS" in error
        assert main(["localize", "surfaces", "--max-chi", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["group"] == "Z"

    def test_planar_closings_are_budgeted(self, capsys, monkeypatch):
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        start = time.perf_counter()
        assert main(["picard", "cob1", "--max-points", "24"]) == 2
        assert time.perf_counter() - start < 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert "--max-points 24" in error and "47032778955 cup-cap pairs" in error
        assert "ceiling of 1000000" in error and "COBCAT_MAX_CELLS" in error
        assert main(["picard", "cob1", "--max-points", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["pi1"] == {"rank": 1, "torsion": []}

    def test_memory_error_is_exit_2(self, files, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "cob1", exhausted)
        assert main(["cob1", "f", files["circle"]]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "MemoryError: the run ran out of memory"

    def test_main_exit_codes(self, files, capsys, monkeypatch):
        assert main(["cob1", "f", files["circle"]]) == 0
        assert main(["nonsense"]) == 1
        monkeypatch.setenv("COBCAT_MAX_CELLS", "5")
        assert main(["cat", "homology", files["s2poset"]]) == 2
        capsys.readouterr()


SRC = Path(cobcat.__file__).resolve().parent.parent


def fresh_python(*args: str) -> str:
    """Standard output of a new interpreter, importing cobcat from SRC, that
    exits 0."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    ).stdout


SURFACES = {"cli", "cob2", "exactmath", "limits", "localize"}
PICARD = {"cli", "cob1", "exactmath", "limits", "monoidal"}


class TestStartup:
    """Each subcommand loads only the modules it runs."""

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (["cat", "validate", "{parallel}"], {"cli", "exactmath", "fincat", "limits", "nerve"}),
            (["cob1", "f", "{circle}"], {"cli", "cob1", "exactmath", "limits"}),
            (["cob2", "euler", "{cylinder}"], {"cli", "cob2", "exactmath", "limits"}),
            (["localize", "surfaces", "--max-chi", "2"], SURFACES),
            (["localize", "aut", "--base", "*", "{cyclic3}"], SURFACES | {"fincat", "nerve"}),
            (["relations", "{cyclic3}"], SURFACES | {"fincat", "nerve"}),
            (["picard", "k", "--input", "{svect}", "--element", "1"], PICARD),
            (["picard", "equivalent", "{svect}", "{graded}"], PICARD),
            (["frob", "eval", "{theory}", "{cup}"], PICARD),
            (["picard", "cob1", "--max-points", "4"], PICARD | {"cob2", "localize"}),
        ],
        ids=[
            "cat", "cob1", "cob2", "localize-surfaces", "localize-aut", "relations",
            "picard-k", "picard-equivalent", "frob", "picard-cob1",
        ],
    )
    def test_modules_loaded_by_one_dispatch(self, files, argv, modules):
        code = (
            "import json, sys\n"
            "from cobcat import cli\n"
            "report = cli.dispatch(json.loads(sys.argv[1]))\n"
            "assert report.exit_code == 0, report.error\n"
            "print(json.dumps(sorted(k[7:] for k in sys.modules if k.startswith('cobcat.'))))\n"
        )
        argv = [arg.format(**files) for arg in argv]
        out = fresh_python("-c", code, json.dumps(argv))
        assert json.loads(out) == sorted(modules)

    def test_entry_point_prints_one_document(self, files):
        out = fresh_python("-m", "cobcat.cli", "cat", "validate", files["parallel"])
        assert out.count("\n") == 1
        assert json.loads(out)["result"]["valid"] is True

    def test_submodules_resolve_on_first_access(self):
        code = (
            "import sys, cobcat\n"
            "assert 'cobcat.nerve' not in sys.modules\n"
            "print(cobcat.nerve.__name__)\n"
        )
        assert fresh_python("-c", code) == "cobcat.nerve\n"
        assert cobcat.__getattr__("nerve") is nerve

    def test_unknown_attribute_is_missing(self):
        with pytest.raises(AttributeError, match="no_such_thing"):
            cobcat.no_such_thing
        assert not hasattr(cobcat, "no_such_thing")
