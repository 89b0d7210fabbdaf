import contextlib
import importlib
import io
import json
import os
import pkgutil
import tempfile
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pinched_disks_poset, rp2_face_poset
from posetlab import cli
from posetlab import constructions as cons
from posetlab.corpus import gorenstein_corpus
import posetlab
from posetlab import homology, ncpoly
from posetlab import poset as poset_mod
from posetlab import sheaves, subdivision
from posetlab.ncpoly import ab, cd


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_poset(tmp_path, P, name="poset.json"):
    path = tmp_path / name
    path.write_text(poset_mod.to_json(P))
    return str(path)


class TestBuild:
    def test_polygon_then_cd_index_pipeline(self, capsys, tmp_path, monkeypatch):
        code, out, _ = run_cli(capsys, "build", "polygon", "6")
        assert code == 0
        path = tmp_path / "p6.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "cd-index", str(path))
        assert code == 0
        assert out.strip() == "c^2 + 4*d"

    def test_boolean(self, capsys):
        code, out, _ = run_cli(capsys, "build", "boolean", "3")
        assert code == 0
        P = poset_mod.from_json(out)
        assert P.n == 2 and len(P) == 7

    def test_build_output_feeds_every_consumer(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "build", "cube")
        path = tmp_path / "cube.json"
        path.write_text(out)
        for argv in (["ab-index", str(path)], ["cd-index", str(path)],
                     ["check", "gorenstein-star", str(path)],
                     ["verify", "stanley", str(path)]):
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0, argv

    def test_pyr_star_product(self, capsys, tmp_path):
        p3 = write_poset(tmp_path, cons.polygon(3), "p3.json")
        seg = write_poset(tmp_path, cons.segment(), "seg.json")
        for argv in (["build", "pyr", p3], ["build", "star", seg, p3],
                     ["build", "product", p3, seg],
                     ["build", "order-complex", p3]):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            poset_mod.from_json(out)

    def test_semisusp(self, capsys, tmp_path):
        p3 = write_poset(tmp_path, cons.polygon(3))
        code, out, _ = run_cli(capsys, "build", "semisusp", p3, "--element", "1")
        assert code == 0
        prime = poset_mod.from_json(out)
        assert prime.n == 2

    @pytest.mark.parametrize("kind", ["semisusp", "collapse"])
    def test_semisusp_of_a_chain_is_not_graded(self, capsys, tmp_path, kind):
        # in the chain 0 < 1 < 2, * would cover the bottom from rank 2
        chain = poset_mod.GradedPoset.from_covers(2, {0: 0, 1: 1, 2: 2}, [(0, 1), (1, 2)])
        path = write_poset(tmp_path, chain)
        code, out, err = run_cli(capsys, "build", kind, path, "--element", "1")
        assert (code, out) == (2, "")
        assert err == "error: cover (0, 3) skips from rank 0 to 2\n"

    def test_subdivision_target_emits_map_json(self, capsys, tmp_path):
        p6 = write_poset(tmp_path, cons.polygon(6))
        code, out, _ = run_cli(capsys, "build", "subdivision-target", p6,
                               "--element", "1")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"source", "target", "assignment"}


class TestJsonStability:
    def test_round_trip_byte_stable(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "build", "polygon", "4")
        path = tmp_path / "p.json"
        path.write_text(out)
        P = poset_mod.from_json(out)
        assert poset_mod.to_json(P, indent=2) == out.strip()


class TestVerify:
    def test_main_inequality_failure_is_exit_1(self, capsys, tmp_path):
        p2 = write_poset(tmp_path, cons.polygon(2))
        code, out, _ = run_cli(capsys, "verify", "main-inequality", p2,
                               "--element", "1")
        assert code == 1
        assert "d" in out

    def test_main_inequality_success(self, capsys, tmp_path):
        p5 = write_poset(tmp_path, cons.polygon(5))
        code, out, _ = run_cli(capsys, "verify", "main-inequality", p5,
                               "--element", "1")
        assert code == 0
        assert out.splitlines()[-1].startswith("verified: ")

    @pytest.mark.parametrize("what", [["stanley"], ["main-inequality", "--element", "1"]])
    def test_missing_lattice_hypothesis_is_noted(self, capsys, tmp_path, what):
        p2 = write_poset(tmp_path, cons.polygon(2))
        code, out, _ = run_cli(capsys, "verify", what[0], p2, *what[1:])
        assert code == 1
        verdict, note = out.splitlines()
        assert verdict.startswith("FAILS at monomials ['d']")
        assert note == "note: input is not a lattice"

    def test_decomposition(self, capsys, tmp_path):
        p6 = write_poset(tmp_path, cons.polygon(6))
        code, out, _ = run_cli(capsys, "build", "subdivision-target", p6,
                               "--element", "1")
        mp = tmp_path / "map.json"
        mp.write_text(out)
        code, out, _ = run_cli(capsys, "verify", "decomposition", "--map", str(mp))
        assert code == 0
        assert "assembled = c^2 + 4*d" in out

    def test_semisusp(self, capsys, tmp_path):
        p4 = write_poset(tmp_path, cons.polygon(4))
        code, _, _ = run_cli(capsys, "verify", "semisusp", p4, "--element", "1")
        assert code == 0


class TestCheck:
    def test_gorenstein_star_yes(self, capsys, tmp_path):
        p3 = write_poset(tmp_path, cons.polygon(3))
        code, out, _ = run_cli(capsys, "check", "gorenstein-star", p3)
        assert code == 0 and "yes" in out

    def test_gorenstein_star_no_with_witness(self, capsys, tmp_path):
        cone = write_poset(tmp_path, cons.with_top(cons.polygon(3)))
        code, out, _ = run_cli(capsys, "--json", "check", "gorenstein-star", cone)
        assert code == 1
        doc = json.loads(out)
        assert doc["holds"] is False and "betti" in doc

    def test_gorenstein_star_no_on_torsion(self, capsys, tmp_path):
        """Over Q the proper part of RP^2 is acyclic (its homology is
        2-torsion), so the empty chain is the witness, with no Betti numbers."""
        rp2 = write_poset(tmp_path, rp2_face_poset())
        code, out, _ = run_cli(capsys, "--json", "check", "gorenstein-star", rp2)
        assert code == 1
        doc = json.loads(out)
        assert doc["holds"] is False
        assert doc["betti"] == {} and doc["witness_chain"] == []

    def test_near_gorenstein_star_auto(self, capsys, tmp_path):
        cone = write_poset(tmp_path, cons.with_top(cons.polygon(3)))
        code, out, _ = run_cli(capsys, "check", "near-gorenstein-star", cone,
                               "--boundary", "auto")
        assert code == 0

    def test_near_gorenstein_star_auto_on_no_ball(self, capsys, tmp_path):
        """Two triangles sharing a vertex: the interval walk fails at the
        shared vertex, and the error names it and its link's homology."""
        path = write_poset(tmp_path, pinched_disks_poset())
        code, out, err = run_cli(capsys, "check", "near-gorenstein-star", path,
                                 "--boundary", "auto")
        assert (code, out) == (2, "")
        assert err == ("error: not a homology ball: the link of chain (1,) "
                       "has reduced Betti numbers {0: 1}\n")

    def test_explicit_boundary_without_bottom_matches_auto(self, capsys, tmp_path):
        """An explicit boundary gets the bottom in front, as near-cd-index
        reads it: on B3 minus its top, {2, 3} is the boundary {0, 2, 3}."""
        B3 = cons.boolean_algebra(3)
        ball, boundary = cons.remove_upset(B3, B3.elements()[-1])
        path = write_poset(tmp_path, ball)
        assert sorted(boundary) == [0, 2, 3]
        auto = run_cli(capsys, "check", "near-gorenstein-star", path, "--boundary", "auto")
        assert auto[0] == 0
        assert run_cli(capsys, "check", "near-gorenstein-star", path,
                       "--boundary", "2,3") == auto

    def test_cm(self, capsys, tmp_path):
        p3 = write_poset(tmp_path, cons.polygon(3))
        code, _, _ = run_cli(capsys, "check", "cm", p3)
        assert code == 0

    def test_cm_no_with_witness(self, capsys, tmp_path):
        """Two disjoint edges: the whole complex has homology in degree 0,
        below its top degree 1, so the empty chain is the witness."""
        from posetlab.poset import GradedPoset
        P = GradedPoset.from_covers(
            2, {0: 0, 1: 1, 2: 1, 3: 2, 4: 2}, [(0, 1), (0, 2), (1, 3), (2, 4)])
        code, out, _ = run_cli(capsys, "--json", "check", "cm", write_poset(tmp_path, P))
        assert code == 1
        doc = json.loads(out)
        assert doc["holds"] is False
        assert doc["reason"] == "link homology below top degree"
        assert doc["witness_chain"] == [] and doc["betti"] == {"0": 1}


class TestNearCdIndex:
    def test_cone_split(self, capsys, tmp_path):
        cone = write_poset(tmp_path, cons.with_top(cons.polygon(3)))
        code, out, _ = run_cli(capsys, "near-cd-index", cone, "--boundary", "auto")
        assert code == 0
        assert "boundary = c^2 + d" in out

    def test_explicit_boundary_without_bottom_matches_auto(self, capsys, tmp_path):
        B3 = cons.boolean_algebra(3)
        ball, boundary = cons.remove_upset(B3, B3.elements()[-1])
        path = write_poset(tmp_path, ball)
        assert sorted(boundary) == [0, 2, 3]
        code, auto, _ = run_cli(capsys, "near-cd-index", path, "--boundary", "auto")
        assert code == 0
        code, out, err = run_cli(capsys, "near-cd-index", path, "--boundary", "2,3")
        assert (code, out, err) == (0, auto, "")

    @pytest.mark.parametrize("command", ["near-cd-index", "check near-gorenstein-star"])
    def test_unknown_ids_are_named_in_the_order_given(self, capsys, tmp_path, command):
        path = write_poset(tmp_path, cons.remove_upset(cons.polygon(4), 1)[0])
        code, out, err = run_cli(capsys, *command.split(), path, "--boundary", "99,98")
        assert (code, out, err) == (2, "", "error: unknown element 99\n")

    @pytest.mark.parametrize("given,reason", [
        ("0,1,2", "interior chain link is not a sphere"),
        ("", "boundary rank is not n-1"),
    ])
    def test_uncertified_boundary_is_refused(self, capsys, tmp_path, given, reason):
        """The split is printed only for a pair that `check
        near-gorenstein-star` certifies.  The 4-gon minus the upset of
        vertex 1 is a ball with boundary {0, 1, 3}: with boundary {0, 1, 2}
        an interior chain link is no sphere, and the empty boundary has the
        wrong rank."""
        ball, boundary = cons.remove_upset(cons.polygon(4), 1)
        path = write_poset(tmp_path, ball)
        assert sorted(boundary) == [0, 1, 3]
        if given:
            code, out, _ = run_cli(capsys, "check", "near-gorenstein-star", path,
                                   "--boundary", given)
            assert code == 1 and reason in out
        code, out, err = run_cli(capsys, "near-cd-index", path, "--boundary", given)
        assert (code, out) == (2, "")
        assert err == f"error: near-cd-index needs a near-Gorenstein* pair: {reason}\n"


class TestSheafCd:
    def test_table_and_verify(self, capsys, tmp_path):
        p3 = write_poset(tmp_path, cons.polygon(3))
        code, out, _ = run_cli(capsys, "sheaf-cd", p3, "--seed", "7")
        assert code == 0
        assert "cc" in out and "d" in out

    def test_mismatch_exits_1(self, capsys, tmp_path, monkeypatch):
        """A coefficient that differs from flag enumeration is marked and
        exits 1, with no option asking for it."""
        monkeypatch.setattr(sheaves, "cd_coefficient_via_CD", lambda P, w, seed: 5)
        p3 = write_poset(tmp_path, cons.polygon(3))
        code, out, err = run_cli(capsys, "sheaf-cd", p3, "--word", "d")
        assert (code, err) == (1, "")
        assert out.splitlines()[1] == f"{'d':<10} {5:>9} {1:>6}  <- MISMATCH"

    def test_single_word_json(self, capsys, tmp_path):
        p6 = write_poset(tmp_path, cons.polygon(6))
        code, out, _ = run_cli(capsys, "--json", "sheaf-cd", p6,
                               "--word", "d", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["table"] == [{"word": "d", "extracted": 4, "flag": 4}]

    def test_empty_word_on_a_point(self, capsys, tmp_path):
        """On a rank-0 poset the empty word is the one cd-word, so
        `--word ''` gives the default table."""
        p0 = write_poset(tmp_path, cons.single_point())
        code, out, _ = run_cli(capsys, "--json", "sheaf-cd", p0, "--word", "")
        assert code == 0
        assert json.loads(out)["table"] == [{"word": "", "extracted": 1, "flag": 1}]
        assert run_cli(capsys, "--json", "sheaf-cd", p0) == (0, out, "")

    def test_word_with_foreign_letter(self, capsys, tmp_path):
        p3 = write_poset(tmp_path, cons.polygon(3))
        code, _, err = run_cli(capsys, "sheaf-cd", p3, "--word", "xy")
        assert code == 2
        assert "letter 'x'" in err


class TestLambdaNuCommands:
    def test_lambda_nu(self, capsys, tmp_path):
        p4 = write_poset(tmp_path, cons.polygon(4))
        code, out, _ = run_cli(capsys, "lambda-nu", p4, "--element", "1")
        assert code == 0
        assert out.strip() == "a^2 + a*b + 2*b*a"

    def test_lambda_nu_prime(self, capsys, tmp_path):
        p4 = write_poset(tmp_path, cons.polygon(4))
        code, out, _ = run_cli(capsys, "lambda-nu-prime", p4, "--element", "1")
        assert code == 0
        assert out.strip() == "c^2 + d"

    @pytest.mark.parametrize("command", ["lambda-nu", "lambda-nu-prime"])
    def test_bottom_element_rejected(self, capsys, tmp_path, command):
        b3 = write_poset(tmp_path, cons.boolean_algebra(3))
        code, out, err = run_cli(capsys, command, b3, "--element", "0")
        assert code == 2 and out == ""
        assert err == "error: nu must be strictly above the bottom\n"

    @pytest.mark.parametrize("command", ["lambda-nu", "lambda-nu-prime"])
    def test_element_required(self, capsys, tmp_path, command):
        p4 = write_poset(tmp_path, cons.polygon(4))
        code, out, err = run_cli(capsys, command, p4)
        assert code == 2 and out == ""
        assert "--element" in err

    @pytest.mark.parametrize("argv,want", [
        (["ab-index"], ab("aa") + ab("ab", 3) + ab("ba", 3) + ab("bb")),
        (["cd-index"], cd("cc") + cd("d", 2)),
        (["lambda-nu", "--element", "1"], ab("aa") + ab("ab") + ab("ba", 2)),
        (["lambda-nu-prime", "--element", "1"], cd("cc") + cd("d")),
    ], ids=["ab-index", "cd-index", "lambda-nu", "lambda-nu-prime"])
    def test_json(self, capsys, tmp_path, argv, want):
        # each polynomial command on the square, as JSON and as text
        p4 = write_poset(tmp_path, cons.polygon(4))
        code, out, err = run_cli(capsys, "--json", argv[0], p4, *argv[1:])
        assert (code, err) == (0, "")
        assert json.loads(out) == ncpoly.to_json_dict(want)
        code, out, _ = run_cli(capsys, argv[0], p4, *argv[1:])
        assert out == ncpoly.to_text(want) + "\n"


class TestCorpus:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "list")
        assert code == 0
        assert "polygon2" in out and "pyr_cube" in out

    def test_max_rank_filters(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "list", "--max-rank", "2")
        assert code == 0
        assert "pyr_cube" not in out and "polygon3" in out

    def test_lowest_ranks_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "list", "--max-rank", "1")
        assert code == 0
        assert out.split()[0] == "boolean2" and "polygon2" not in out
        code, out, _ = run_cli(capsys, "corpus", "run-all", "--max-rank", "2",
                               "--sweeps", "1")
        assert code == 0
        assert out.count("PASS") == 8 and "144 subdivision maps" in out

    def test_seed_is_set_by_the_option_alone(self, capsys, tmp_path, monkeypatch):
        """The environment sets no seed: --seed defaults to 0, and a stray
        POSETLAB_SEED, even one that is no integer, changes nothing."""
        monkeypatch.setenv("POSETLAB_SEED", "abc")
        assert run_cli(capsys, "build", "polygon", "3")[0] == 0
        p3 = write_poset(tmp_path, cons.polygon(3))
        code, out, _ = run_cli(capsys, "--json", "sheaf-cd", p3, "--word", "d")
        assert code == 0
        assert json.loads(out)["seed"] == 0


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli(capsys, "definitely-not-a-command")[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "cd-index", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("text", [
        "[]",
        '{"n": 1, "elements": [{"id": 0, "rank": 0}, {"id": 1, "rank": 1}, '
        '{"id": 1, "rank": 0}], "covers": [[0, 1]]}',
    ], ids=["top-level-list", "duplicate-id"])
    def test_malformed_poset_json(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run_cli(capsys, "cd-index", "-")
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("assignment", [
        [[0, 0, 0]], [[0, "x"]], "none", [[0, 0], [1, 1], [2, 2], [2, 1]],
        [[0, 0], [1, True]], [[0, 0], [1.0, 1]], [[0, 0], [1, 1], [2, 2], [99, 0]],
    ], ids=["triple", "string-id", "not-a-list", "duplicate-source", "bool-id",
            "float-id", "unknown-source-id"])
    def test_malformed_map_assignment(self, capsys, tmp_path, assignment):
        seg = poset_mod.to_json_dict(cons.segment())
        path = tmp_path / "map.json"
        path.write_text(json.dumps(
            {"source": seg, "target": seg, "assignment": assignment}))
        code, _, err = run_cli(capsys, "verify", "decomposition", "--map", str(path))
        assert code == 2
        assert err.startswith("error: ")

    def test_precondition_error(self, capsys, tmp_path):
        # cd-index of a non-Eulerian poset is a precondition failure
        from posetlab.poset import GradedPoset
        broken = GradedPoset.from_covers(
            2, {0: 0, 1: 1, 2: 1, 3: 2}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        path = write_poset(tmp_path, broken, "broken.json")
        code, _, err = run_cli(capsys, "cd-index", path)
        assert code == 2

    def test_face_budget(self, capsys, tmp_path, monkeypatch):
        """RP^2's proper part goes to the chain route, whose 182 chains are
        past a budget of 100."""
        monkeypatch.setattr(homology, "FACE_BUDGET", 100)
        path = write_poset(tmp_path, rp2_face_poset())
        code, _, err = run_cli(capsys, "check", "gorenstein-star", path)
        assert code == 2
        assert err.startswith("error: the order complex of 31 elements has 182 faces")

    def test_order_complex_face_budget(self, capsys, tmp_path, monkeypatch):
        """build order-complex counts its chains before it builds them: the
        triangle's proper part has 13, past a budget of 12."""
        monkeypatch.setattr(homology, "FACE_BUDGET", 12)
        path = write_poset(tmp_path, cons.polygon(3))
        code, out, err = run_cli(capsys, "build", "order-complex", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the order complex of 6 elements has 13 faces")

    @pytest.mark.parametrize("argv", [
        ["boolean"], ["polygon"], ["pyr"], ["star"], ["product", "x.json"],
        ["polytope-product"], ["order-complex"], ["semisusp"],
        ["subdivision-target"], ["collapse"],
    ], ids=lambda argv: "-".join(argv))
    def test_build_missing_arguments(self, capsys, argv):
        code, out, err = run_cli(capsys, "build", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "argument" in err

    @pytest.mark.parametrize("argv", [["cube", "2", "3", "4"], ["boolean", "3", "4"]],
                             ids=lambda argv: "-".join(argv))
    def test_build_surplus_arguments(self, capsys, argv):
        code, out, err = run_cli(capsys, "build", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "argument" in err

    @pytest.mark.parametrize("kind", ["semisusp", "subdivision-target", "collapse"])
    def test_build_without_element(self, capsys, tmp_path, kind):
        p3 = write_poset(tmp_path, cons.polygon(3))
        code, out, err = run_cli(capsys, "build", kind, p3)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--element" in err

    @pytest.mark.parametrize("kind", [k for k, (_, needs, _) in cli._BUILD.items() if not needs])
    def test_build_with_stray_element(self, capsys, tmp_path, kind):
        p3 = write_poset(tmp_path, cons.polygon(3))
        counts = cli._BUILD[kind][0]
        args = ["3"] if kind in ("boolean", "polygon", "cube", "cross") else [p3] * counts[-1]
        assert run_cli(capsys, "build", kind, *args)[0] == 0
        code, out, err = run_cli(capsys, "build", kind, *args, "--element", "1")
        assert (code, out) == (2, "")
        assert err == f"error: build {kind} takes no --element\n"

    @pytest.mark.parametrize("argv,named", [
        (["verify", "decomposition"], "--map"),
        (["verify", "stanley"], "a poset file"),
        (["verify", "main-inequality", "{poset}"], "--element"),
        (["verify", "semisusp", "{poset}"], "--element"),
        (["cd-index", "{directory}"], "{directory}"),
        (["check", "cm", "{poset}", "--boundary", "1"], "--boundary"),
        (["check", "gorenstein-star", "{poset}", "--boundary", "auto"], "--boundary"),
        (["build", "cube", "0"], "cube_poset needs d >= 1"),
        (["corpus", "run-all", "--max-rank", "0"], "--max-rank >= 2"),
        (["corpus", "run-all", "--max-rank", "1"], "--max-rank >= 2"),
        (["corpus", "run-all", "--sweeps", "0"], "--sweeps >= 1"),
        (["corpus", "list", "--max-rank", "-1"], "--max-rank >= 1"),
        (["corpus", "list", "--max-rank", "0"], "--max-rank >= 1"),
        (["sheaf-cd", "{poset}", "--word", ""], "must have degree 2"),
        (["build", "boolean", "3", "--element", "1"], "takes no --element"),
        (["verify", "stanley", "{poset}", "--element", "1"], "does not take --element"),
        (["verify", "stanley", "{poset}", "--map", "{map}"], "does not take --map"),
        (["verify", "decomposition", "{poset}", "--map", "{map}"], "does not take a poset file"),
        (["verify", "semisusp", "{poset}", "--element", "1", "--map", "{map}"],
         "does not take --map"),
    ], ids=["decomposition-without-map", "stanley-without-poset",
            "main-inequality-without-element", "semisusp-without-element",
            "directory-as-poset", "cm-with-boundary", "gorenstein-star-with-boundary",
            "cube-zero", "run-all-rank-0", "run-all-rank-1", "run-all-no-sweeps",
            "list-rank-negative", "list-rank-0", "sheaf-cd-empty-word",
            "boolean-with-element", "stanley-with-element", "stanley-with-map",
            "decomposition-with-poset", "semisusp-with-map"])
    def test_malformed_invocation(self, capsys, tmp_path, argv, named):
        """One `error:` line naming what is missing or wrong, exit 2, no
        output and no traceback."""
        b3 = cons.boolean_algebra(3)
        map_path = tmp_path / "map.json"
        map_path.write_text(cli._map_to_json(cons.subdivision_target_and_map(b3, 1)[1]))
        paths = {"poset": write_poset(tmp_path, b3), "directory": str(tmp_path),
                 "map": str(map_path)}
        code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named.format(**paths) in err and "Traceback" not in err

    def test_every_library_exception_is_an_input_error_or_a_verdict(self):
        """`run` exits 2 on any ValueError or OSError and names only the
        verdict classes for exit 1, so each exception class the library
        defines must be one or the other."""
        verdicts = {subdivision.NotASubdivision, subdivision.DecompositionMismatch,
                    ncpoly.NotExpressible, sheaves.SurjectivityFailed}
        defined = {obj for info in pkgutil.iter_modules(posetlab.__path__)
                   for obj in vars(importlib.import_module(f"posetlab.{info.name}")).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__.startswith("posetlab.")}
        assert verdicts <= defined and len(defined) > len(verdicts)
        assert not any(issubclass(cls, ValueError) for cls in verdicts)
        assert all(issubclass(cls, ValueError) for cls in defined - verdicts), sorted(
            cls.__name__ for cls in defined - verdicts if not issubclass(cls, ValueError))

    def test_closed_stdout_exits_quietly(self):
        """A reader that stops early (`build boolean 11 | head -1`) gets
        exit 1 and nothing on stderr: no traceback, no "Exception ignored"
        line at interpreter exit."""
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "posetlab.cli", "build", "boolean", "11"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


@pytest.mark.parametrize("fake,code", [
    (None, 0),
    (lambda P, w, seed: seed, 1),  # every seed gives a different value
])
def test_seed_sweep_exit_code(monkeypatch, capsys, fake, code):
    script = Path(__file__).resolve().parents[1] / "scripts" / "sheaf_seed_sweep.py"
    if fake is not None:
        monkeypatch.setattr(sheaves, "cd_coefficient_via_CD", fake)
    monkeypatch.setattr(sys, "argv", [str(script), "--sweeps", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == code
    assert ("UNSTABLE" in capsys.readouterr().out) == bool(code)


# -- documents of posets whose ids leave gaps ---------------------------------

_SMALL = gorenstein_corpus(3)
_TINY = [i for i, (_, P) in enumerate(_SMALL) if len(P) <= 9]


def _cli(*argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def _gapped_document(draw, P):
    """P's document, and a copy under a drawn injective relabelling that
    keeps the bottom at 0 and leaves a gap; the labels travel with the
    elements, so a verdict names the same elements in both."""
    doc = poset_mod.to_json_dict(P)
    m = len(doc["elements"])
    # permute 1..m-1, then move the ids from `gap` on up by `width`
    gap, width = draw(st.integers(1, m - 1)), draw(st.integers(1, 2 * m))
    new = {0: 0, **{k: j + width * (j >= gap)
                    for k, j in enumerate(draw(st.permutations(range(1, m))), 1)}}
    gapped = {"n": doc["n"], "elements": [{**e, "id": new[e["id"]]} for e in doc["elements"]],
              "covers": [[new[a], new[b]] for a, b in doc["covers"]]}
    return doc, gapped, new


@given(st.data())
@settings(max_examples=20, deadline=500, derandomize=True)  # at most 20 x 0.5 s = 10 s
def test_documents_of_gapped_ids_read_back(data):
    """Every build kind that reads posets writes, from posets whose ids
    leave gaps, a document that its matching check or verify accepts, with
    the verdicts of the same run on the ungapped documents; a map document
    reads back as the map the builder made."""
    P = _SMALL[data.draw(st.integers(0, len(_SMALL) - 1))][1]
    Q = _SMALL[data.draw(st.sampled_from(_TINY))][1]
    (p_doc, p_gap, new), (q_doc, q_gap, _) = (data.draw(_gapped_document(R)) for R in (P, Q))
    nu = data.draw(st.integers(1, len(P) - 1))
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, docs, element in (("plain", (p_doc, q_doc), nu), ("gapped", (p_gap, q_gap), new[nu])):
            p, q = (os.path.join(tmp, f"{key}{i}.json") for i in range(2))
            for path, doc in zip((p, q), docs):
                with open(path, "w") as fh:
                    json.dump(doc, fh)
            for kind, args in (("pyr", [p]), ("order-complex", [p]), ("star", [p, q]),
                               ("product", [p, q]), ("polytope-product", [q, p]),
                               ("semisusp", [p, "--element", str(element)]),
                               ("subdivision-target", [p, "--element", str(element)]),
                               ("collapse", [p, "--element", str(element)])):
                code, out, err = built = _cli("build", kind, *args)
                runs[key, kind] = [(code, err)]
                if code:  # the element kinds need a lattice
                    assert (code, out) == (2, "") and not P.is_lattice(), built
                    continue
                out_path = os.path.join(tmp, f"{key}-{kind}.json")
                with open(out_path, "w") as fh:
                    fh.write(out)
                if kind in ("subdivision-target", "collapse"):
                    verdict = _cli("verify", "decomposition", "--map", out_path)
                    L = poset_mod.from_json(open(p).read())
                    build = cons.collapse_map if kind == "collapse" else (
                        lambda L, nu: cons.subdivision_target_and_map(L, nu)[1])
                    assert cli._map_from_json(out).image == build(L, element).image
                else:
                    verdict = _cli("check", "gorenstein-star", out_path)
                assert verdict[0] == 0, (kind, verdict)
                runs[key, kind].append(verdict)
    for (key, kind), results in runs.items():
        assert runs["plain", kind] == results, kind
