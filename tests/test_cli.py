import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import rp2_face_poset
from posetlab import cli
from posetlab import constructions as cons
from posetlab import poset as poset_mod


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


class TestSheafCd:
    def test_table_and_verify(self, capsys, tmp_path):
        p3 = write_poset(tmp_path, cons.polygon(3))
        code, out, _ = run_cli(capsys, "sheaf-cd", p3, "--verify", "--seed", "7")
        assert code == 0
        assert "cc" in out and "d" in out

    def test_single_word_json(self, capsys, tmp_path):
        p6 = write_poset(tmp_path, cons.polygon(6))
        code, out, _ = run_cli(capsys, "--json", "sheaf-cd", p6,
                               "--word", "d", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["table"] == [{"word": "d", "extracted": 4, "flag": 4}]

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


class TestCorpus:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "list")
        assert code == 0
        assert "polygon2" in out and "pyr_cube" in out

    def test_max_rank_filters(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "list", "--max-rank", "2")
        assert code == 0
        assert "pyr_cube" not in out and "polygon3" in out

    def test_env_seed_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POSETLAB_SEED", "11")
        p3 = write_poset(tmp_path, cons.polygon(3))
        code, out, _ = run_cli(capsys, "--json", "sheaf-cd", p3, "--word", "d")
        assert code == 0
        assert json.loads(out)["seed"] == 11


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
    ], ids=["triple", "string-id", "not-a-list", "duplicate-source"])
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

    def test_non_integer_seed_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("POSETLAB_SEED", "abc")
        code, out, err = run_cli(capsys, "build", "polygon", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "POSETLAB_SEED" in err

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
