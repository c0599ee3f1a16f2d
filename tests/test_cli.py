import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cupcap
from cupcap import (BoundsConfig, ConstructionError, PointSet,
                    build_convex_free, build_free_set, max_collinear)
from cupcap.cli import RunConfig, main
from cupcap.espts import load_file

import oracles
from conftest import random_point_set


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_gen_x_round_trip(self, tmp_path):
        out = tmp_path / "x.pts"
        assert run("gen-x", "3", "5", "5", "--out", str(out)) == 0
        ps = load_file(str(out))
        assert len(ps) == 20
        assert ps == build_free_set(3, 5, 5)

    def test_gen_x_with_cert(self, tmp_path):
        out, cert = tmp_path / "x.pts", tmp_path / "c.json"
        assert run("gen-x", "4", "4", "4", "--out", str(out),
                   "--cert", str(cert)) == 0
        payload = json.loads(cert.read_text())
        assert payload["passes"] is True
        assert payload["size"] == 8

    def test_gen_es(self, tmp_path):
        out, cert = tmp_path / "es.pts", tmp_path / "c.json"
        assert run("gen-es", "3", "6", "--out", str(out),
                   "--cert", str(cert)) == 0
        assert len(load_file(str(out))) == 16
        payload = json.loads(cert.read_text())
        assert payload["passes"] is True
        assert payload["bounds"]["max_convex_points"] <= 5

    def test_gen_es_small_n_usage_error(self, tmp_path):
        assert run("gen-es", "3", "4", "--out", str(tmp_path / "z.pts")) == 2

    def test_oversized_sets_rejected_at_once(self, tmp_path, capsys):
        # about 7.6e15 and 2.7e11 points: refused before anything is built
        out = tmp_path / "big.pts"
        assert run("gen-x", "3", "30", "30", "--out", str(out)) == 2
        assert run("gen-es", "3", "40", "--out", str(out)) == 2
        assert not out.exists()
        assert "over the cap" in capsys.readouterr().err

    def test_over_table_limit_refused_before_building(self, tmp_path,
                                                      capsys):
        # 48,620 points: under the generator cap, over the table limit
        out = tmp_path / "x.pts"
        assert run("gen-x", "3", "11", "11", "--out", str(out),
                   "--cert", str(tmp_path / "c.json")) == 2
        assert not out.exists()
        assert "4096-point limit" in capsys.readouterr().err

    def test_over_convex_limit_refused_before_building(self, tmp_path,
                                                       capsys):
        # es:3,13 has 2048 points: under the table limit, over the
        # max_convex_subset limit its certificate needs
        out = tmp_path / "es.pts"
        assert run("gen-es", "3", "13", "--out", str(out),
                   "--cert", str(tmp_path / "c.json")) == 2
        assert not out.exists()
        assert ("2048 points exceed the 1024-point limit of "
                "max_convex_subset") in capsys.readouterr().err

    def test_construction_error_exits_two(self, tmp_path, monkeypatch,
                                          capsys):
        def fail(l, m, n):
            raise ConstructionError("flat placement did not verify")

        monkeypatch.setattr("cupcap.constructions.build_free_set", fail)
        assert run("gen-x", "3", "5", "5", "--out",
                   str(tmp_path / "x.pts")) == 2
        assert "did not verify" in capsys.readouterr().err


    def test_coordinate_over_int_digit_limit_exits_two(self, tmp_path,
                                                       monkeypatch, capsys):
        def huge(l, m, n):
            return PointSet.of([(0, 1), (10**5000, 0)])

        monkeypatch.setattr("cupcap.constructions.build_free_set", huge)
        out = tmp_path / "x.pts"
        assert run("gen-x", "3", "5", "5", "--out", str(out)) == 2
        assert not out.exists()
        assert "point 1: a coordinate exceeds" in capsys.readouterr().err


class TestVerify:
    def test_pass_exit_zero(self, tmp_path):
        out = tmp_path / "x.pts"
        run("gen-x", "3", "5", "5", "--out", str(out))
        assert run("verify", "--in", str(out), "--claim", "x:3,5,5") == 0

    def test_fail_exit_one(self, tmp_path):
        bad = tmp_path / "bad.pts"
        bad.write_text("espts v1\n0 0\n1 1\n2 2\n")
        rep = tmp_path / "r.json"
        assert run("verify", "--in", str(bad), "--claim", "x:3,4,4",
                   "--report", str(rep)) == 1
        payload = json.loads(rep.read_text())
        assert payload["passes"] is False

    def test_exit_matches_passes_flag(self, tmp_path):
        out, rep = tmp_path / "es.pts", tmp_path / "r.json"
        run("gen-es", "4", "6", "--out", str(out))
        code = run("verify", "--in", str(out), "--claim", "es:4,6",
                   "--report", str(rep))
        assert code == 0
        assert json.loads(rep.read_text())["passes"] is True

    def test_malformed_claim(self, tmp_path):
        out = tmp_path / "x.pts"
        run("gen-x", "3", "4", "4", "--out", str(out))
        assert run("verify", "--in", str(out), "--claim", "x:1") == 2
        # empty fields are malformed, not dropped
        assert run("verify", "--in", str(out), "--claim", "x:3,,8,8") == 2
        assert run("verify", "--in", str(out), "--claim", "es:3,8,") == 2

    @pytest.mark.parametrize("pts", ["", "7 -2\n"])
    def test_tiny_sets_count_their_points(self, tmp_path, pts):
        # no chain or run can be longer than the set
        f, rep = tmp_path / "p.pts", tmp_path / "r.json"
        f.write_text("espts v1\n" + pts)
        n = len(pts.splitlines())
        for claim in ("x:3,5,5", "es:3,6"):
            assert run("verify", "--in", str(f), "--claim", claim,
                       "--report", str(rep)) == 1
            bounds = json.loads(rep.read_text())["bounds"]
            assert set(bounds.values()) == {n}

    @pytest.mark.parametrize("claim, pts, message", [
        ("es:3,2", "0 0\n", "l, n must be >= 3"),
        ("x:2,5,5", "0 0\n1 1\n2 2\n", "l, m, n must all be >= 3"),
    ])
    def test_claim_below_three_exits_two(self, tmp_path, capsys, claim, pts,
                                         message):
        f = tmp_path / "p.pts"
        f.write_text("espts v1\n" + pts)
        assert run("verify", "--in", str(f), "--claim", claim) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestAnalyze:
    def test_report_schema(self, tmp_path):
        out, rep = tmp_path / "x.pts", tmp_path / "r.json"
        run("gen-x", "3", "4", "4", "--out", str(out))
        assert run("analyze", "--in", str(out), "--report", str(rep),
                   "--l", "3", "--m", "4", "--n", "4") == 0
        payload = json.loads(rep.read_text())
        for key in ("input_file", "n_points", "longest_cup", "longest_cap",
                    "max_collinear", "max_convex_subset", "witnesses"):
            assert key in payload
        assert payload["n_points"] == 6
        assert payload["structure"] is None
        assert len(payload["witnesses"]["longest_cup"]) == \
            payload["longest_cup"]

    @pytest.fixture
    def scans(self, monkeypatch):
        import cupcap.extremal
        calls = []
        scan = cupcap.extremal.max_collinear

        def counted(ps):
            calls.append(len(ps))
            return scan(ps)
        monkeypatch.setattr(cupcap.extremal, "max_collinear", counted)
        return calls

    def test_collinear_free_input_skips_the_collinear_scan(self, tmp_path,
                                                            scans):
        # es:3,6 has no three collinear points; the reported run is the
        # scan's own witness, the first two points in (x, y) order
        ps = build_convex_free(3, 6)
        out, rep = tmp_path / "es.pts", tmp_path / "r.json"
        run("gen-es", "3", "6", "--out", str(out))
        assert run("analyze", "--in", str(out), "--report", str(rep)) == 0
        assert scans == []
        payload = json.loads(rep.read_text())
        assert payload["max_collinear"] == 2
        assert payload["witnesses"]["max_collinear"] == \
            [[str(p.x), str(p.y)] for p in max_collinear(ps).members]

    def test_collinear_input_runs_the_collinear_scan(self, tmp_path, scans):
        out, rep = tmp_path / "x.pts", tmp_path / "r.json"
        out.write_text("espts v1\n0 0\n3 1\n1 1\n2 2\n5 3\n")
        assert run("analyze", "--in", str(out), "--report", str(rep)) == 0
        assert scans == [5]
        payload = json.loads(rep.read_text())
        assert payload["max_collinear"] == 3
        assert payload["witnesses"]["max_collinear"] == \
            [["0", "0"], ["1", "1"], ["2", "2"]]

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.pts"
        bad.write_text("espts v1\n0 0\n1 zz\n")
        assert run("analyze", "--in", str(bad), "--report",
                   str(tmp_path / "r.json")) == 2
        assert "line 3" in capsys.readouterr().err

    def test_number_over_int_digit_limit_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.pts"
        bad.write_text("espts v1\n0 0\n" + "1" * 5000 + " 3\n")
        assert run("analyze", "--in", str(bad), "--report",
                   str(tmp_path / "r.json")) == 2
        assert "line 3: a 5000-digit number" in capsys.readouterr().err

    def test_partial_thresholds_exit_two(self, tmp_path, capsys):
        out, rep = tmp_path / "x.pts", tmp_path / "r.json"
        run("gen-x", "3", "4", "4", "--out", str(out))
        assert run("analyze", "--in", str(out), "--report", str(rep),
                   "--l", "3", "--n", "4") == 2
        assert not rep.exists()
        assert "missing --m" in capsys.readouterr().err

    def test_over_table_limit_exits_two(self, tmp_path, capsys):
        f, rep = tmp_path / "big.pts", tmp_path / "r.json"
        f.write_text("espts v1\n" + "".join(f"{i} {i * i}\n"
                                            for i in range(4097)))
        assert run("analyze", "--in", str(f), "--report", str(rep)) == 2
        assert not rep.exists()
        assert "4097 points exceed" in capsys.readouterr().err

    def test_over_convex_limit_exits_two(self, tmp_path, capsys):
        # under the table limit: refused before any table is built
        f, rep = tmp_path / "big.pts", tmp_path / "r.json"
        f.write_text("espts v1\n" + "".join(f"{i} {i * i}\n"
                                            for i in range(1025)))
        assert run("analyze", "--in", str(f), "--report", str(rep)) == 2
        assert not rep.exists()
        assert "1025 points exceed the 1024-point limit" in \
            capsys.readouterr().err
        assert run("verify", "--in", str(f), "--claim", "es:3,12",
                   "--report", str(rep)) == 2
        assert not rep.exists()

    def test_handles_duplicate_x_by_shearing(self, tmp_path):
        f = tmp_path / "v.pts"
        f.write_text("espts v1\n0 0\n0 1\n1 0\n2 5\n")
        rep = tmp_path / "r.json"
        assert run("analyze", "--in", str(f), "--report", str(rep)) == 0

    def test_repeated_x_counts_against_brute_force(self, tmp_path):
        # a shear keeps lines and convex position, so the collinear and
        # convex counts are the input's own.  Every equal-x pair has
        # sheared slope 1/eps and a chain's slopes are strictly monotone,
        # so a reported cup or cap holds at most one such pair: its count
        # is the input's (distinct-x) maximum or one more, and the maximum
        # itself when the witness has pairwise distinct x
        rng = random.Random(30)
        f, rep = tmp_path / "v.pts", tmp_path / "r.json"
        longer = 0
        for _ in range(240):
            ps = random_point_set(rng, rng.randint(3, 9), rng.randint(3, 6),
                                  distinct_x=False)
            f.write_text("espts v1\n" + "".join(f"{p.x} {p.y}\n" for p in ps))
            assert run("analyze", "--in", str(f), "--report", str(rep)) == 0
            payload = json.loads(rep.read_text())
            assert payload["max_collinear"] == oracles.brute_max_collinear(ps)
            assert payload["max_convex_subset"] == \
                oracles.brute_max_convex_subset(ps)
            for name, brute in (("longest_cup", oracles.brute_longest_cup),
                                ("longest_cap", oracles.brute_longest_cap)):
                extra = payload[name] - brute(ps)
                xs = [x for x, _ in payload["witnesses"][name]]
                assert extra in ((0,) if len(set(xs)) == len(xs) else (0, 1))
                longer += extra
        assert longer  # the one-point excess does occur

    @pytest.mark.parametrize("pts, lmn, structure", [
        ("0 0\n0 1\n0 2\n", "333", "collinear_run"),
        ("0 0\n0 1\n1 0\n1 3\n2 5\n2 -4\n3 1\n", "994", "cap"),
    ])
    def test_sheared_witnesses_are_input_points(self, tmp_path, pts, lmn,
                                                structure):
        # equal x-coordinates: the chains and the structure are found on a
        # sheared copy, but every reported point is an input point
        f, rep = tmp_path / "v.pts", tmp_path / "r.json"
        f.write_text("espts v1\n" + pts)
        assert run("analyze", "--in", str(f), "--report", str(rep),
                   "--l", lmn[0], "--m", lmn[1], "--n", lmn[2]) == 0
        payload = json.loads(rep.read_text())
        given = [p.split() for p in pts.splitlines()]
        reported = [payload["structure"]["points"],
                    *payload["witnesses"].values()]
        assert payload["structure"]["kind"] == structure
        assert all(p in given for w in reported for p in w)
        if structure == "collinear_run":
            assert payload["witnesses"]["longest_cup"] == given[:2]
            assert payload["structure"]["points"] == given

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_inputs_witness_the_whole_set(self, tmp_path, n):
        # analyzers that need more points are skipped; each count is its
        # witness's size, and a skipped analyzer's witness is the set
        f, rep = tmp_path / "t.pts", tmp_path / "r.json"
        given = [[str(i), str(i * i)] for i in range(n)]
        f.write_text("espts v1\n" + "".join(f"{x} {y}\n" for x, y in given))
        assert run("analyze", "--in", str(f), "--report", str(rep)) == 0
        payload = json.loads(rep.read_text())
        for name, witness in payload["witnesses"].items():
            assert payload[name] == len(witness) == n
            assert witness == given


class TestBounds:
    def test_table(self, tmp_path):
        out = tmp_path / "b.json"
        assert run("bounds", "--l", "3", "--maxmn", "6", "--out",
                   str(out)) == 0
        payload = json.loads(out.read_text())
        row = next(r for r in payload["cup_cap"]
                   if r["m"] == 4 and r["n"] == 4)
        assert row["general_position_threshold"] == 7
        conv = {r["n"]: r["lower"] for r in payload["convex"]}
        assert conv[6] == 17  # 2^(n-2) + 1 at l = 3

    def test_oversized_table_rejected_at_once(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert run("bounds", "--l", "3", "--maxmn", "100000", "--out",
                   str(out)) == 2
        assert not out.exists()
        assert "over the cap" in capsys.readouterr().err

    def test_zero_denominator_flag_exits_two(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert run("bounds", "--l", "3", "--maxmn", "3", "--out", str(out),
                   "--c", "1/0") == 2
        assert not out.exists()
        assert "--c" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "b.json"
        assert run("bounds", "--l", "3", "--maxmn", "3", "--out", str(out),
                   "--c", "7") == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["c"] == 7
        # c * (min(m-1, n-1) + l) * C(m+n-4, n-2) at (3, 3, 3)
        assert payload["cup_cap"][0]["upper_conditional"] == 7 * (2 + 3) * 2


class TestFatCap:
    def test_report(self, tmp_path):
        import random
        from conftest import random_point_set
        from cupcap.espts import save_file
        ps = random_point_set(random.Random(1), 300)
        src = tmp_path / "p.pts"
        save_file(ps, str(src))
        rep = tmp_path / "fc.json"
        assert run("fat-cap", "--in", str(src), "--k", "4", "--seed", "3",
                   "--budget", "25", "--report", str(rep)) == 0
        payload = json.loads(rep.read_text())
        assert payload["k"] == 4
        assert len(payload["cap"]) == 4
        assert len(payload["occupancies"]) == 3
        assert payload["min_occupancy"] == min(payload["occupancies"])
        assert payload["transversal"]["violations"] == 0

    @pytest.mark.parametrize("flag,value,message", [
        ("--sample-budget", "0", "sample budget must be at least 1, got 0"),
        ("--budget", "-3", "search budget must be at least 1, got -3"),
    ], ids=["sample_budget_zero", "negative_budget"])
    def test_budget_below_one_exits_2(self, tmp_path, capsys, flag, value,
                                      message):
        import random
        from conftest import random_point_set
        from cupcap.espts import save_file
        src, rep = tmp_path / "p.pts", tmp_path / "fc.json"
        save_file(random_point_set(random.Random(1), 60), str(src))
        assert run("fat-cap", "--in", str(src), "--k", "4", flag, value,
                   "--report", str(rep)) == 2
        assert message in capsys.readouterr().err
        assert not rep.exists()

    def test_equal_x_exits_2(self, tmp_path, capsys):
        from cupcap import PointSet
        from cupcap.espts import save_file
        src = tmp_path / "p.pts"
        save_file(PointSet.of([(0, 0), (1, 3), (1, 4), (2, 3), (3, 0)]),
                  str(src))
        rep = tmp_path / "fc.json"
        assert run("fat-cap", "--in", str(src), "--k", "4",
                   "--report", str(rep)) == 2
        assert "not pairwise distinct" in capsys.readouterr().err
        assert not rep.exists()


class TestPlot:
    def test_svg_and_determinism(self, tmp_path):
        out = tmp_path / "x.pts"
        run("gen-x", "3", "5", "5", "--out", str(out))
        svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run("plot", "--in", str(out), "--svg", str(svg1),
                   "--highlight", "0,2,4") == 0
        assert run("plot", "--in", str(out), "--svg", str(svg2),
                   "--highlight", "0,2,4") == 0
        assert svg1.read_bytes() == svg2.read_bytes()
        text = svg1.read_text()
        assert text.startswith("<svg") and "<circle" in text and \
            "polyline" in text

    def test_coordinate_beyond_float_range_exits_2(self, tmp_path, capsys):
        # float(2**1100) overflows; the error names the point and no SVG
        # is written
        pts = tmp_path / "huge.pts"
        pts.write_text(f"espts v1\n0 {2**1100}\n1 0\n2 5\n")
        svg = tmp_path / "h.svg"
        assert run("plot", "--in", str(pts), "--svg", str(svg)) == 2
        err = capsys.readouterr().err
        assert f"point 0, Point(0, {2**1100})," in err
        assert "beyond the float range" in err and "Traceback" not in err
        assert not svg.exists()

    def test_span_beyond_float_range_exits_2(self, tmp_path, capsys):
        # each coordinate fits a float but the x span does not; the error
        # names the axis and no SVG is written
        pts = tmp_path / "wide.pts"
        pts.write_text(f"espts v1\n{-2**1023} 0\n{2**1023} 5\n0 9\n")
        svg = tmp_path / "w.svg"
        assert run("plot", "--in", str(pts), "--svg", str(svg)) == 2
        err = capsys.readouterr().err
        assert "the x span" in err and "beyond the float range" in err
        assert "Traceback" not in err
        assert not svg.exists()

    def test_highlight_out_of_range(self, tmp_path):
        out = tmp_path / "x.pts"
        run("gen-x", "3", "4", "4", "--out", str(out))
        assert run("plot", "--in", str(out), "--svg",
                   str(tmp_path / "z.svg"), "--highlight", "99") == 2

    def test_malformed_highlight_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.pts"
        run("gen-x", "3", "4", "4", "--out", str(out))
        svg = tmp_path / "z.svg"
        assert run("plot", "--in", str(out), "--svg", str(svg),
                   "--highlight", "1,x") == 2
        assert "malformed highlight list" in capsys.readouterr().err
        assert not svg.exists()

    def test_empty_set_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.pts"
        empty.write_text("espts v1\n")
        svg = tmp_path / "e.svg"
        assert run("plot", "--in", str(empty), "--svg", str(svg)) == 2
        assert "empty point set" in capsys.readouterr().err
        assert not svg.exists()


class TestRunConfig:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nc = 5\nepsilon = 1/20\nseed = 7\n"
                       "sample_budget = 123\n")
        rc = RunConfig.from_file(str(cfg))
        assert rc.bounds.c == 5
        assert rc.bounds.epsilon.denominator == 20
        assert rc.seed == 7
        assert rc.sample_budget == 123

    def test_comment_only_file_gives_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# nothing set\n\n")
        rc = RunConfig.from_file(str(cfg))
        assert rc == RunConfig()
        assert rc.bounds == BoundsConfig()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(ValueError):
            RunConfig.from_file(str(cfg))

    @pytest.mark.parametrize("text,message", [
        ("mystery = 1", "unknown key 'mystery'"),
        ("seed = abc", "seed must be an integer, got 'abc'"),
        ("c = 1/0", "zero denominator"),
        ("sample_budget = 0", "sample_budget must be at least 1, got 0"),
        ("search_budget = -2", "search_budget must be at least 1, got -2"),
        ("seed 3", "expected key=value"),
    ], ids=["unknown_key", "bad_int", "zero_denominator",
            "sample_budget_zero", "search_budget_negative", "no_equals"])
    def test_cli_rejects_bad_config(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\n{text}\n")
        assert run("--config", str(cfg), "bounds", "--l", "3", "--maxmn",
                   "3", "--out", str(tmp_path / "b.json")) == 2
        assert f"config line 2: {message}" in capsys.readouterr().err

    def test_negative_seed_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -4\n")
        assert RunConfig.from_file(str(cfg)).seed == -4

    def test_pipeline_determinism(self, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        out = tmp_path / "x.pts"
        run("gen-x", "3", "5", "5", "--out", str(out))
        run("analyze", "--in", str(out), "--report", str(r1))
        run("analyze", "--in", str(out), "--report", str(r2))
        assert r1.read_bytes() == r2.read_bytes()


class TestColdStart:
    """numpy is loaded only where a numpy kernel runs.  Each check runs in
    a fresh interpreter, because pytest plugins may already have loaded
    numpy into this one."""

    @staticmethod
    def numpy_loaded(code: str) -> bool:
        paths = [str(Path(cupcap.__file__).resolve().parents[1]),
                 str(Path(__file__).resolve().parent),
                 os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        code += "\nimport sys\nprint('numpy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()[-1] == "True"

    @pytest.mark.parametrize("module", ["cupcap", "cupcap.cli"])
    def test_import_skips_numpy(self, module):
        assert not self.numpy_loaded(f"import {module}")

    def test_submodules_load_on_first_use(self, tmp_path):
        # import cupcap loads no submodule; gen-x never loads relative, and
        # fat-cap never loads constructions
        d = tmp_path
        assert not self.numpy_loaded(f"""
import sys
import cupcap
loaded = lambda: sorted(m for m in sys.modules if m.startswith("cupcap."))
assert loaded() == [], loaded()
assert cupcap.extremal.max_collinear is cupcap.max_collinear
assert loaded() == ["cupcap.extremal", "cupcap.geom"], loaded()
""")
        assert not self.numpy_loaded(f"""
import sys
from cupcap.cli import main
assert main(["gen-x", "3", "5", "5", "--out", r"{d / 'x.pts'}"]) == 0
assert "cupcap.relative" not in sys.modules
""")
        assert not self.numpy_loaded(f"""
import sys
from cupcap.cli import main
assert main(["fat-cap", "--in", r"{d / 'x.pts'}", "--k", "4", "--budget",
             "5", "--report", r"{d / 'fc.json'}"]) == 0
assert "cupcap.constructions" not in sys.modules
""")

    def test_exact_big_integer_steps_skip_numpy(self, tmp_path):
        # es:3,8 has 64 points with 77-bit coordinates: over the numpy
        # table size, but not int64-safe, so every table is pure Python
        d = tmp_path
        assert not self.numpy_loaded(f"""
from cupcap.cli import main
assert main(["gen-x", "3", "5", "5", "--out", r"{d / 'x.pts'}",
             "--cert", r"{d / 'x.json'}"]) == 0
assert main(["gen-es", "3", "8", "--out", r"{d / 'es.pts'}"]) == 0
assert main(["verify", "--in", r"{d / 'es.pts'}", "--claim", "es:3,8",
             "--report", r"{d / 'v.json'}"]) == 0
assert main(["analyze", "--in", r"{d / 'es.pts'}", "--report",
             r"{d / 'a.json'}", "--l", "3", "--m", "8", "--n", "8"]) == 0
""")

    def test_relative_steps_skip_numpy(self):
        # the relative_body calls: conv_order + dilworth on 50 points,
        # cell_profile, and the inner-cap and outer-cup chains
        assert not self.numpy_loaded("""
import random
from cupcap import (ConvexBody, Point, PointSet, cell_profile, conv_order,
                    dilworth, longest_inner_cap, longest_outer_cup)
rng = random.Random(3)
pts = set()
while len(pts) < 50:
    pts.add((rng.randrange(-60, 61), rng.randrange(1, 120)))
base = ConvexBody.segment(Point.of(-8, -1), Point.of(8, -1))
assert dilworth(conv_order(PointSet.of(sorted(pts)), base)).h > 1
cell = PointSet.of([(-3, 4), (0, 9), (2, 5), (5, 12), (-6, 20)])
cell_profile(cell, Point.of(-20, 0), Point.of(20, 0),
             ConvexBody.segment(Point.of(-10, 0), Point.of(10, 0)))
ps = PointSet.of([(-6, 5), (-2, 3), (2, 3), (6, 5), (1, 9)])
body = ConvexBody.point(Point.of(0, -20))
assert len(longest_inner_cap(ps, body)) > 1
assert len(longest_outer_cup(ps, body)) > 1
""")

    def test_fat_cap_skips_numpy(self, tmp_path):
        src = tmp_path / "p.pts"
        assert not self.numpy_loaded(f"""
import random
from conftest import random_point_set
from cupcap.cli import main
from cupcap.espts import save_file
save_file(random_point_set(random.Random(1), 60), r"{src}")
assert main(["fat-cap", "--in", r"{src}", "--k", "4", "--budget", "5",
             "--report", r"{tmp_path / 'fc.json'}"]) == 0
""")

    def test_collinear_scan_skips_numpy(self):
        # 253 seeded 20-bit points with a planted 4-point run, a set the
        # int64 label tables would take: max_collinear is one pure-Python
        # scan at every size and coordinate range
        assert not self.numpy_loaded("""
import random
from cupcap import PointSet, max_collinear
rng = random.Random(253)
pts = {(1000 + 7 * k, 2000 + 11 * k) for k in range(4)}
while len(pts) < 253:
    pts.add((rng.getrandbits(20), rng.getrandbits(20)))
assert len(max_collinear(PointSet.of(sorted(pts)))) == 4
""")

    def test_int64_tables_of_forty_points_load_numpy(self):
        assert self.numpy_loaded("""
import random
from conftest import random_point_set
from cupcap import find_structure
find_structure(random_point_set(random.Random(2), 40), 3, 9, 9)
""")
