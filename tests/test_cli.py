from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import pytest

from srdepth.cli import build_parser, main, resolve_example
from srdepth.complexes import clique_complex
from srdepth.graphs import mask_of
from srdepth.verify import construct_example

from helpers import link, reduced_betti


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_timed(capsys, *argv):
    start = time.perf_counter()
    result = run(capsys, *argv)
    return result, time.perf_counter() - start


def verb_options() -> dict[str, list[str]]:
    """Sorted option strings of every subcommand (aliases included), without --help."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {verb: sorted(o for a in p._actions if not isinstance(a, argparse._HelpAction)
                         for o in a.option_strings)
            for verb, p in sub.choices.items()}


GRAPH_SOURCE = ["--input", "--input-format", "--name"]
VERIFY_OPTIONS = sorted(["--allow-large", "--field", "--format", "--jobs", "--powers",
                         "--timings", *GRAPH_SOURCE])

# A valid argument list for each verb, so that a parse error can only come
# from the flag under test.
BASE_ARGV = {
    "depth": ["--name", "c4"], "betti": ["--name", "c4"], "kappa": ["--name", "c4"],
    "powers": ["--name", "c4"], "verify": ["--name", "c4"],
    "fuzz": ["--n", "4", "--count", "1"], "search-depth2": ["--n", "4", "--budget", "1"],
    "ideal-depth": ["--ideal", "ideal.txt", "--nvars", "0"],
}

# Options a verb's handler does not read, and formats it cannot print.
NOT_ACCEPTED = (
    [(verb, ["--jobs", "2"]) for verb in
     ("depth", "betti", "kappa", "powers", "fuzz", "search-depth2", "ideal-depth")]
    + [(verb, ["--timings"]) for verb in
       ("depth", "betti", "kappa", "powers", "search-depth2", "ideal-depth")]
    + [(verb, ["--allow-large"]) for verb in ("fuzz", "search-depth2")]
    + [(verb, ["--format", "csv"]) for verb in
       ("depth", "kappa", "powers", "search-depth2", "ideal-depth")]
)

# (verb, flag, smallest accepted value, a value below it)
NUMBER_FLOORS = [("fuzz", "--n", 2, "1"), ("fuzz", "--count", 0, "-4"),
                 ("search-depth2", "--n", 2, "0"), ("search-depth2", "--budget", 0, "-1"),
                 ("ideal-depth", "--nvars", 0, "-3")]


def with_value(argv: list[str], flag: str, value: str) -> list[str]:
    i = argv.index(flag)
    return [*argv[:i + 1], value, *argv[i + 2:]]


class TestParserSurface:
    def test_options_per_verb(self):
        assert verb_options() == {
            "depth": sorted(["--allow-large", "--field", "--format", *GRAPH_SOURCE]),
            "betti": sorted(["--allow-large", "--field", "--format", *GRAPH_SOURCE]),
            "kappa": sorted(["--allow-large", "--field", "--format", *GRAPH_SOURCE]),
            "powers": sorted(["--allow-large", "--field", "--format", *GRAPH_SOURCE]),
            "verify": VERIFY_OPTIONS,
            "example": VERIFY_OPTIONS,
            "fuzz": ["--count", "--field", "--format", "--n", "--profile", "--seed", "--timings"],
            "search-depth2": ["--budget", "--field", "--format", "--n", "--seed"],
            "ideal-depth": ["--allow-large", "--field", "--format", "--ideal", "--nvars"],
        }

    @pytest.mark.parametrize("verb", sorted(BASE_ARGV))
    def test_base_argv_parses(self, verb):
        assert build_parser().parse_args([verb, *BASE_ARGV[verb]]).command == verb

    @pytest.mark.parametrize("verb,extra", NOT_ACCEPTED,
                             ids=[f"{v}{''.join(e)}" for v, e in NOT_ACCEPTED])
    def test_unread_option_exit_2(self, capsys, verb, extra):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([verb, *BASE_ARGV[verb], *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(word in err for word in extra)

    @pytest.mark.parametrize("verb", ["depth", "betti", "kappa", "powers", "verify"])
    def test_input_and_name_exit_2(self, capsys, tmp_path, verb):
        f = tmp_path / "c4.txt"
        f.write_text("4\n1 2\n2 3\n3 4\n1 4\n")
        with pytest.raises(SystemExit) as exc:
            main([verb, "--input", str(f), "--name", "c6"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("verb,flag,floor,below", NUMBER_FLOORS,
                             ids=[f"{v}{f}{b}" for v, f, _, b in NUMBER_FLOORS])
    def test_number_below_floor_exit_2(self, capsys, tmp_path, monkeypatch, verb, flag, floor, below):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ideal.txt").write_text("0\n")  # the zero ideal, valid in 0 variables
        code, _, _ = run(capsys, verb, *with_value(BASE_ARGV[verb], flag, str(floor)))
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main([verb, *with_value(BASE_ARGV[verb], flag, below)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {flag}: must be >= {floor}, got {below}" in err

    def test_no_state_survives_a_call(self, capsys):
        # a usage error and a help page in between leave a repeated call unchanged
        argv = ["verify", "--name", "c6", "--format", "json"]
        first = run(capsys, *argv)
        assert first[0] == 0 and first[1]
        bad = help_output(capsys, ["verify", "--name", "c6", "--bogus"])
        assert bad["exit"] == 2 and bad["stderr"].startswith("usage:") and "--bogus" in bad["stderr"]
        assert help_output(capsys, ["betti", "--help"])["exit"] == 0
        assert run(capsys, *argv) == first


GOLDEN_HELP = json.loads((Path(__file__).parent / "golden_help.json").read_text())

# Every help page, one usage error per verb from its own subparser, and the
# top parser's usage errors.
HELP_ARGV = ([["--help"]] + [[verb, "--help"] for verb in [*sorted(BASE_ARGV), "example"]]
             + [[verb, "--format", "xml"] for verb in [*sorted(BASE_ARGV), "example"]]
             + [[], ["bogus"], ["powers", "--bogus"], ["verify", "--field", "x"]])


def help_output(capsys, argv: list[str]) -> dict:
    """Exit status, stdout and stderr of sr-depth argv, all of which argparse writes."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return {"exit": exc.value.code, "stdout": out.out, "stderr": out.err}


class TestHelpGoldens:
    """Help and usage text, byte for byte, at two terminal widths (tests/golden_help.json)."""

    @pytest.mark.parametrize("columns", sorted(GOLDEN_HELP))
    @pytest.mark.parametrize("argv", HELP_ARGV, ids=[" ".join(["sr-depth", *a]) for a in HELP_ARGV])
    def test_matches_golden(self, capsys, monkeypatch, columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        expected = GOLDEN_HELP[columns][" ".join(["sr-depth", *argv])]
        assert help_output(capsys, argv) == expected
        assert expected["exit"] == (0 if "--help" in argv else 2)

    def test_widths_differ(self):
        assert sorted(GOLDEN_HELP) == ["120", "60"]
        narrow, wide = GOLDEN_HELP["60"], GOLDEN_HELP["120"]
        assert narrow.keys() == wide.keys() == {" ".join(["sr-depth", *a]) for a in HELP_ARGV}
        for key in narrow:
            if "--help" in key:
                assert narrow[key]["stdout"].count("\n") > wide[key]["stdout"].count("\n"), key


class TestResolveExample:
    @pytest.mark.parametrize("name,expected", [
        ("c6", construct_example("cycle", t=6)),
        ("C6", construct_example("cycle", t=6)),
        ("p4", construct_example("path", t=4)),
        ("k5", construct_example("complete", t=5)),
        ("k5,5", construct_example("bipartite", a=5, b=5)),
        ("k2,2,2", construct_example("multipartite", t=2)),
        ("jc5", construct_example("joined_cycles", t=5)),
        ("figure1", construct_example("figure1")),
        ("fig1", construct_example("figure1")),
    ])
    def test_names(self, name, expected):
        assert resolve_example(name) == expected

    @pytest.mark.parametrize("name", ["", "q7", "k1,2,3", "c", "jc5,5"])
    def test_bad_names(self, name):
        with pytest.raises(ValueError):
            resolve_example(name)


BIG_INPUTS = {
    "edges.txt": "3000000\n1 2\n",  # 12 bytes
    # graph6: the size field for n = 3000, then all C(3000, 2) bits zero
    "big.g6": "~" + "".join(chr(63 + (3000 >> s & 63)) for s in (12, 6, 0)) + "?" * (3000 * 2999 // 12),
}


class TestGuardsBeforeBuild:
    """Graph verbs refuse an oversized graph from its declared vertex count, before building it."""

    @pytest.mark.parametrize("argv", [
        ["kappa", "--name", "c120"],
        ["depth", "--name", "k6000"],
        ["depth", "--input", "edges.txt"],
        ["betti", "--input", "big.g6"],
    ])
    def test_subset_guard(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        for name in BIG_INPUTS.keys() & set(argv):
            (tmp_path / name).write_text(BIG_INPUTS[name])
        (code, out, err), elapsed = run_timed(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: subset scan limited to n <= 14; override to force\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv", [["powers"], ["verify", "--powers"]])
    def test_second_power_guard(self, capsys, tmp_path, argv):
        # 14 vertices pass the subset guard; all 14 have an edge in G^c
        f = tmp_path / "edges.txt"
        f.write_text("14\n1 2\n")
        (code, out, err), elapsed = run_timed(capsys, *argv, "--input", str(f), "--format", "json")
        message = "second-power scan limited to 10 non-universal vertices, got 14; override to force"
        if argv == ["powers"]:
            assert (code, out, err) == (2, "", f"error: {message}\n")
        else:
            checks = {c["name"]: c for c in json.loads(out)["checks"]}
            assert checks["square_lower_bound"] == {"name": "square_lower_bound", "status": "skipped",
                                                    "detail": f"skipped: size ({message})"}
        assert elapsed < 1.0

    @pytest.mark.parametrize("verb", ["depth", "betti", "kappa", "powers", "verify"])
    def test_clique_complex_guard_under_override(self, capsys, verb):
        (code, out, err), elapsed = run_timed(capsys, verb, "--name", "k3000", "--allow-large")
        assert code == 2 and out == ""
        assert err == "error: clique complex limited to n <= 24\n"
        assert elapsed < 1.0


class TestDepthCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "depth", "--name", "c6")
        assert code == 0
        assert "depth = 2" in out and "projective dimension = 4" in out

    def test_json_witness_recomputable(self, capsys):
        code, out, _ = run(capsys, "depth", "--name", "figure1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        face, ell = payload["witness_face"], payload["witness_degree"]
        assert payload == {"n": 6, "depth": 4, "projective_dimension": 2,
                           "witness_face": face, "witness_degree": ell}
        assert len(face) + ell + 1 == 4
        lk = link(clique_complex(resolve_example("figure1")), mask_of(v - 1 for v in face))
        assert reduced_betti(lk).get(ell, 0) > 0

    def test_edge_list_input(self, capsys, tmp_path):
        f = tmp_path / "c4.txt"
        f.write_text("4\n1 2\n2 3\n3 4\n1 4\n")
        code, out, _ = run(capsys, "depth", "--input", str(f))
        assert code == 0 and "depth = 2" in out

    def test_graph6_input_sniffed(self, capsys, tmp_path):
        f = tmp_path / "c6.g6"
        f.write_text("EhEG\n")
        code, out, _ = run(capsys, "depth", "--input", str(f))
        assert code == 0 and "depth = 2" in out

    def test_guard_before_clique_complex(self, capsys):
        (code, _, err), elapsed = run_timed(capsys, "depth", "--name", "k20")
        assert code == 2 and "subset scan" in err
        assert elapsed < 1.0

    @pytest.mark.parametrize("field", ["1000000000000000003", "9" * 40])
    def test_large_field_exit_2_fast(self, capsys, field):
        (code, _, err), elapsed = run_timed(capsys, "depth", "--name", "c6", "--field", field)
        assert code == 2 and "characteristic" in err
        assert elapsed < 1.0


class TestBettiCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "betti", "--name", "c4", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["i,j,beta", "0,0,1", "1,2,2", "2,4,1"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "betti", "--name", "c4", "--format", "json")
        assert json.loads(out) == {"0,0": 1, "1,2": 2, "2,4": 1}

    def test_guard_exit_2(self, capsys, tmp_path):
        f = tmp_path / "big.txt"
        f.write_text("15\n")
        code, _, err = run(capsys, "betti", "--input", str(f))
        assert code == 2 and "error" in err

    def test_guard_before_clique_complex(self, capsys):
        (code, _, err), elapsed = run_timed(capsys, "betti", "--name", "k20")
        assert code == 2 and "subset scan" in err
        assert elapsed < 1.0

    def test_allow_large_header(self, capsys, tmp_path):
        f = tmp_path / "big.txt"
        f.write_text("15\n1 2\n")
        code, out, _ = run(capsys, "betti", "--input", str(f), "--allow-large",
                           "--format", "csv")
        assert code == 0
        assert out.startswith("# guard overrides: allow-large")


class TestKappaCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "kappa", "--name", "figure1")
        assert code == 0
        assert "kappa = 4" in out and "kappa via Betti vanishing = 4" in out

    def test_complete_no_separator(self, capsys):
        code, out, _ = run(capsys, "kappa", "--name", "k4")
        assert code == 0 and "none (complete graph)" in out

    def test_k1(self, capsys):
        # flow, brute force and Betti vanishing all give K1 kappa = n - 1 = 0
        assert run(capsys, "kappa", "--name", "k1") == \
            (0, "kappa = 0\nkappa via Betti vanishing = 0\nseparator = none (complete graph)\n", "")

    def test_guard_before_scan(self, capsys):
        (code, _, err), elapsed = run_timed(capsys, "kappa", "--name", "k12,12")
        assert code == 2 and "subset scan" in err
        assert elapsed < 1.0

    def test_allow_large_header(self, capsys):
        code, out, _ = run(capsys, "kappa", "--name", "k4", "--allow-large")
        assert code == 0
        assert out.startswith("# guard overrides: allow-large\nkappa = 3\n")


class TestPowersCommand:
    def test_c6(self, capsys):
        code, out, _ = run(capsys, "powers", "--name", "c6")
        assert code == 0
        assert "depth = 2" in out
        assert "depth (symbolic square) = 1" in out
        assert "depth (square) = 0" in out

    @pytest.mark.parametrize("name", ["c6", "figure1", "k4", "p5"])
    def test_matches_verify_powers(self, capsys, name):
        code, out, _ = run(capsys, "powers", "--name", name, "--format", "json")
        assert code == 0
        _, report, _ = run(capsys, "verify", "--name", name, "--powers", "--format", "json")
        report = json.loads(report)
        assert json.loads(out) == {key: report[key] for key in
                                   ("depth", "depth_symbolic_square", "depth_square")}

    def test_guard_matches_verify_skip(self, capsys):
        code, _, err = run(capsys, "powers", "--name", "c11")
        assert code == 2 and "second-power scan limited to 10 non-universal vertices, got 11" in err
        code, out, _ = run(capsys, "verify", "--name", "c11", "--powers", "--format", "json")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("symbolic_square_lower_bound", "square_lower_bound"):
            assert checks[name]["status"] == "skipped"
            assert "second-power scan limited to 10 non-universal vertices, got 11" in checks[name]["detail"]

    def test_guard_counts_non_universal_vertices(self, capsys, tmp_path):
        # the scan runs on the vertices with an edge in G^c: c10 has 10, and
        # K13 minus one edge has 2, which the polarized-size guard also allowed
        code, out, _ = run(capsys, "powers", "--name", "c10", "--format", "json")
        assert code == 0 and json.loads(out) == {"depth": 2, "depth_symbolic_square": 1, "depth_square": 0}
        f = tmp_path / "k13-e.txt"
        pairs = [(u, v) for u in range(1, 14) for v in range(u + 1, 14) if (u, v) != (1, 2)]
        f.write_text("13\n" + "".join(f"{u} {v}\n" for u, v in pairs))
        code, out, _ = run(capsys, "powers", "--input", str(f), "--format", "json")
        assert code == 0 and json.loads(out) == {"depth": 12, "depth_symbolic_square": 12, "depth_square": 12}
        code, out, _ = run(capsys, "powers", "--name", "c11", "--allow-large", "--format", "json")
        assert code == 0 and json.loads(out) == {"depth": 2, "depth_symbolic_square": 1, "depth_square": 0}

    @pytest.mark.parametrize("name, message", [
        ("c14", "second-power scan limited to 10 non-universal vertices, got 14; override to force"),
        ("c16", "subset scan limited to n <= 14"),
        ("p20", "subset scan limited to n <= 14"),
    ])
    def test_guard_before_building_powers(self, capsys, name, message):
        (code, out, err), elapsed = run_timed(capsys, "powers", "--name", name)
        assert code == 2 and out == "" and message in err
        assert elapsed < 1.0

    def test_face_enumeration_guard_holds_under_override(self, capsys):
        # --allow-large lifts the two guards above, not the depth engine's n <= 20
        (code, out, err), elapsed = run_timed(capsys, "powers", "--name", "c24", "--allow-large")
        assert code == 2 and out == "" and "face enumeration limited to n <= 20" in err
        assert elapsed < 1.0


GOLDEN_POWERS = json.loads((Path(__file__).parent / "golden_powers.json").read_text())


class TestPowersGoldens:
    """powers and verify --powers print, byte for byte, what the generator route printed."""

    @pytest.fixture(scope="class")
    def graph_files(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("golden")
        for name, text in GOLDEN_POWERS["files"].items():
            (directory / f"{name}.txt").write_text(text)
        return directory

    @pytest.mark.parametrize("case", sorted(GOLDEN_POWERS["cases"]))
    def test_json_output(self, capsys, graph_files, case):
        verb, graph, field = case.split()
        source = (["--input", str(graph_files / f"{graph}.txt")] if graph in GOLDEN_POWERS["files"]
                  else ["--name", graph])
        flags = ["--powers"] if verb == "verify" else []
        expected = GOLDEN_POWERS["cases"][case]
        assert run(capsys, verb, *flags, *source, "--format", "json", "--field", field) == \
            (expected["exit"], json.dumps(expected["output"], indent=2) + "\n", "")


GOLDEN_DEPTH = json.loads((Path(__file__).parent / "golden_depth.json").read_text())


class TestDepthGoldens:
    """depth prints, byte for byte and witness included, what the earlier depth scan printed."""

    @pytest.fixture(scope="class")
    def graph_files(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("golden_depth")
        for name, text in GOLDEN_DEPTH["files"].items():
            (directory / f"{name}.txt").write_text(text)
        return directory

    @pytest.mark.parametrize("case", sorted(GOLDEN_DEPTH["cases"]))
    def test_json_output(self, capsys, graph_files, case):
        graph, field = case.split()
        source = (["--input", str(graph_files / f"{graph}.txt")] if graph in GOLDEN_DEPTH["files"]
                  else ["--name", graph])
        expected = GOLDEN_DEPTH["cases"][case]
        assert run(capsys, "depth", *source, "--format", "json", "--field", field) == \
            (expected["exit"], json.dumps(expected["output"], indent=2) + "\n", "")


GOLDEN_KAPPA = json.loads((Path(__file__).parent / "golden_kappa.json").read_text())


class TestKappaGoldens:
    """kappa prints, byte for byte and separator included, what the dict-network max-flow printed."""

    @pytest.fixture(scope="class")
    def graph_files(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("golden_kappa")
        for name, text in GOLDEN_KAPPA["files"].items():
            (directory / f"{name}.txt").write_text(text)
        return directory

    @pytest.mark.parametrize("case", sorted(GOLDEN_KAPPA["cases"]))
    def test_json_output(self, capsys, graph_files, case):
        graph, field = case.split()
        source = (["--input", str(graph_files / f"{graph}.txt")] if graph in GOLDEN_KAPPA["files"]
                  else ["--name", graph])
        expected = GOLDEN_KAPPA["cases"][case]
        assert run(capsys, "kappa", *source, "--format", "json", "--field", field) == \
            (expected["exit"], json.dumps(expected["output"], indent=2) + "\n", "")


class TestVerifyCommand:
    def test_figure1_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--name", "figure1")
        assert code == 0
        assert "kappa = 4" in out and "depth = 4" in out
        assert "fail" not in out

    def test_jobs_byte_identical_json(self, capsys):
        _, a, _ = run(capsys, "verify", "--name", "figure1", "--format", "json",
                      "--jobs", "1")
        _, b, _ = run(capsys, "verify", "--name", "figure1", "--format", "json",
                      "--jobs", "8")
        assert a == b

    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--name", "figure1", "--powers", "--format", "json")
        checks = [
            ("kappa_flow_equals_bruteforce", "pass", "flow=4 brute=4"),
            ("kappa_betti_equals_graph", "pass", "betti=4 graph=4"),
            ("depth_le_kappa_plus_1", "pass", "depth=4 kappa=4"),
            ("depth_lower_bound", "pass", "depth=4 lower=3"),
            ("chordal_equality", "skipped", "not chordal"),
            ("depth2_kappa_cap", "skipped", "depth != 2"),
            ("beta12_equals_complement_edges", "pass", "beta(1,2)=2 edges(G^c)=2"),
            ("table_depth_consistent", "pass", "pd(table)=2 pd(scan)=2"),
            ("symbolic_square_lower_bound", "pass", "depth=4 lower=2"),
            ("square_lower_bound", "pass", "depth=4 lower=1"),
        ]
        expected = {
            "n": 6, "edge_count": 13, "kappa": 4, "is_chordal": False, "depth": 4,
            "depth_symbolic_square": 4, "depth_square": 4,
            "bounds": {"upper": 5, "lower_depth": 3, "lower_symbolic": 2, "lower_square": 1,
                       "depth2_kappa_cap": 3},
            "checks": [{"name": n, "status": s, "detail": d} for n, s, d in checks],
            "field_characteristic": 2,
        }
        # key order is part of the output, and json.dumps keeps the dict's order
        assert code == 0 and out == json.dumps(expected, indent=2) + "\n"

    def test_json_golden_twelve_vertices(self, capsys):
        # the table checks run at every n the subset guard admits; jc6
        # attains the depth-2 cap kappa = (2n - 2) // 3 = 7
        code, out, _ = run(capsys, "verify", "--name", "jc6", "--format", "json")
        checks = [
            ("kappa_flow_equals_bruteforce", "pass", "flow=7 brute=7"),
            ("kappa_betti_equals_graph", "pass", "betti=7 graph=7"),
            ("depth_le_kappa_plus_1", "pass", "depth=2 kappa=7"),
            ("depth_lower_bound", "pass", "depth=2 lower=2"),
            ("chordal_equality", "skipped", "not chordal"),
            ("depth2_kappa_cap", "pass", "kappa=7 cap=7"),
            ("beta12_equals_complement_edges", "pass", "beta(1,2)=24 edges(G^c)=24"),
            ("table_depth_consistent", "pass", "pd(table)=10 pd(scan)=10"),
        ]
        expected = {
            "n": 12, "edge_count": 42, "kappa": 7, "is_chordal": False, "depth": 2,
            "depth_symbolic_square": None, "depth_square": None,
            "bounds": {"upper": 8, "lower_depth": 2, "lower_symbolic": 1, "lower_square": 0,
                       "depth2_kappa_cap": 7},
            "checks": [{"name": n, "status": s, "detail": d} for n, s, d in checks],
            "field_characteristic": 2,
        }
        assert code == 0 and out == json.dumps(expected, indent=2) + "\n"

    def test_example_alias_with_powers(self, capsys):
        code, out, _ = run(capsys, "example", "--name", "c6", "--powers")
        assert code == 0
        assert "depth (symbolic square) = 1" in out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_example_output_identical(self, capsys, fmt):
        argv = ["--name", "figure1", "--powers", "--format", fmt]
        assert run(capsys, "example", *argv) == run(capsys, "verify", *argv)

    def test_guard_before_scan(self, capsys):
        (code, _, err), elapsed = run_timed(capsys, "verify", "--name", "k12,12")
        assert code == 2 and "subset scan" in err
        assert elapsed < 1.0

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--name", "c6", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_bad_input_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3\n1 9\n")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 2 and "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--input", "/nonexistent/graph.txt")
        assert code == 2 and "error" in err

    def test_no_graph_exit_2(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2 and "error" in err


class TestFuzzCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--n", "6", "--count", "10", "--seed", "1")
        assert code == 0
        assert "10 graphs verified" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--n", "5", "--count", "4", "--seed", "2",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,edges,kappa")
        assert len(lines) == 5

    def test_seed_determinism(self, capsys):
        _, a, _ = run(capsys, "fuzz", "--n", "6", "--count", "8", "--seed", "3",
                      "--format", "json")
        _, b, _ = run(capsys, "fuzz", "--n", "6", "--count", "8", "--seed", "3",
                      "--format", "json")
        assert a == b


class TestSearchCommand:
    def test_n6(self, capsys):
        code, out, _ = run(capsys, "search-depth2", "--n", "6", "--budget", "40",
                           "--seed", "1")
        assert code == 0
        assert "depth-2 kappa cap = 3" in out
        assert "OVER CAP" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "search-depth2", "--n", "5", "--budget", "20",
                           "--seed", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["cap"] == 2 and payload["over_cap"] == []


class TestIdealDepthCommand:
    def test_file(self, capsys, tmp_path):
        f = tmp_path / "ideal.txt"
        f.write_text("x1^2\nx1*x2\nx2^2\n")
        code, out, _ = run(capsys, "ideal-depth", "--ideal", str(f))
        assert code == 0
        assert "depth = 0" in out and "ring has 2 variables" in out

    def test_nvars_override_json(self, capsys, tmp_path):
        f = tmp_path / "ideal.txt"
        f.write_text("x1*x2\n")
        code, out, _ = run(capsys, "ideal-depth", "--ideal", str(f), "--nvars", "4",
                           "--format", "json")
        assert json.loads(out) == {"num_vars": 4, "depth": 3, "projective_dimension": 1}

    def test_bad_term_exit_2(self, capsys, tmp_path):
        f = tmp_path / "ideal.txt"
        f.write_text("z1\n")
        code, _, err = run(capsys, "ideal-depth", "--ideal", str(f))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("text, flags, message", [
        ("x3000000\n", (), "polarized ring has 3000000 variables, over the 16 limit; override to force"),
        ("x3000000\n", ("--allow-large",), "face enumeration limited to n <= 20"),
        ("1\nx3000000^2\n", (), "the unit ideal quotient is zero; depth undefined"),
        ("x1\n", ("--nvars", "3000000", "--allow-large"), "face enumeration limited to n <= 20"),
        ("x1^0\nx3000000\n", (), "the unit ideal quotient is zero; depth undefined"),
        # x1 divides x1^17*x30, so rho_1 = 1 in the minimal ideal
        ("x1\nx1^17*x30\n", (), "polarized ring has 30 variables, over the 16 limit; override to force"),
    ])
    def test_huge_variable_index_refused_before_build(self, capsys, tmp_path, text, flags, message):
        # the guards run on the parsed generators, before any exponent tuple
        # as long as the ring is built, in the order unit, zero, size, faces
        f = tmp_path / "ideal.txt"
        f.write_text(text)
        (code, out, err), elapsed = run_timed(capsys, "ideal-depth", "--ideal", str(f), *flags)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"
        assert elapsed < 1.0

    def test_redundant_generator_not_counted(self, capsys, tmp_path):
        # the polarized-size guard counts the minimal ideal (x1), not x1^17
        f = tmp_path / "ideal.txt"
        f.write_text("x1\nx1^17\n")
        code, out, err = run(capsys, "ideal-depth", "--ideal", str(f))
        assert (code, out, err) == (0, "ring has 1 variables\ndepth = 0\nprojective dimension = 1\n", "")

    def test_zero_ideal_skips_the_size_guards(self, capsys, tmp_path):
        f = tmp_path / "ideal.txt"
        f.write_text("0\n")
        code, out, _ = run(capsys, "ideal-depth", "--ideal", str(f), "--nvars", "100")
        assert code == 0
        assert "ring has 100 variables" in out and "depth = 100" in out
