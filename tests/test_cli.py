"""Command-line behavior: outputs, JSON round trips, exit codes."""

import json
import subprocess
import sys
import time

import pytest

from borderqsym import Decomposition, cli, k_series, reconstruct
from borderqsym.cli import dump_json, main, parse_factor
from conftest import spec


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestFactorGrammar:
    def test_parse(self):
        assert parse_factor("K:2:1,2") == ("K", spec(2, 1, 2))
        assert parse_factor("L:3:2") == ("L", spec(3, 2))
        assert parse_factor("K:2:") == ("K", spec(2))
        assert parse_factor("K:0:") == ("K", spec(0))

    @pytest.mark.parametrize("bad", ["K:2", "M:2:1", "K:x:1", "K:2:9", "2:1", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_factor(bad)


class TestSeriesCommands:
    def test_kseries_terms(self, run):
        code, out, _ = run("kseries", "--n", "2", "--set", "1", "--vars", "2")
        assert code == 0
        assert out.splitlines() == [
            "2 x0*x1",
            "2 x0*x2",
            "1 x0*xinf",
            "2 x1^2",
            "4 x1*x2",
            "2 x1*xinf",
            "2 x2^2",
            "2 x2*xinf",
            "1 xinf^2",
        ]

    def test_lseries_terms(self, run):
        code, out, _ = run("lseries", "--n", "3", "--set", "1", "--vars", "2")
        assert code == 0
        assert out.splitlines() == [
            "1 x0^3",
            "2 x0^2*x1",
            "2 x0^2*x2",
            "1 x0^2*xinf",
        ]

    def test_default_vars_is_the_degree(self, run):
        code, out, _ = run("kseries", "--n", "3", "--json")
        assert code == 0
        assert json.loads(out)["vars"] == 3

    def test_kseries_q_variant(self, run):
        code, out, _ = run("kseries", "--n", "1", "--set", "", "--vars", "1", "--q", "3")
        assert code == 0
        assert out.splitlines() == ["1 x0", "3 x1", "1 xinf"]

    def test_kseries_rejects_zero_q(self, run):
        code, _, err = run("kseries", "--n", "1", "--q", "0")
        assert code == 1
        assert "error" in err

    def test_multiply_worked_product(self, run):
        code, out, _ = run("multiply", "--left", "L:2:1", "--right", "L:3:2", "--vars", "1")
        assert code == 0
        assert out.splitlines() == ["1 x0^5", "2 x0^2*x1^3", "1 x0^2*xinf^3"]

    def test_json_round_trip(self, run):
        for argv in (
            ("kseries", "--n", "2", "--set", "1", "--vars", "2", "--json"),
            ("multiply", "--left", "K:1:", "--right", "K:1:1", "--json"),
            ("decompose", "--left", "L:2:1", "--right", "L:3:2", "--json"),
            ("shuffle-formula", "--m", "5", "--set", "1,2,4", "--json"),
            ("gp", "--string", "BCACDD", "--json"),
        ):
            code, out, _ = run(*argv)
            assert code == 0
            assert dump_json(json.loads(out)) == out


class TestDecomposeCommand:
    def test_worked_product(self, run):
        code, out, _ = run(
            "decompose", "--basis", "L", "--left", "L:2:1", "--right", "L:3:2", "--vars", "5", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "basis": "L",
            "degree": 5,
            "terms": [{"coeff": 1, "set": [1, 4]}],
        }

    def test_human_lines_use_the_factor_grammar(self, run):
        code, out, _ = run("decompose", "--left", "L:2:1", "--right", "L:3:2")
        assert code == 0
        assert out.splitlines() == ["+1 L:5:1,4"]

    def test_k_basis_output_reconstructs_the_product(self, run):
        code, out, _ = run(
            "decompose", "--basis", "K", "--left", "K:2:", "--right", "K:2:1,2", "--vars", "4", "--json"
        )
        assert code == 0
        dec = Decomposition.from_json_obj(json.loads(out))
        product = k_series(spec(2), 4) * k_series(spec(2, 1, 2), 4)
        assert reconstruct(dec, 4) == product

    def test_vars_below_degree_is_a_domain_error(self, run):
        code, _, err = run("decompose", "--left", "L:2:1", "--right", "L:3:2", "--vars", "3")
        assert code == 1
        assert "error" in err


class TestShuffleCommands:
    def test_shuffle_formula_lines(self, run):
        code, out, _ = run("shuffle-formula", "--m", "5", "--set", "1,2,4")
        assert code == 0
        assert out.splitlines() == [
            "1 K:6:2,5",
            "1 K:6:1,2,4",
            "1 K:6:1,2,5",
            "2 K:6:1,3,5",
            "1 K:6:1,2,4,6",
        ]

    def test_shuffle_formula_json(self, run):
        code, out, _ = run("shuffle-formula", "--m", "1", "--set", "", "--json")
        assert code == 0
        assert json.loads(out) == [
            {"multiplicity": 1, "set": [1]},
            {"multiplicity": 1, "set": [2]},
        ]

    def test_gp(self, run):
        assert run("gp", "--string", "BCACDD")[1] == "{1,3}\n"
        assert json.loads(run("gp", "--string", "BCACDD", "--json")[1]) == {"n": 6, "set": [1, 3]}
        code, _, err = run("gp", "--string", "BXD")
        assert code == 1
        assert "error" in err


class TestCheckCommands:
    def test_check_spreading_holds(self, run):
        code, out, _ = run("check-spreading", "--left", "L:2:1", "--right", "L:2:")
        assert code == 0
        assert "spreading holds" in out
        assert "vars 5" in out  # degree + 1 by default

    def test_check_q(self, run):
        code, out, _ = run("check-q", "--q", "3")
        assert code == 1
        assert "outside" in out
        code, out, _ = run("check-q", "--q", "2", "--json")
        assert code == 0
        assert json.loads(out) == {"in_span": True, "q": 2}
        assert run("check-q", "--q", "0")[0] == 1


class TestExitCodes:
    def test_unknown_subcommand(self, run):
        code, _, err = run("frobnicate")
        assert code == 1
        assert "usage" in err

    def test_missing_required_flag(self, run):
        code, _, err = run("kseries")
        assert code == 1
        assert "usage" in err

    def test_bad_factor(self, run):
        code, _, err = run("multiply", "--left", "Q:1:", "--right", "K:1:")
        assert code == 1
        assert "error" in err

    def test_help_exits_zero(self, run):
        assert run("--help")[0] == 0

    def test_internal_error_prints_its_traceback(self, run, monkeypatch):
        def broken(args):
            raise RuntimeError("invariant broke")

        monkeypatch.setattr(cli, "_cmd_gp", broken)
        code, out, err = run("gp", "--string", "AB")
        assert code == 2
        assert out == ""
        assert err.startswith("Traceback") and err.endswith("internal error: invariant broke\n")


def test_selftest_lines(run):
    # the counts pin each sweep's extent: a suite that stopped early would still say ok
    code, out, _ = run("selftest")
    assert code == 0
    assert out.splitlines() == [
        "ok   closure (n+m <= 5, both bases): 642 products decomposed and reconstructed exactly",
        "ok   inclusion-exclusion round trips (n <= 6): 254 round trips are identities",
        "ok   degree-1 product rule (m <= 4): 62 products match their peak-set expansions",
        "ok   case-rule coefficients (m <= 4): 8563 coefficients match the case rule",
        "ok   base-2 rigidity (q = 3 fails, q = 2 works): q=2 representable, q=3 outside the span",
    ]


def test_selftest_passes(run):
    code, out, _ = run("selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["results"]) == 5
    assert all(r["ok"] for r in payload["results"])
    # each suite's wall time, a field added beside the others
    assert all(set(r) == {"name", "ok", "detail", "seconds"} for r in payload["results"])
    assert all(isinstance(r["seconds"], float) and r["seconds"] >= 0 for r in payload["results"])


def test_oversized_request_refused_promptly(run):
    start = time.perf_counter()
    code, out, err = run("kseries", "--n", "12", "--vars", "200")
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert "13278801323196590818" in err and "10000000" in err


def test_member_with_too_many_patterns_refused_promptly(run):
    # the slice at V = 1 is small, but a degree-23 member has 2^24 masks
    start = time.perf_counter()
    code, out, err = run("kseries", "--n", "23", "--vars", "1")
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert "16777216" in err and "10000000" in err


@pytest.mark.parametrize("argv", [
    ("kseries", "--n", "2", "--vars", "0"),
    ("kseries", "--n", "2", "--vars", "-3"),
    ("lseries", "--n", "2", "--vars", "0"),
    ("multiply", "--left", "K:1:", "--right", "K:1:1", "--vars", "0"),
    ("decompose", "--left", "L:2:1", "--right", "L:3:2", "--vars", "0"),
    ("check-spreading", "--left", "L:2:1", "--right", "L:3:2", "--vars", "0"),
])
def test_vars_below_one_refused(run, argv):
    code, out, err = run(*argv)
    assert code == 1
    assert out == ""
    assert err == f"error: truncation must be a positive integer, got {argv[-1]}\n"


def test_vars_zero_refused_before_building_a_large_member(run):
    start = time.perf_counter()
    code, out, err = run("kseries", "--n", "22", "--vars", "0")
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert "truncation must be a positive integer" in err


def test_product_of_members_under_the_limit_runs(run):
    code, out, _ = run("multiply", "--left", "K:12:", "--right", "K:11:", "--vars", "1")
    assert code == 0
    assert out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "borderqsym", "gp", "--string", "AB"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "{1}\n"


def test_shuffle_formula_refuses_a_quadratic_expansion_promptly(run):
    # m + 1 shuffles of m + 1 letters each: (m + 1)^2 above 10^7 from m = 3162 on
    for m, size in (("1000000", "1000002000001"), ("3162", "10004569")):
        start = time.perf_counter()
        code, out, err = run("shuffle-formula", "--m", m)
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == ""
        assert size in err and "10000000" in err


# Runs one request in a child without site, so that no .pth hook of the
# environment loads a module first, and reports every module it loaded.
PROBE = """
import sys
from borderqsym.cli import main
code = main(sys.argv[1:])
sys.stderr.write(" ".join(sys.modules))
sys.exit(code)
"""


def modules_loaded_by(*argv):
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_the_cold_path_stays_cold():
    # a decomposition request needs none of these, and each costs import time
    loaded = modules_loaded_by("decompose", "--basis", "K", "--left", "K:3:1", "--right", "K:4:2,3", "--json")
    assert "borderqsym.basis" in loaded
    cold = {"dataclasses", "inspect", "fractions", "traceback",
            "borderqsym.oracle", "borderqsym.shuffle", "borderqsym.verify"}
    assert sorted(cold & loaded) == []


@pytest.mark.parametrize("argv, needs", [
    (("check-spreading", "--left", "L:2:1", "--right", "L:3:2", "--json"), {"borderqsym.oracle"}),
    (("shuffle-formula", "--m", "3", "--set", "1,3", "--json"), {"borderqsym.shuffle"}),
    (("check-q", "--q", "2", "--json"), {"borderqsym.verify", "fractions"}),
    (("selftest", "--json"), {"borderqsym.verify", "borderqsym.oracle", "borderqsym.shuffle"}),
])
def test_each_verifier_command_loads_what_it_runs(argv, needs):
    assert needs <= modules_loaded_by(*argv)
