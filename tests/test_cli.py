"""Command-line behavior: outputs, JSON round trips, exit codes."""

import json
import subprocess
import sys
import time

import pytest

from borderqsym import Decomposition, k_series, reconstruct
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


def test_selftest_passes(run):
    code, out, _ = run("selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["results"]) == 5
    assert all(r["ok"] for r in payload["results"])


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


def test_verbose_env_toggle(monkeypatch):
    from borderqsym import cli

    monkeypatch.delenv("BORDERQSYM_VERBOSE", raising=False)
    assert not cli._verbose()
    monkeypatch.setenv("BORDERQSYM_VERBOSE", "1")
    assert cli._verbose()
    monkeypatch.setenv("BORDERQSYM_VERBOSE", "0")
    assert not cli._verbose()
