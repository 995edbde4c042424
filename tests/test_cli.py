"""Tests for the command-line surface: output shapes and exit codes."""
import dataclasses
import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ineqlab import polylab, subspace
from ineqlab.cli import main
from ineqlab.core import SeededRng, save_instance
from ineqlab.sweep import SweepRow, instance_regular, render_csv, render_json, rows_from_json


def nan_on_call(attr, pick):
    """polylab.attr returns NaN, shaped as its value, on each call whose (call number, *args) `pick` accepts."""
    def patch(mp):
        real, calls = getattr(polylab, attr), itertools.count(1)
        mp.setattr(polylab, attr, lambda *args: real(*args) * math.nan if pick(next(calls), *args) else real(*args))
    return patch


def nan_on_the_second_chain_cell(mp):
    """The second chain cell's jump margin is NaN, after the first cell's finite margins."""
    real, calls = polylab.witness_chain_check, itertools.count(1)
    mp.setattr(polylab, "witness_chain_check",
               lambda *args: dataclasses.replace(real(*args), jump_margin=math.nan) if next(calls) == 2 else real(*args))


def nan_on_the_second_shape_ratio(mp):
    """The second nonvacuous shape ratio is NaN, after the first's finite one."""
    real, ratios = polylab.shape_ratio, itertools.count(1)

    def ratio(lp, E):
        value = real(lp, E)
        return math.nan if value is not None and next(ratios) == 2 else value

    mp.setattr(polylab, "shape_ratio", ratio)


@pytest.fixture()
def instance_file(tmp_path):
    inst = instance_regular(SeededRng(3).spawn("demo").stream, 16, 2)
    path = tmp_path / "instance.txt"
    save_instance(inst, path)
    return str(path)


def write_config(tmp_path, **overrides):
    raw = {
        "N": [16],
        "t": [2],
        "S": {"kind": "absolute", "value": 8},
        "modes": ["classical"],
        "seeds": 2,
        "family": "regular",
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


class TestSolve:
    def test_exact_mode_emits_json_summary(self, instance_file, capsys):
        code = main(["solve", "--instance", instance_file, "--space", "8",
                     "--mode", "exact", "--seed", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "N", "t", "S", "mode", "seed", "correct",
            "queries_x", "queries_b", "space_high_water", "per_subroutine",
        }
        assert payload["N"] == 16 and payload["t"] == 2 and payload["S"] == 8
        assert payload["correct"] is True
        assert isinstance(payload["per_subroutine"], dict)

    def test_classical_mode(self, instance_file, capsys):
        code = main(["solve", "--instance", instance_file, "--space", "8",
                     "--mode", "classical", "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "classical"
        assert payload["queries_x"] > 0

    def test_deterministic_per_seed(self, instance_file, capsys):
        argv = ["solve", "--instance", instance_file, "--space", "8",
                "--mode", "cost-model", "--seed", "9"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_missing_instance_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", "--instance", str(tmp_path / "nope.txt"),
                     "--space", "8", "--mode", "exact", "--seed", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_statevector_rejects_value_x_before_running(self, tmp_path, capsys):
        path = tmp_path / "value-x.txt"
        path.write_text("2 2\n1 0\n0 0\n2 0\n1 0\n", encoding="utf-8")
        code = main(["solve", "--instance", str(path), "--space", "8",
                     "--mode", "statevector", "--seed", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "statevector mode takes 0/1 x only; x[0] = 2" in captured.err

    def test_seed_beyond_uint32_is_usage_error(self, instance_file, capsys):
        # 2^32 would otherwise replay the stream of seed 0
        code = main(["solve", "--instance", instance_file, "--space", "8",
                     "--mode", "cost-model", "--seed", "4294967296"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside [0, 2^32)" in captured.err

    @pytest.mark.parametrize("entry", ["100000000000000000000000", "9223372036854775808"])
    def test_entry_past_int64_is_usage_error(self, tmp_path, capsys, entry):
        # a bad input exits 2; exit 1 would mean a check failed
        path = tmp_path / "huge.txt"
        path.write_text(f"2 2\n{entry} 0\n0 1\n1 1\n1 1\n", encoding="utf-8")
        code = main(["solve", "--instance", str(path), "--space", "8",
                     "--mode", "exact", "--seed", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "A entries must be whole numbers that fit 64-bit integers" in captured.err

    def test_bad_mode_rejected_by_parser(self, instance_file):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--instance", instance_file, "--space", "8",
                  "--mode", "warp", "--seed", "0"])
        assert info.value.code == 2


class TestSweep:
    def test_csv_output_and_rerun_identical(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        first = out.read_bytes()
        assert first.startswith(b"N,t,S,mode,seed,T,queries_x,queries_b,space,correct\n")
        assert len(first.splitlines()) == 3   # header + 2 seeds
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        assert out.read_bytes() == first

    def test_json_round_trip(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "rows.json"
        code = main(["sweep", "--config", config, "--out", str(out),
                     "--format", "json"])
        assert code == 0
        rows = rows_from_json(out.read_text(encoding="utf-8"))
        assert len(rows) == 2
        assert rows[0].n == 16 and rows[0].mode == "classical"

    def test_out_path_from_config(self, tmp_path, capsys):
        out = tmp_path / "from-config.csv"
        config = write_config(tmp_path, out=str(out))
        assert main(["sweep", "--config", config]) == 0
        assert out.exists()

    def test_out_flag_wins_over_config_out(self, tmp_path, capsys):
        from_config, from_flag = tmp_path / "from-config.csv", tmp_path / "from-flag.csv"
        config = write_config(tmp_path, out=str(from_config))
        assert main(["sweep", "--config", config, "--out", str(from_flag)]) == 0
        assert from_flag.exists() and not from_config.exists()

    @pytest.mark.parametrize("override, message", [
        ({"famly": "uniform"}, "unknown key 'famly'"),
        ({"out": {"a": 1}}, "'out' takes a non-empty path"),
        ({"modes": "exact"}, "'modes' takes a list"),
        ({"N": [8, 8], "modes": ["exact", "exact"]}, "'N' repeats an entry"),
    ])
    def test_malformed_config_is_usage_error(self, override, message, tmp_path, capsys,
                                             monkeypatch):
        # refused with the config: exit 2 and no report under any name
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, **{"out": "rows.csv", **override})
        assert main(["sweep", "--config", config]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_missing_out_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["sweep", "--config", config]) == 2

    def test_missing_key_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        with open(config, encoding="utf-8") as fh:
            raw = json.load(fh)
        del raw["seeds"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweep", "--config", str(broken), "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_unknown_mode_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, modes=["warp"])
        assert main(["sweep", "--config", config, "--out",
                     str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("space", [0, -5, {"kind": "nt-fraction", "value": 0}])
    def test_nonpositive_space_is_usage_error(self, space, tmp_path, capsys):
        # rejected with the config, before any cell runs
        config = write_config(tmp_path, S=space)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("space, message", [
        (16.9, "whole number"), (0.5, "whole number"), (True, "must be a number"),
    ])
    def test_fractional_or_boolean_space_is_usage_error(self, space, message, tmp_path, capsys):
        # a truncated budget would run the cells at another S
        config = write_config(tmp_path, S=space)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_size_is_usage_error(self, tmp_path, capsys):
        # a truncated N would run the cells at another size
        config = write_config(tmp_path, N=[16.9])
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert "takes whole numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_even_reps_is_usage_error(self, tmp_path, capsys):
        # rejected with the config, before any cell runs and fails
        config = write_config(tmp_path, modes=["cost-model"], reps=2)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert "reps must be odd and positive" in capsys.readouterr().err
        assert not out.exists()


class TestSubspaceVerify:
    def test_small_cell_passes_and_dumps_json(self, tmp_path, capsys):
        dump = tmp_path / "lines.json"
        code = main(["subspace", "verify", "--n", "4", "--t", "2", "--k", "1",
                     "--json", str(dump)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        detail = json.loads(dump.read_text(encoding="utf-8"))
        assert len(detail) == 11
        assert all(entry["passed"] for entry in detail)

    def test_violated_bound_is_a_fail_line(self, monkeypatch, capsys):
        # a bound the library measures is decided by the suite line, so a
        # violation prints FAIL and exits 1 instead of raising (exit 2)
        monkeypatch.setattr(subspace, "BOUND_SLACK", -1.0)
        code = main(["subspace", "verify", "--n", "4", "--t", "2", "--k", "1", "--runs", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] potential tail decay along runs" in out
        assert "[FAIL] probability bounds along runs" in out

    def test_infeasible_cell_is_usage_error(self, capsys):
        assert main(["subspace", "verify", "--n", "4", "--t", "3", "--k", "1"]) == 2

    def test_three_copies_pass(self, capsys):
        assert main(["subspace", "verify", "--n", "4", "--t", "2", "--k", "3", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 11 and "[FAIL]" not in out

    @pytest.mark.parametrize("k, message", [("0", "k must be at least 1"), ("4", "joint dimension")])
    def test_copies_outside_the_size_rule_are_usage_errors(self, k, message, capsys):
        assert main(["subspace", "verify", "--n", "4", "--t", "2", "--k", k]) == 2
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out
        assert message in captured.err

    @pytest.mark.parametrize("flag, value", [("--runs", "-3"), ("--runs", "0"), ("--depth", "0")])
    def test_no_runs_or_queries_is_usage_error(self, flag, value, capsys):
        # an along-run line over no run or no query would pass vacuously
        assert main(["subspace", "verify", "--n", "4", "--t", "2", "--k", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out
        assert "at least 1" in captured.err


class TestPolyVerify:
    def test_blocks_suite_with_csv_dump(self, tmp_path, capsys):
        dump = tmp_path / "blocks.csv"
        code = main(["poly", "verify", "--suite", "blocks", "--out", str(dump)])
        assert code == 0
        data = dump.read_bytes()
        assert b"\r" not in data
        lines = data.decode("utf-8").splitlines()
        assert lines[0] == "k,t,n,p_half_full,p_block_full"
        assert len(lines) == 1 + len(polylab.BLOCKS_GRID)

    def test_seed_option_is_gone(self, capsys):
        # no suite draws, so a seed would change nothing
        with pytest.raises(SystemExit) as exc:
            main(["poly", "verify", "--suite", "cheb", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("patch", [
        # equispaced nodes: their Lebesgue sum grows far past |T_d| outside [-1, 1]
        lambda mp: mp.setattr(polylab, "_lobatto_nodes", lambda d: np.linspace(-1.0, 1.0, d + 1)),
        # a probe inside [-1, 1], where the claim does not hold
        lambda mp: mp.setattr(polylab, "cheb_dominance_excess",
                              functools.partial(polylab.cheb_dominance_excess, probe_points=(0.5,))),
    ])
    def test_dominance_fails_on_wrong_input(self, patch, monkeypatch, capsys):
        patch(monkeypatch)
        assert main(["poly", "verify", "--suite", "cheb"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] dominance outside the interval" in out
        assert out.count("[PASS]") == 3

    @pytest.mark.parametrize("suite, name, patch", [
        # each NaN follows finite values, where Python's max and min would drop it
        pytest.param("cheb", "evaluation routes agree", nan_on_call("chebyshev_closed", lambda i, d, x: d == 100),
                     id="routes"),
        pytest.param("cheb", "endpoint value is one",
                     nan_on_call("chebyshev_eval", lambda i, d, x: d == 100 and np.ndim(x) == 0), id="endpoint"),
        pytest.param("cheb", "growth bound on the grid",
                     nan_on_call("chebyshev_eval", lambda i, d, x: d == 50 and np.ndim(x) == 1), id="growth"),
        pytest.param("cheb", "dominance outside the interval",
                     nan_on_call("lagrange_basis", lambda i, nodes, x: len(nodes) == 13), id="dominance"),
        pytest.param("lp", "proof chain on witnesses", nan_on_the_second_chain_cell, id="chain"),
        pytest.param("lp", "shape bound constant (report only)", nan_on_the_second_shape_ratio, id="shape"),
        pytest.param("cr", "interior growth constants (report only)",
                     nan_on_call("_floored_slope", lambda i, us, vs: i == 1), id="interior-growth"),
        pytest.param("cr", "fit stable across domain sizes",
                     nan_on_call("_floored_slope", lambda i, us, vs: i == 4), id="stability"),
        pytest.param("blocks", "half the blocks are full",
                     nan_on_call("half_full_rate", lambda i, *cell: cell == polylab.BLOCKS_GRID[-1]), id="half"),
        pytest.param("blocks", "single block fullness rate",
                     nan_on_call("block_full_rate", lambda i, *cell: cell == polylab.BLOCKS_GRID[-1]), id="block"),
    ])
    def test_nan_fails_its_line(self, suite, name, patch, monkeypatch, capsys):
        patch(monkeypatch)
        assert main(["poly", "verify", "--suite", suite]) == 1
        out = capsys.readouterr().out
        assert f"[FAIL] {name}: residual=nan" in out
        assert out.count("[FAIL]") == 1

    @pytest.mark.parametrize("floor, rate, name", [
        ("HALF_FULL_FLOOR", polylab.half_full_rate, "half the blocks are full"),
        ("BLOCK_FULL_FLOOR", polylab.block_full_rate, "single block fullness rate"),
    ])
    def test_blocks_fail_just_above_the_grid_minimum(self, floor, rate, name, monkeypatch, capsys):
        worst = Fraction(min(rate(*cell) for cell in polylab.BLOCKS_GRID))
        monkeypatch.setattr(polylab, floor, worst)
        assert main(["poly", "verify", "--suite", "blocks"]) == 0
        monkeypatch.setattr(polylab, floor, worst + Fraction(1, 10**15))
        assert main(["poly", "verify", "--suite", "blocks"]) == 1
        out = capsys.readouterr().out
        assert out.count(f"[FAIL] {name}") == 1
        assert out.count("[FAIL]") == 1


class TestReport:
    def test_summary_over_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "rows.csv"
        main(["sweep", "--config", config, "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rows: 2" in text
        assert "correct: 2/2" in text

    def test_summary_over_json(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "rows.json"
        main(["sweep", "--config", config, "--out", str(out), "--format", "json"])
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 0
        assert "rows: 2" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["rows.JSON", "rows.Json"])
    def test_json_suffix_matched_in_any_case(self, tmp_path, capsys, name):
        config = write_config(tmp_path)
        out = tmp_path / name
        assert main(["sweep", "--config", config, "--out", str(out), "--format", "json"]) == 0
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 0
        captured = capsys.readouterr()
        assert "rows: 2" in captured.out and captured.err == ""

    def test_fit_grouped_by_mode_t_and_space(self, tmp_path, capsys):
        # t = 1 rows grow like N^1.5 and t = 2 rows like N^2; one fit over
        # both would blend the two exponents
        rows = [SweepRow(n=n, t=t, s=8, mode="exact", seed=0,
                         total_queries=round(n ** (1.5 if t == 1 else 2.0)),
                         queries_x=1, queries_b=1, space=8, correct=True)
                for t in (1, 2) for n in (16, 64, 256)]
        path = tmp_path / "rows.csv"
        path.write_text(render_csv(rows), encoding="utf-8")
        assert main(["report", "--in", str(path)]) == 0
        text = capsys.readouterr().out
        assert "mode exact t=1 S=8: N-exponent 1.500" in text
        assert "mode exact t=2 S=8: N-exponent 2.000" in text

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path / "gone.csv")]) == 2

    GOOD_ROW = {"N": 16, "t": 2, "S": 8, "mode": "exact", "seed": 0, "T": 90,
                "queries_x": 74, "queries_b": 16, "space": 40, "correct": True}

    @pytest.mark.parametrize("payload, message", [
        ([{}], "missing key 'N'"),
        ({"N": 1}, "list of rows"),
        ([{**GOOD_ROW, "N": 16.9}], "whole numbers"),
        ([{**GOOD_ROW, "t": True}], "whole numbers"),
        ([{**GOOD_ROW, "mode": "bogus"}], "'mode' takes one of"),
        ([{**GOOD_ROW, "correct": "false"}], "true or false"),
        ([{**GOOD_ROW, "N": -16}, {**GOOD_ROW, "N": 0}, {**GOOD_ROW, "N": 32}],
         "'N' takes values >= 1"),
    ])
    def test_malformed_json_report_is_usage_error(self, tmp_path, capsys, payload, message):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["report", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_good_json_row_is_read(self, tmp_path, capsys):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps([self.GOOD_ROW]), encoding="utf-8")
        assert main(["report", "--in", str(path)]) == 0
        assert "correct: 1/1" in capsys.readouterr().out

    @pytest.mark.parametrize("suffix", ["json", "csv"])
    def test_zero_median_group_prints_undefined_exponent(self, tmp_path, capsys, suffix):
        # T = 0 is a legal row: the group's exponent is undefined, the report exits 0
        rows = [SweepRow(n=n, t=2, s=8, mode="exact", seed=0, total_queries=0,
                         queries_x=0, queries_b=0, space=8, correct=True) for n in (16, 32, 64)]
        rows += [SweepRow(n=n, t=1, s=8, mode="exact", seed=0, total_queries=n * n,
                          queries_x=1, queries_b=1, space=8, correct=True) for n in (16, 32, 64)]
        path = tmp_path / f"rows.{suffix}"
        path.write_text(render_json(rows) if suffix == "json" else render_csv(rows), encoding="utf-8")
        assert main(["report", "--in", str(path)]) == 0
        text = capsys.readouterr().out
        assert "mode exact t=2 S=8: N-exponent undefined (median T is 0 at N=16)\n" in text
        assert "mode exact t=1 S=8: N-exponent 2.000 +- 0.000" in text
        assert "nan" not in text

    def test_python_bool_in_csv_is_usage_error(self, tmp_path, capsys):
        row = SweepRow(n=16, t=2, s=8, mode="exact", seed=0, total_queries=90,
                       queries_x=74, queries_b=16, space=40, correct=True)
        path = tmp_path / "rows.csv"
        path.write_text(render_csv([row]).replace(",true", ",True"), encoding="utf-8")
        assert main(["report", "--in", str(path)]) == 2
        assert "'correct' has unreadable value 'True'" in capsys.readouterr().err


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
