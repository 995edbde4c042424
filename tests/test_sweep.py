"""Tests for sweep execution, scaling fits, and report serialization."""
import json
import math

import numpy as np
import pytest

from ineqlab import sweep
from ineqlab.core import SeededRng, matvec_min
from ineqlab.sweep import (
    CSV_HEADER,
    FAMILIES,
    ScalingFit,
    SpaceRule,
    SweepConfig,
    SweepRow,
    emit_report,
    fit_scaling,
    instance_hover_sqrt,
    instance_regular,
    instance_zero,
    regime_label,
    render_csv,
    render_json,
    rows_from_csv,
    rows_from_json,
    run_cell,
    run_sweep,
)


def planted_rows(law, n_values, seeds=3, jitter=None):
    rows = []
    for n in n_values:
        for seed in range(seeds):
            T = int(law(n))
            if jitter and seed == 0:
                T *= jitter  # single outlier; medians must shrug it off
            rows.append(SweepRow(n=n, t=2, s=16, mode="exact", seed=seed,
                                 total_queries=T, queries_x=T, queries_b=0,
                                 space=10, correct=True))
    return rows


def reference_regular(rng, n, t):
    """The regular family drawn row by row with Generator.choice."""
    A = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        A[u, rng.choice(n, size=min(n, sweep.REGULAR_ROW_NNZ), replace=False)] = 1
    return A, rng.integers(0, t + 1, size=n), rng.integers(1, t + 1, size=n)


class TestFamilies:
    def test_all_families_produce_valid_instances(self):
        for name, make in FAMILIES.items():
            rng = SeededRng(11).spawn("fam", name).stream
            inst = make(rng, 17, 3)
            assert inst.n == 17
            assert inst.t == 3
            assert (inst.x <= 3).all()
            assert (inst.b >= 1).all() or name == "zero"

    def test_hover_family_plants_sqrt_ones(self):
        for n in (4, 16, 17, 64, 100):
            rng = SeededRng(12).spawn("hov", n).stream
            inst = instance_hover_sqrt(rng, n, 2)
            assert int((inst.x > 0).sum()) == math.isqrt(n - 1) + 1

    @pytest.mark.parametrize("n", [1, 2, 11, 12, 13, 16, 128, 1024])
    @pytest.mark.parametrize("live_half", [False, True])
    def test_regular_rows_match_per_row_choice(self, n, live_half):
        # the rows drawn in one call are the supports of the per-row choice loop, and
        # x, b and the Generator's state afterwards are the same
        for seed in range(20):
            rng, ref = (SeededRng(seed).spawn("regular", n).stream for _ in range(2))
            if live_half:   # one 32-bit draw buffers its word's high half
                rng.integers(0, 17)
                ref.integers(0, 17)
            inst = instance_regular(rng, n, 3)
            A, x, b = reference_regular(ref, n, 3)
            assert np.array_equal(inst.A, A), seed
            assert np.array_equal(inst.x, x) and np.array_equal(inst.b, b), seed
            assert rng.bit_generator.state == ref.bit_generator.state, seed
            assert (inst.A.sum(axis=1) == min(n, sweep.REGULAR_ROW_NNZ)).all()

    @pytest.mark.parametrize("halves", [0, 1, 2])
    @pytest.mark.parametrize("highs", [[3 * 2**30 + 1] * 64, [1, 5, 1, 1, 2**32, 7, 1], [1], []])
    def test_broadcast_integers_draw_as_scalar_calls(self, highs, halves):
        # instance_regular rests on this numpy behaviour: a broadcast int64
        # integers(0, highs) draws each element as the scalar integers(0, h) calls
        # would in turn, from the same 32-bit buffer and with the same rejections,
        # and a range of 1 draws nothing.  At h = 3 * 2**30 + 1 about a quarter
        # of draws reject.  One 32-bit draw beforehand leaves a live high half
        # buffered, two leave it spent
        rng, ref = (SeededRng(9).spawn("broadcast", len(highs)).stream for _ in range(2))
        for _ in range(halves):
            rng.integers(0, 17)
            ref.integers(0, 17)
        got = rng.integers(0, np.broadcast_to(np.array(highs, dtype=np.int64), (3, len(highs))))
        expect = [[int(ref.integers(0, h)) for h in highs] for _ in range(3)]
        assert got.dtype == np.int64 and got.tolist() == expect
        assert rng.bit_generator.state == ref.bit_generator.state
        assert ref.integers(0, 2**32) == rng.integers(0, 2**32)   # the buffered half agrees too

    def test_zero_family_is_empty(self):
        inst = instance_zero(SeededRng(13).stream, 8, 2)
        assert not inst.A.any()
        assert not inst.x.any()
        assert np.array_equal(matvec_min(inst), np.zeros(8, dtype=np.int64))


class TestSpaceRule:
    def test_absolute(self):
        assert SpaceRule("absolute", 16).budget(999, 7) == 16

    def test_nt_fraction(self):
        assert SpaceRule("nt-fraction", 0.5).budget(64, 2) == 16
        assert SpaceRule("nt-fraction", 0.001).budget(8, 2) == 1  # floor at 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown space rule kind"):
            SpaceRule("relative", 1.0)

    @pytest.mark.parametrize("kind, value", [
        ("absolute", 0), ("absolute", -5), ("nt-fraction", 0.0),
        ("nt-fraction", -0.5), ("absolute", math.inf), ("nt-fraction", math.nan),
    ])
    def test_nonpositive_or_nonfinite_value_rejected(self, kind, value):
        # budget() floors at 1, so such a value would run silently at S = 1
        with pytest.raises(ValueError, match="must be finite and > 0"):
            SpaceRule(kind, value)

    @pytest.mark.parametrize("value", [16.9, 0.5])
    def test_fractional_absolute_value_rejected(self, value):
        # budget() would truncate it to another S without a word
        with pytest.raises(ValueError, match="whole number"):
            SpaceRule("absolute", value)

    def test_whole_float_absolute_value_accepted(self):
        assert SpaceRule("absolute", 16.0).budget(8, 2) == 16


class TestSweepConfig:
    def test_from_dict_defaults(self):
        cfg = SweepConfig.from_dict({"N": [8, 16], "t": [1], "S": 16,
                                     "modes": ["exact"], "seeds": 1})
        assert cfg.n_values == (8, 16)
        assert cfg.space_rule == SpaceRule("absolute", 16)
        assert cfg.modes == ("exact",)
        assert cfg.seeds == 1
        assert cfg.family == "regular"
        assert cfg.reps is None
        assert cfg.out is None

    def test_from_json_with_scalar_space(self):
        cfg = SweepConfig.from_dict(json.loads(
            '{"N": [8], "t": [2], "S": 4, "modes": ["exact", "classical"],'
            ' "seeds": 2, "family": "zero", "reps": 5, "out": "rows.csv"}'))
        assert cfg.space_rule == SpaceRule("absolute", 4.0)
        assert cfg.modes == ("exact", "classical")
        assert cfg.reps == 5
        assert cfg.out == "rows.csv"

    def test_s_key_sets_the_budget(self):
        cfg = SweepConfig.from_dict({"N": [8], "t": [1], "S": 4,
                                     "modes": ["exact"], "seeds": 1})
        assert cfg.space_rule.budget(8, 1) == 4
        cfg = SweepConfig.from_dict({"N": [8], "t": [2], "modes": ["exact"], "seeds": 1,
                                     "S": {"kind": "nt-fraction", "value": 0.5}})
        assert cfg.space_rule.budget(8, 2) == 2

    def test_missing_or_legacy_keys_rejected(self):
        full = {"N": [8], "t": [1], "S": 4, "modes": ["exact"], "seeds": 1}
        for key in full:
            raw = {k: v for k, v in full.items() if k != key}
            with pytest.raises(ValueError, match=f"missing key '{key}'"):
                SweepConfig.from_dict(raw)
        legacy = {k: v for k, v in full.items() if k != "S"}
        with pytest.raises(ValueError):
            SweepConfig.from_dict({**legacy, "space": 4})
        with pytest.raises(ValueError):
            SweepConfig.from_dict({**full, "S": {"value": 4}})
        with pytest.raises(ValueError, match="number or {kind, value}"):
            SweepConfig.from_dict({**full, "S": {"kind": "absolute", "value": 4, "knd": "nt-fraction"}})
        with pytest.raises(ValueError):
            SweepConfig.from_dict([full])
        with pytest.raises(ValueError):
            SweepConfig.from_dict({**full, "N": 8})

    def test_invalid_configs_rejected(self):
        base = {"N": [8], "t": [1], "S": 4, "modes": ["exact"], "seeds": 1}
        with pytest.raises(ValueError):
            SweepConfig.from_dict({**base, "modes": ["warp"]})
        with pytest.raises(ValueError):
            SweepConfig.from_dict({**base, "family": "nope"})
        with pytest.raises(ValueError):
            SweepConfig.from_dict({**base, "N": [0]})
        with pytest.raises(ValueError):
            SweepConfig.from_dict({**base, "t": [-1]})
        for reps in (2, 0, -3):
            with pytest.raises(ValueError, match="reps must be odd and positive"):
                SweepConfig.from_dict({**base, "reps": reps})
        for reps in (True, 3.5):
            with pytest.raises(ValueError, match="takes whole numbers"):
                SweepConfig.from_dict({**base, "reps": reps})

    def test_reps_taken_as_int(self):
        # from_dict reads a whole JSON number as an int; the constructor refuses a float
        # or bool and keeps a numpy integer as the int it equals
        base = {"N": [8], "t": [1], "S": 4, "modes": ["exact"], "seeds": 1}
        config = SweepConfig.from_dict({**base, "reps": 3.0})
        assert type(config.reps) is int and config.reps == 3
        fields = {f: getattr(config, f) for f in ("n_values", "t_values", "space_rule", "modes", "seeds")}
        assert type(SweepConfig(**fields, reps=np.int64(5)).reps) is int
        for reps in (3.0, True):
            with pytest.raises(ValueError, match="reps must be a whole number"):
                SweepConfig(**fields, reps=reps)

    @pytest.mark.parametrize("space, message", [
        (16.9, "whole number"), (0.5, "whole number"),
        ({"kind": "absolute", "value": 7.2}, "whole number"),
        (True, "must be a number"), ({"kind": "nt-fraction", "value": True}, "must be a number"),
    ])
    def test_fractional_or_boolean_space_rejected(self, space, message):
        base = {"N": [8], "t": [1], "modes": ["exact"], "seeds": 1}
        with pytest.raises(ValueError, match=message):
            SweepConfig.from_dict({**base, "S": space})

    @pytest.mark.parametrize("override", [
        {"N": [16.9, True], "t": [2.7], "seeds": 2.5, "reps": 5.9},
        {"N": [16.9]}, {"N": [8, True]}, {"N": ["8"]}, {"t": [2.7]}, {"t": [False]},
        {"seeds": 2.5}, {"seeds": True}, {"reps": 5.9}, {"reps": True},
    ])
    def test_fractional_or_boolean_counts_rejected(self, override):
        # int() would truncate each of these to another grid without a word
        base = {"N": [8], "t": [1], "S": 4, "modes": ["exact"], "seeds": 1}
        with pytest.raises(ValueError, match="takes whole numbers"):
            SweepConfig.from_dict({**base, **override})

    @pytest.mark.parametrize("extra", [{"famly": "uniform"}, {"space": 4}, {"seed": 0}])
    def test_unknown_keys_refused(self, extra):
        # a misspelt optional key would otherwise leave its default in force
        base = {"N": [8], "t": [1], "S": 4, "modes": ["exact"], "seeds": 1}
        (key,) = extra
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            SweepConfig.from_dict({**base, **extra})

    @pytest.mark.parametrize("override", [
        {"N": [8, 8]}, {"N": [8, 16, 8.0]}, {"t": [1, 1]}, {"modes": ["exact", "classical", "exact"]},
    ])
    def test_repeated_entries_refused(self, override):
        # a repeated entry would run its cells twice and weight the report's medians
        base = {"N": [8], "t": [1], "S": 4, "modes": ["exact"], "seeds": 1}
        (key,) = override
        with pytest.raises(ValueError, match=f"key '{key}' repeats an entry"):
            SweepConfig.from_dict({**base, **override})

    @pytest.mark.parametrize("override", [
        {"modes": "exact"}, {"N": "8"}, {"N": 8}, {"t": 2}, {"N": {"8": 1}}, {"modes": None},
    ])
    def test_list_keys_take_lists(self, override):
        # "exact" would otherwise be read as the modes 'e', 'x', ...
        base = {"N": [8], "t": [1], "S": 4, "modes": ["exact"], "seeds": 1}
        (key,) = override
        with pytest.raises(ValueError, match=f"key '{key}' takes a list"):
            SweepConfig.from_dict({**base, **override})

    @pytest.mark.parametrize("out", [{"a": 1}, "", 7, ["rows.csv"], True])
    def test_out_takes_a_path(self, out):
        base = {"N": [8], "t": [1], "S": 4, "modes": ["exact"], "seeds": 1}
        with pytest.raises(ValueError, match="'out' takes a non-empty path"):
            SweepConfig.from_dict({**base, "out": out})

    def test_whole_floats_accepted_as_counts(self):
        cfg = SweepConfig.from_dict({"N": [16.0, 8], "t": [2.0], "S": 4, "modes": ["exact"],
                                     "seeds": 2.0, "reps": 5.0})
        assert (cfg.n_values, cfg.t_values, cfg.seeds, cfg.reps) == ((16, 8), (2,), 2, 5)
        assert all(type(v) is int for v in (*cfg.n_values, *cfg.t_values, cfg.seeds, cfg.reps))


class TestRunSweep:
    def test_empty_grid_gives_empty_table(self):
        cfg = SweepConfig.from_dict({"N": [], "t": [1], "S": 16,
                                     "modes": ["exact"], "seeds": 3})
        res = run_sweep(cfg)
        assert res.rows == ()
        assert res.errors == ()

    def test_one_cell_three_seeds_three_rows(self):
        cfg = SweepConfig.from_dict({"N": [12], "t": [1], "S": 6,
                                     "modes": ["exact"], "seeds": 3,
                                     "family": "uniform"})
        res = run_sweep(cfg)
        assert len(res.rows) == 3
        assert [r.seed for r in res.rows] == [0, 1, 2]
        assert all(r.correct for r in res.rows)

    def test_rows_sorted_by_cell_key(self):
        cfg = SweepConfig.from_dict({"N": [16, 8], "t": [2, 1], "S": 4,
                                     "modes": ["exact", "classical"],
                                     "seeds": 2, "family": "uniform"})
        res = run_sweep(cfg)
        keys = [r.sort_key() for r in res.rows]
        assert keys == sorted(keys)
        assert len(res.rows) == 2 * 2 * 2 * 2

    def test_median_total_nondecreasing_in_n_exact_mode(self):
        cfg = SweepConfig.from_dict({"N": [16, 32, 64], "t": [2], "S": 8,
                                     "modes": ["exact"], "seeds": 3,
                                     "family": "hover-sqrt", "reps": 5})
        res = run_sweep(cfg)
        medians = []
        for n in (16, 32, 64):
            ts = [r.total_queries for r in res.rows if r.n == n]
            medians.append(np.median(ts))
        assert medians == sorted(medians)

    def test_cell_failures_recorded_and_skipped(self):
        # statevector mode rejects value-carrying x; the cell must fail soft
        cfg = SweepConfig.from_dict({"N": [8], "t": [2], "S": 4,
                                     "modes": ["statevector", "exact"],
                                     "seeds": 1, "family": "regular"})
        res = run_sweep(cfg)
        assert len(res.errors) == 1
        assert "statevector" in res.errors[0]
        assert len(res.rows) == 1
        assert res.rows[0].mode == "exact"

    def test_deterministic_rerun_byte_identical(self):
        cfg = SweepConfig.from_dict({"N": [8, 16], "t": [2], "S": 6,
                                     "modes": ["cost-model", "classical"],
                                     "seeds": 2, "family": "regular",
                                     "reps": 5})
        first = run_sweep(cfg)
        second = run_sweep(cfg)
        assert first == second
        assert render_csv(first.rows) == render_csv(second.rows)
        assert render_json(first.rows) == render_json(second.rows)

    def test_classical_rows_always_correct(self):
        row = run_cell("uniform", 20, 3, 7, "classical", 4)
        assert row.correct
        assert row.total_queries == row.queries_x + row.queries_b

    def test_regime_labels(self):
        assert regime_label(64, 2, 16) == "quantum"    # 16 <= 32
        assert regime_label(64, 2, 33) == "classical"  # 33 > 32
        assert regime_label(8, 4, 2) == "quantum"      # boundary S = N/t


class TestFitScaling:
    def test_planted_square_law(self):
        fit = fit_scaling(planted_rows(lambda n: n * n, [16, 32, 64, 128]), "N")
        assert fit.exponent == pytest.approx(2.0, abs=0.01)
        assert fit.halfwidth <= 0.01

    def test_planted_three_halves_law(self):
        fit = fit_scaling(planted_rows(lambda n: int(n**1.5), [64, 128, 256]), "N")
        assert fit.exponent == pytest.approx(1.5, abs=0.01)

    def test_medians_suppress_outlier_seeds(self):
        fit = fit_scaling(planted_rows(lambda n: n * n, [16, 32, 64],
                                       seeds=5, jitter=50), "N")
        assert fit.exponent == pytest.approx(2.0, abs=0.01)

    def test_needs_three_distinct_values(self):
        with pytest.raises(ValueError):
            fit_scaling(planted_rows(lambda n: n, [16, 32]), "N")

    def test_zero_median_refused_naming_its_axis_value(self):
        # T = 0 is a legal row, but log2 of a zero median would fit nan
        rows = planted_rows(lambda n: 0 if n == 32 else n, [16, 32, 64])
        with pytest.raises(ValueError, match="median T is 0 at N=32"):
            fit_scaling(rows, "N")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            fit_scaling(planted_rows(lambda n: n, [8, 16, 32]), "Q")

    def test_axis_s_groups_by_space(self):
        rows = []
        for s in (4, 8, 16, 32):
            rows.append(SweepRow(n=64, t=2, s=s, mode="exact", seed=0,
                                 total_queries=10000 // s, queries_x=1,
                                 queries_b=1, space=s, correct=True))
        fit = fit_scaling(rows, "S")
        assert fit.exponent == pytest.approx(-1.0, abs=0.01)


class TestReports:
    def make_rows(self):
        cfg = SweepConfig.from_dict({"N": [8], "t": [1], "S": 4,
                                     "modes": ["exact", "classical"],
                                     "seeds": 2, "family": "uniform",
                                     "reps": 3})
        return run_sweep(cfg).rows

    def test_empty_rows_header_only(self):
        assert render_csv([]) == CSV_HEADER + "\n"

    def test_csv_column_contract(self):
        text = render_csv(self.make_rows())
        lines = text.strip().split("\n")
        assert lines[0] == "N,t,S,mode,seed,T,queries_x,queries_b,space,correct"
        for line in lines[1:]:
            assert len(line.split(",")) == 10

    def test_csv_round_trip(self):
        rows = self.make_rows()
        assert rows_from_csv(render_csv(rows)) == rows

    def test_json_round_trip(self):
        rows = self.make_rows()
        assert rows_from_json(render_json(rows)) == rows

    def test_json_regime_follows_the_cell_not_the_stored_label(self):
        # S = 16 <= N/t = 32 is the quantum regime whatever the file says
        raw = [{"N": 64, "t": 2, "S": 16, "mode": "exact", "seed": 0, "T": 9,
                "queries_x": 9, "queries_b": 0, "space": 16, "correct": True,
                "regime": "classical"}]
        row, = rows_from_json(json.dumps(raw))
        assert row.regime == "quantum"
        assert json.loads(render_json([row]))[0]["regime"] == "quantum"

    def test_emit_report_writes_lf_file(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "out.csv"
        emit_report(rows, "csv", str(path))
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8") == render_csv(rows)

    def test_emit_report_json(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "out.json"
        emit_report(rows, "json", str(path))
        assert rows_from_json(path.read_text()) == rows

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "xml", str(tmp_path / "x"))

    def test_bad_csv_rejected(self):
        with pytest.raises(ValueError):
            rows_from_csv("not,a,header\n1,2,3\n")

    def test_render_writes_the_column_table(self):
        row = SweepRow(n=16, t=2, s=8, mode="cost-model", seed=3, total_queries=90,
                       queries_x=74, queries_b=16, space=40, correct=False)
        assert render_csv([row]).split("\n")[1] == "16,2,8,cost-model,3,90,74,16,40,false"
        assert json.loads(render_json([row])) == [{
            "N": 16, "t": 2, "S": 8, "mode": "cost-model", "seed": 3, "T": 90,
            "queries_x": 74, "queries_b": 16, "space": 40, "correct": False,
            "regime": "quantum"}]

    @pytest.mark.parametrize("cell, value", [
        ("N", "16.9"), ("N", "0x10"), ("seed", "-"), ("T", '"90"'), ("t", "true"),
        ("mode", "bogus"), ("correct", "True"), ("correct", "1"), ("correct", ""),
    ])
    def test_csv_cells_read_strictly(self, cell, value):
        rows = self.make_rows()
        cells = render_csv(rows[:1]).split("\n")[1].split(",")
        cells[CSV_HEADER.split(",").index(cell)] = value
        with pytest.raises(ValueError):
            rows_from_csv(CSV_HEADER + "\n" + ",".join(cells) + "\n")

    # the cases of TestReport in test_cli.py, which checks their exit code, are not repeated
    @pytest.mark.parametrize("override", [
        {"seed": None}, {"space": "40"}, {"T": float("nan")}, {"mode": 3}, {"correct": 0},
    ])
    def test_json_values_read_strictly(self, override):
        raw = json.loads(render_json(self.make_rows()[:1]))
        raw[0].update(override)
        with pytest.raises(ValueError):
            rows_from_json(json.dumps(raw))

    # N, t and S count from 1, the seed and the counts from 0: a whole number
    # below its floor is refused, not passed on to the log2 of the fits
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("key, value", [
        ("N", 0), ("N", -16), ("t", 0), ("S", 0), ("seed", -1), ("T", -1),
        ("queries_x", -1), ("queries_b", -1), ("space", -1),
    ])
    def test_values_below_their_floor_are_refused(self, fmt, key, value):
        row = SweepRow(n=16, t=2, s=8, mode="exact", seed=0, total_queries=90,
                       queries_x=74, queries_b=16, space=40, correct=True)
        if fmt == "json":
            raw = json.loads(render_json([row]))
            raw[0][key] = value
            read, text = rows_from_json, json.dumps(raw)
        else:
            cells = render_csv([row]).split("\n")[1].split(",")
            cells[CSV_HEADER.split(",").index(key)] = str(value)
            read, text = rows_from_csv, CSV_HEADER + "\n" + ",".join(cells) + "\n"
        with pytest.raises(ValueError, match=f"'{key}' takes values >= "):
            read(text)

    def test_values_at_their_floor_are_read(self):
        rows = (SweepRow(n=1, t=1, s=1, mode="exact", seed=0, total_queries=0,
                         queries_x=0, queries_b=0, space=0, correct=True),)
        assert rows_from_json(render_json(rows)) == rows
        assert rows_from_csv(render_csv(rows)) == rows

    @pytest.mark.parametrize("text", ["[1]", "3", '[{"N": 16}]'])
    def test_json_shape_read_strictly(self, text):
        with pytest.raises(ValueError):
            rows_from_json(text)
