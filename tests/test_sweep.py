"""Tests for sweep execution, scaling fits, and report serialization."""
import json
import math

import numpy as np
import pytest

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

    def test_from_json_with_scalar_space(self):
        cfg = SweepConfig.from_dict(json.loads(
            '{"N": [8], "t": [2], "S": 4, "modes": ["exact", "classical"],'
            ' "seeds": 2, "family": "zero", "reps": 5}'))
        assert cfg.space_rule == SpaceRule("absolute", 4.0)
        assert cfg.modes == ("exact", "classical")
        assert cfg.reps == 5

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
