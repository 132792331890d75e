import json
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qdelnet.errors import ConfigError, InputError, NumericError, ParseError
from qdelnet.experiment import (
    PLOT_FILES,
    FileSource,
    SWEEP_CSV_HEADER,
    SweepConfig,
    SweepRow,
    SyntheticSource,
    grad_flow_report,
    render_plots,
    run_depth_sweep,
    write_outputs,
    write_sweep_csv,
)
from qdelnet.train import TrainConfig, TrainReport

# Depth/time/accuracy reference table used as a formatting and plotting
# fixture (not a reproduction target at desk scale).
REFERENCE_ROWS = [
    SweepRow(1, 6289.0, 89.72, 86.01, 86.7, 0, 0.0),
    SweepRow(2, 6450.0, 94.58, 91.01, 90.4, 0, 0.0),
    SweepRow(3, 6623.0, 99.39, 95.81, 96.2, 0, 0.0),
    SweepRow(5, 6644.0, 99.80, 98.00, 97.5, 0, 0.0),
    SweepRow(10, 7056.0, 99.81, 98.40, 97.7, 0, 0.0),
    SweepRow(25, 8399.0, 99.29, 97.21, 96.6, 0, 0.0),
    SweepRow(50, 10549.0, 59.33, 52.10, 50.4, 0, 0.0),
    SweepRow(100, 15644.0, 59.63, 47.21, 49.2, 0, 0.0),
]


def read_sweep_csv(path) -> list[SweepRow]:
    """Parse a file written by write_sweep_csv back into rows."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise ParseError(f"unexpected sweep CSV header: {lines[0] if lines else '<empty>'!r}", line=1)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 7:
            raise ParseError(f"expected 7 fields, got {len(parts)}", line=lineno)
        try:
            rows.append(
                SweepRow(
                    depth=int(parts[0]),
                    train_time_seconds=float(parts[1]),
                    train_accuracy_pct=float(parts[2]),
                    validation_accuracy_pct=float(parts[3]),
                    test_accuracy_pct=float(parts[4]),
                    diverged_runs=int(parts[5]),
                    first_layer_grad_norm_init=float(parts[6]),
                )
            )
        except ValueError as exc:
            raise ParseError(f"bad field value: {exc}", line=lineno) from None
    return rows


def tiny_sweep_config(out_dir, depths=(1, 2), repeats=2, epochs=2, seed=9):
    return SweepConfig(
        depths=depths,
        repeats=repeats,
        train_config=TrainConfig(epochs=epochs, seed=seed),
        source=SyntheticSource(
            n=80, vocab_size=20, dim=4, max_words=5, noise=0.15, train_count=60, test_count=20
        ),
        output_dir=str(out_dir),
    )


def make_report(wall, train_acc, val_acc, diverged=False, epoch=None):
    return TrainReport(
        final_train_accuracy=train_acc,
        final_validation_accuracy=val_acc,
        wall_time_seconds=wall,
        loss_curve=[0.5],
        diverged=diverged,
        diverged_epoch=epoch,
    )


def cell_result(report, test_acc, norms):
    """A stub runner's (report, test accuracy), the report carrying the
    cell's initial norms as train()'s does."""
    return replace(report, initial_grad_norms=norms), test_acc


class TestSweepConfig:
    def test_depths_must_increase(self):
        with pytest.raises(ConfigError):
            SweepConfig(depths=(1, 3, 2))

    def test_depths_must_be_positive(self):
        with pytest.raises(ConfigError):
            SweepConfig(depths=(0, 1))

    def test_repeats_must_be_positive(self):
        with pytest.raises(ConfigError, match="repeats must be >= 1, got 0"):
            SweepConfig(repeats=0)

    def test_defaults_match_protocol(self):
        config = SweepConfig()
        assert config.depths == (1, 2, 3, 5, 10, 25, 50, 100)
        assert config.repeats == 3
        assert config.train_config.epochs == 150
        assert config.train_config.validation_fraction == 0.10
        assert config.dropout_rate == 0.05


class TestRunDepthSweep:
    def test_stubbed_runs_average_arithmetically(self, tmp_path):
        reports = {
            (2, 0): (make_report(1.0, 80.0, 70.0), 60.0),
            (2, 1): (make_report(3.0, 90.0, 80.0), 70.0),
            (4, 0): (make_report(5.0, 88.0, 78.0), 68.0),
            (4, 1): (make_report(7.0, 98.0, 88.0), 78.0),
        }
        config = tiny_sweep_config(tmp_path, depths=(2, 4), repeats=2)
        rows = run_depth_sweep(
            config,
            runner=lambda depth, widths, i: cell_result(*reports[(depth, i)],
                                                    [0.5 / depth] * (depth + 1)),
        )
        assert [r.depth for r in rows] == [2, 4]
        r2, r4 = rows
        assert r2.train_time_seconds == 2.0
        assert r2.train_accuracy_pct == 85.0
        assert r2.validation_accuracy_pct == 75.0
        assert r2.test_accuracy_pct == 65.0
        assert r2.diverged_runs == 0
        assert r2.first_layer_grad_norm_init == 0.25
        assert r4.test_accuracy_pct == 73.0

    def test_diverged_runs_excluded_from_means(self, tmp_path):
        reports = {
            (1, 0): (make_report(1.0, 80.0, 70.0), 60.0),
            (1, 1): (make_report(9.0, 50.0, 50.0, diverged=True, epoch=3), 50.0),
        }
        config = tiny_sweep_config(tmp_path, depths=(1,), repeats=2)
        rows = run_depth_sweep(
            config,
            runner=lambda depth, widths, i: cell_result(*reports[(depth, i)], [1.0] * (depth + 1)),
        )
        assert rows[0].diverged_runs == 1
        assert rows[0].train_accuracy_pct == 80.0
        assert rows[0].test_accuracy_pct == 60.0

    def test_all_diverged_row_retained(self, tmp_path):
        reports = {
            (1, 0): (make_report(1.0, 55.0, 52.0, diverged=True, epoch=0), 50.0),
            (1, 1): (make_report(1.0, 53.0, 50.0, diverged=True, epoch=1), 48.0),
        }
        config = tiny_sweep_config(tmp_path, depths=(1,), repeats=2)
        rows = run_depth_sweep(
            config,
            runner=lambda depth, widths, i: cell_result(*reports[(depth, i)], [1.0] * (depth + 1)),
        )
        assert rows[0].diverged_runs == 2
        assert rows[0].train_accuracy_pct == 54.0
        assert rows[0].test_accuracy_pct == 49.0

    def test_degenerate_sweep_equals_single_run(self, tmp_path):
        """depths=[1], repeats=1 must equal one direct train+evaluate cycle
        built from the same seeds."""
        from qdelnet.data import gen_synthetic, split_train_test
        from qdelnet.nn import ModelConfig, build_model, taper_widths
        from qdelnet.train import evaluate, train

        config = tiny_sweep_config(tmp_path / "sweep", depths=(1,), repeats=1, epochs=3, seed=5)
        rows = run_depth_sweep(config)

        src = config.source
        corpus, table = gen_synthetic(src.n, src.vocab_size, src.dim, src.max_words, src.noise, seed=5)
        train_set, test_set = split_train_test(corpus, src.train_count, src.test_count, seed=5)
        model_config = ModelConfig(
            input_dim=src.max_words * src.dim + 1,
            hidden_widths=tuple(taper_widths(1)),
            dropout_rate=config.dropout_rate,
            seed=5,
        )
        model, report = train(
            build_model(model_config), train_set, TrainConfig(epochs=3, seed=5), table
        )
        assert rows[0].train_accuracy_pct == report.final_train_accuracy
        assert rows[0].validation_accuracy_pct == report.final_validation_accuracy
        assert rows[0].test_accuracy_pct == evaluate(model, test_set, table)

    def test_a_non_finite_norm_is_refused_as_report_refuses_it(self, tmp_path):
        """The outputs are written from the run files, so a norm that
        overflowed fails the sweep with the reader's error, after the run
        files are written and before any output is."""
        config = tiny_sweep_config(tmp_path, depths=(1,), repeats=1)
        with pytest.raises(ParseError) as swept:
            run_depth_sweep(
                config,
                runner=lambda depth, widths, i: cell_result(make_report(1.0, 80.0, 70.0), 60.0,
                                                            [math.inf]),
            )
        with pytest.raises(ParseError) as reported:
            write_outputs(tmp_path / "runs", tmp_path)
        assert str(swept.value) == str(reported.value)
        assert "1_0.json" in str(swept.value) and "not finite" in str(swept.value)
        assert not (tmp_path / "grad_flow.csv").exists()

    def test_a_runner_report_without_initial_norms_is_refused(self, tmp_path):
        """A caller's runner fails at cell 3 with the default runner's error,
        naming the cell; cells 1-2 keep their run files and cell 3 leaves none."""
        cells = [(1, 0), (1, 1), (2, 0), (2, 1)]

        def runner(depth, widths, i):
            report = make_report(1.0, 80.0, 70.0)
            if (depth, i) == cells[2]:
                return report, 60.0
            return cell_result(report, 60.0, [1.0] * (depth + 1))

        config = tiny_sweep_config(tmp_path, depths=(1, 2), repeats=2)
        with pytest.raises(NumericError, match=r"^depth 2: the initial model's gradients are "
                                               r"not finite \(repeat 0\)$"):
            run_depth_sweep(config, runner=runner)
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["1_0.json", "1_1.json"]

    def test_end_to_end_persists_run_files(self, tmp_path):
        config = tiny_sweep_config(tmp_path)
        rows = run_depth_sweep(config)
        assert [r.depth for r in rows] == [1, 2]
        for depth in (1, 2):
            for repeat in (0, 1):
                assert (tmp_path / "runs" / f"{depth}_{repeat}.json").exists()
        rebuilt = write_outputs(tmp_path / "runs", tmp_path / "report")
        assert rebuilt == rows


def per_cell_runner(cells):
    """A stub runner over {(depth, repeat): (report, test accuracy, layer-0 norm)}
    that profiles every layer after the first at 1.0."""
    return lambda depth, widths, i: cell_result(*cells[(depth, i)][:2],
                                                [cells[(depth, i)][2]] + [1.0] * depth)


class TestOneRecordPerCell:
    CELLS = {
        (1, 0): (make_report(1.0, 80.0, 70.0), 60.0, 0.5),
        (1, 1): (make_report(9.0, 50.0, 50.0, diverged=True, epoch=3), 50.0, 0.25),
        (1, 2): (make_report(3.0, 90.0, 80.0), 70.0, 1.5),
        (2, 0): (make_report(5.0, 88.0, 78.0), 68.0, 0.0598750956555908),
        (2, 1): (make_report(7.0, 98.0, 88.0), 78.0, 0.0836077141185587),
        (2, 2): (make_report(6.0, 93.0, 83.0), 73.0, 0.125),
    }

    def test_a_run_file_holds_its_own_cell(self, tmp_path):
        """Each file holds its cell's own layer-0 norm; the row averages the
        norm over all cells, diverged ones included, and every other column
        over the cells that finished."""
        config = tiny_sweep_config(tmp_path, depths=(1, 2), repeats=3)
        rows = run_depth_sweep(config, runner=per_cell_runner(self.CELLS))
        for (depth, i), (_, _, norm) in self.CELLS.items():
            doc = json.loads((tmp_path / "runs" / f"{depth}_{i}.json").read_text())
            assert doc["first_layer_grad_norm_init"] == norm
        r1, r2 = rows
        assert r1.first_layer_grad_norm_init == (0.5 + 0.25 + 1.5) / 3 == 0.75
        assert r1.diverged_runs == 1
        assert (r1.train_time_seconds, r1.train_accuracy_pct) == (2.0, 85.0)
        assert (r1.validation_accuracy_pct, r1.test_accuracy_pct) == (75.0, 65.0)
        assert r2.first_layer_grad_norm_init == (0.0 + 0.0598750956555908 + 0.0836077141185587
                                                 + 0.125) / 3
        flow = (tmp_path / "grad_flow.csv").read_text().splitlines()
        layer0 = {int(d): float(n) for d, li, n in (ln.split(",") for ln in flow[1:]) if li == "0"}
        assert layer0 == {1: r1.first_layer_grad_norm_init, 2: r2.first_layer_grad_norm_init}

    def test_a_failed_sweep_keeps_the_cells_that_finished(self, tmp_path):
        """A runner that raises at cell 3 of 4 leaves the run files of cells
        1 and 2, byte-identical to an uninterrupted sweep's, and no
        grad_flow.csv; `report` then rebuilds its depth-1 lines from them."""
        from qdelnet.cli import parse_and_dispatch

        cells = {cell: self.CELLS[cell] for cell in [(1, 0), (1, 1), (2, 0), (2, 1)]}
        runner = per_cell_runner(cells)
        run_depth_sweep(tiny_sweep_config(tmp_path / "whole", depths=(1, 2)), runner=runner)

        def failing(depth, widths, i):
            if (depth, i) == (2, 0):
                raise RuntimeError("cell 3 failed")
            return runner(depth, widths, i)

        with pytest.raises(RuntimeError, match="cell 3 failed"):
            run_depth_sweep(tiny_sweep_config(tmp_path / "failed", depths=(1, 2)), runner=failing)
        kept = sorted(p.name for p in (tmp_path / "failed" / "runs").iterdir())
        assert kept == ["1_0.json", "1_1.json"]
        for name in kept:
            whole = (tmp_path / "whole" / "runs" / name).read_bytes()
            assert (tmp_path / "failed" / "runs" / name).read_bytes() == whole
        assert not (tmp_path / "failed" / "grad_flow.csv").exists()
        assert parse_and_dispatch(["report", "--runs", str(tmp_path / "failed")]) == 0
        flows = [(tmp_path / name / "grad_flow.csv").read_text().splitlines()
                 for name in ("whole", "failed")]
        assert flows[1] == [line for line in flows[0] if not line.startswith("2,")]
        assert len(flows[1]) == 1 + 2

    def test_a_failed_write_leaves_no_run_file(self, tmp_path, monkeypatch):
        """A json.dump that writes half of cell 3's document and then raises
        leaves neither its run file nor the temporary file, and the run files
        of cells 1 and 2 as an uninterrupted sweep writes them."""
        from qdelnet.cli import parse_and_dispatch

        cells = {cell: self.CELLS[cell] for cell in [(1, 0), (1, 1), (2, 0), (2, 1)]}
        runner = per_cell_runner(cells)
        run_depth_sweep(tiny_sweep_config(tmp_path / "whole", depths=(1, 2)), runner=runner)
        real = json.dump

        def half(doc, fh, **kwargs):
            if doc["depth"] == 2:
                fh.write(json.dumps(doc, **kwargs)[:40])
                raise OSError("no space left on device")
            real(doc, fh, **kwargs)

        monkeypatch.setattr(json, "dump", half)
        with pytest.raises(OSError, match="no space left"):
            run_depth_sweep(tiny_sweep_config(tmp_path / "failed", depths=(1, 2)), runner=runner)
        monkeypatch.undo()
        kept = sorted(p.name for p in (tmp_path / "failed" / "runs").iterdir())
        assert kept == ["1_0.json", "1_1.json"]
        for name in kept:
            whole = (tmp_path / "whole" / "runs" / name).read_bytes()
            assert (tmp_path / "failed" / "runs" / name).read_bytes() == whole
        assert parse_and_dispatch(["report", "--runs", str(tmp_path / "failed")]) == 0


def write_run_files(runs_dir, norms):
    """Hand-written run files: {depth: [layer-0 norm of each repeat]}."""
    runs_dir.mkdir(parents=True)
    for depth, by_repeat in norms.items():
        for i, norm in enumerate(by_repeat):
            doc = {
                "depth": depth,
                "repeat": i,
                "test_accuracy_pct": 60.0 + i,
                "first_layer_grad_norm_init": norm,
                "train_report": make_report(1.0 + i, 80.0 + i, 70.0 + i).to_json_dict(),
            }
            (runs_dir / f"{depth}_{i}.json").write_text(json.dumps(doc, indent=2) + "\n")


class TestReaderOnHandWrittenRuns:
    @pytest.mark.parametrize("norms, last_column", [
        # One cell's own norm per file: the row holds their mean, where a
        # reader that kept the last file's value would give 0.0836077 and 2.
        ({1: [0.0598750956555908, 0.0836077141185587], 3: [0.5, 0.25, 2.0]},
         ["0.0717414", "0.916667"]),
        # Run files that each hold their depth's mean, as sweeps wrote them
        # before each file held its own cell: (0.1 + 0.1 + 0.1) / 3 is not
        # 0.1, but sweep.csv's 6 significant digits are the same.
        ({1: [0.07174140488707476] * 2, 3: [0.1] * 3}, ["0.0717414", "0.1"]),
    ], ids=["per-cell", "per-depth-mean"])
    def test_report_averages_each_depths_norms(self, tmp_path, capsys, norms, last_column):
        """Run files written before they held per-layer norms: report writes
        sweep.csv and the SVGs, and says that it skips grad_flow.csv."""
        from qdelnet.cli import parse_and_dispatch

        write_run_files(tmp_path / "sweep" / "runs", norms)
        rows = write_outputs(tmp_path / "sweep" / "runs", tmp_path / "sweep")
        for row, by_repeat in zip(rows, norms.values()):
            total = 0.0
            for norm in by_repeat:
                total += norm
            assert row.first_layer_grad_norm_init == total / len(by_repeat)
        capsys.readouterr()
        assert parse_and_dispatch(
            ["report", "--runs", str(tmp_path / "sweep"), "--out", str(tmp_path / "out")]) == 0
        runs_dir = tmp_path / "sweep" / "runs"
        assert capsys.readouterr().out == (
            f"note: no per-layer norms in {runs_dir}; grad_flow.csv not written\n"
            f"regenerated the outputs of 2 depths in {tmp_path / 'out'}\n")
        assert not (tmp_path / "out" / "grad_flow.csv").exists()
        assert (tmp_path / "out" / "fig_test_acc.svg").is_file()
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == (
            f"{SWEEP_CSV_HEADER}\n"
            f"1,1.5,80.50,70.50,60.50,0,{last_column[0]}\n"
            f"3,2.0,81.00,71.00,61.00,0,{last_column[1]}\n"
        ).encode()

    def test_a_report_that_carries_its_norms_is_read(self, tmp_path):
        """train() reports its model's initial norms; a run file whose
        train_report keeps them, as to_json_dict() gives them, reads back."""
        runs_dir = tmp_path / "sweep" / "runs"
        write_run_files(runs_dir, {1: [0.5], 3: [0.25]})
        for path in runs_dir.iterdir():
            doc = json.loads(path.read_text())
            norms = [doc["first_layer_grad_norm_init"]] + [1.0] * doc["depth"]
            doc["initial_grad_norms"] = doc["train_report"]["initial_grad_norms"] = norms
            path.write_text(json.dumps(doc))
        rows = write_outputs(runs_dir, tmp_path / "sweep")
        assert [row.first_layer_grad_norm_init for row in rows] == [0.5, 0.25]
        assert (tmp_path / "sweep" / "grad_flow.csv").read_text().splitlines()[1:] == [
            "1,0,0.5", "1,1,1.0", "3,0,0.25", "3,1,1.0", "3,2,1.0", "3,3,1.0"]


class TestSweepCsv:
    def test_header_and_formats(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(REFERENCE_ROWS[:2], path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[1] == "1,6289.0,89.72,86.01,86.70,0,0"
        assert lines[2] == "2,6450.0,94.58,91.01,90.40,0,0"

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(InputError):
            write_sweep_csv([], tmp_path / "sweep.csv")

    def test_write_read_write_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(REFERENCE_ROWS, p1)
        write_sweep_csv(read_sweep_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_recovers_reference_values(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(REFERENCE_ROWS, path)
        assert read_sweep_csv(path) == REFERENCE_ROWS

    def test_fractional_seconds_round_to_one_decimal(self, tmp_path):
        rows = [SweepRow(1, 1.2345, 50.0, 50.0, 50.0, 0, 1e-8)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        assert path.read_text().splitlines()[1] == "1,1.2,50.00,50.00,50.00,0,1e-08"


def decode_polyline(svg_path):
    """Recover the plotted (x, y) data through the transform declared on the
    polyline's data-* attributes."""
    root = ET.parse(svg_path).getroot()
    ns = {"svg": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//svg:polyline", ns)
    assert len(polylines) == 1
    poly = polylines[0]
    assert poly.get("data-x-scale") == "log10"
    assert poly.get("data-y-scale") == "linear"
    x_min, x_max = float(poly.get("data-x-min")), float(poly.get("data-x-max"))
    y_min, y_max = float(poly.get("data-y-min")), float(poly.get("data-y-max"))
    left, top = float(poly.get("data-plot-left")), float(poly.get("data-plot-top"))
    width, height = float(poly.get("data-plot-width")), float(poly.get("data-plot-height"))
    points = []
    for pair in poly.get("points").split():
        px, py = (float(v) for v in pair.split(","))
        lx0, lx1 = math.log10(x_min), math.log10(x_max)
        x = 10 ** (lx0 + (px - left) / width * (lx1 - lx0))
        y = y_max - (py - top) / height * (y_max - y_min)
        points.append((x, y))
    return points


class TestRenderPlots:
    def test_reference_fixture_produces_four_valid_svgs(self, tmp_path):
        paths = render_plots(REFERENCE_ROWS, tmp_path)
        assert [p.name for p in paths] == list(PLOT_FILES)
        for path in paths:
            root = ET.parse(path).getroot()  # valid XML
            assert root.tag.endswith("svg")
            assert len(decode_polyline(path)) == 8

    def test_deterministic_bytes(self, tmp_path):
        render_plots(REFERENCE_ROWS, tmp_path / "a")
        render_plots(REFERENCE_ROWS, tmp_path / "b")
        for name in PLOT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_decoded_points_match_source_values(self, tmp_path):
        """Inverse-transform oracle: y values recovered from pixel coordinates
        match the table values within 0.5%."""
        render_plots(REFERENCE_ROWS, tmp_path)
        expected_by_file = {
            "fig_time.svg": [r.train_time_seconds for r in REFERENCE_ROWS],
            "fig_train_acc.svg": [r.train_accuracy_pct for r in REFERENCE_ROWS],
            "fig_val_acc.svg": [r.validation_accuracy_pct for r in REFERENCE_ROWS],
            "fig_test_acc.svg": [r.test_accuracy_pct for r in REFERENCE_ROWS],
        }
        depths = [r.depth for r in REFERENCE_ROWS]
        for name, expected in expected_by_file.items():
            points = decode_polyline(tmp_path / name)
            for (x, y), depth, value in zip(points, depths, expected):
                assert x == pytest.approx(depth, rel=5e-3)
                assert y == pytest.approx(value, rel=5e-3)

    def test_constant_series_does_not_degenerate(self, tmp_path):
        rows = [
            SweepRow(1, 1.0, 50.0, 50.0, 50.0, 0, 0.1),
            SweepRow(2, 1.0, 50.0, 50.0, 50.0, 0, 0.1),
        ]
        paths = render_plots(rows, tmp_path)
        for path in paths:
            for _, y in decode_polyline(path):
                assert math.isfinite(y)

    def test_too_few_rows_rejected(self, tmp_path):
        with pytest.raises(InputError):
            render_plots(REFERENCE_ROWS[:1], tmp_path)


class TestGradFlowReport:
    def test_depth_one_contributes_two_rows(self, tmp_path):
        config = tiny_sweep_config(tmp_path, depths=(1,), repeats=1)
        records = grad_flow_report(config)
        assert [(d, li) for d, li, _ in records] == [(1, 0), (1, 1)]
        assert all(norm >= 0 for _, _, norm in records)

    def test_csv_written_in_long_format(self, tmp_path):
        config = tiny_sweep_config(tmp_path, depths=(1, 2), repeats=1)
        records = grad_flow_report(config)
        lines = (tmp_path / "grad_flow.csv").read_text().splitlines()
        assert lines[0] == "depth,layer_index,mean_norm"
        assert len(lines) == 1 + len(records) == 1 + 2 + 3

    @pytest.mark.parametrize("synthetic", [True, False], ids=["synthetic", "files"])
    def test_bad_width_pair_refused_before_any_data_is_read(
        self, tmp_path, monkeypatch, synthetic, file_source
    ):
        import qdelnet.experiment as experiment

        def loaded(*args, **kwargs):
            raise AssertionError("data was read")

        for name in ("gen_synthetic", "load_dataset", "load_embeddings"):
            monkeypatch.setattr(experiment, name, loaded)
        config = replace(tiny_sweep_config(tmp_path / "out"), width_max=8)
        if not synthetic:
            config = replace(config, source=file_source)
        with pytest.raises(ConfigError, match=r"need width_max >= width_min >= 1, got 8, 16"):
            grad_flow_report(config)
        assert not (tmp_path / "out").exists()

    def test_a_train_set_too_small_for_the_validation_split_is_refused(self, tmp_path):
        """As a sweep refuses it, before anything is written: 4 training
        questions leave no validation question."""
        config = replace(tiny_sweep_config(tmp_path / "out", depths=(1,), repeats=1),
                         source=SyntheticSource(n=10, vocab_size=20, dim=4, max_words=5,
                                                noise=0.15, train_count=4, test_count=6))
        with pytest.raises(ConfigError) as reported:
            grad_flow_report(config)
        with pytest.raises(ConfigError) as swept:
            run_depth_sweep(config)
        assert str(reported.value) == str(swept.value) == (
            "fraction 0.1 yields an empty validation split (n=4)")
        assert not (tmp_path / "out").exists()

    def test_matches_sweep_first_layer_norm(self, tmp_path):
        config = tiny_sweep_config(tmp_path, depths=(1, 2), repeats=2)
        rows = run_depth_sweep(config)
        records = grad_flow_report(config)
        by_depth = {d: norm for d, li, norm in records if li == 0}
        for row in rows:
            assert row.first_layer_grad_norm_init == by_depth[row.depth]


@pytest.fixture
def calls(monkeypatch):
    """Counts of the profile and corpus-generation calls that experiment and
    train (which profiles each model it trains) make."""
    import importlib

    counts = {"initial_gradient_profile": 0, "gen_synthetic": 0}
    for module in ("qdelnet.experiment", "qdelnet.train"):
        module = importlib.import_module(module)
        for name in counts:
            if hasattr(module, name):
                real = getattr(module, name)

                def counted(*args, _name=name, _real=real, **kwargs):
                    counts[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return counts


class TestOnePass:
    def test_sweep_prepares_once_and_profiles_each_depth_once(self, tmp_path, calls):
        run_depth_sweep(tiny_sweep_config(tmp_path, depths=(1, 2), repeats=1, epochs=1))
        assert calls == {"initial_gradient_profile": 2, "gen_synthetic": 1}

    def test_sweep_command_prepares_once_and_profiles_each_depth_once(self, tmp_path, calls):
        from qdelnet.cli import parse_and_dispatch

        assert parse_and_dispatch([
            "sweep", "--synthetic", "--n", "40", "--vocab", "12", "--dim", "3", "--max-words", "4",
            "--train-count", "30", "--test-count", "10", "--depths", "1,2", "--repeats", "1",
            "--epochs", "1", "--out", str(tmp_path),
        ]) == 0
        assert calls == {"initial_gradient_profile": 2, "gen_synthetic": 1}
        assert (tmp_path / "grad_flow.csv").is_file()

    def test_each_cell_builds_and_profiles_one_model(self, tmp_path, monkeypatch):
        """The cell's initial model is the one profiled: no second build."""
        import importlib

        counts = {"build_model": 0, "initial_gradient_profile": 0}
        for module in ("qdelnet.experiment", "qdelnet.train"):
            module = importlib.import_module(module)
            for name in counts:
                if hasattr(module, name):
                    real = getattr(module, name)

                    def counted(*args, _name=name, _real=real, **kwargs):
                        counts[_name] += 1
                        return _real(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        run_depth_sweep(tiny_sweep_config(tmp_path, depths=(1, 2), repeats=2, epochs=1))
        assert counts == {"build_model": 4, "initial_gradient_profile": 4}

    def test_a_cell_without_initial_norms_is_refused(self, tmp_path, monkeypatch):
        """train() reports no norms when its profile raises NumericError; the
        cell then raises it too and leaves no run file."""
        import importlib

        def raising(*args, **kwargs):
            raise NumericError("initial_gradient_profile: non-finite gradient in layer 0")

        monkeypatch.setattr(importlib.import_module("qdelnet.train"), "initial_gradient_profile",
                            raising)
        with pytest.raises(NumericError, match="depth 1: the initial model's gradients"):
            run_depth_sweep(tiny_sweep_config(tmp_path, depths=(1, 2), repeats=1, epochs=1))
        assert list((tmp_path / "runs").iterdir()) == []

    def test_sweep_writes_the_grad_flow_report_would(self, tmp_path):
        run_depth_sweep(tiny_sweep_config(tmp_path / "sweep", depths=(1, 3), repeats=2))
        grad_flow_report(tiny_sweep_config(tmp_path / "report", depths=(1, 3), repeats=2))
        flow = (tmp_path / "sweep" / "grad_flow.csv").read_bytes()
        assert flow == (tmp_path / "report" / "grad_flow.csv").read_bytes()
        assert len(flow.splitlines()) == 1 + 2 + 4

    def test_no_featurized_sample_is_alive_while_a_cell_trains(self, tmp_path, monkeypatch):
        """A 5,001-wide source: at the entry of each cell's train(), no
        numpy buffer that featurize_batch allocated is alive, so the
        profile's sample is featurized only when a cell profiles."""
        import inspect
        import tracemalloc

        import qdelnet.experiment as experiment
        import qdelnet.features as features

        lines, first = inspect.getsourcelines(features.featurize_batch)
        featurize_lines = range(first, first + len(lines))
        held = []
        real = experiment.train

        def traced(*args, **kwargs):
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
            frames = [t.traceback[0] for t in snapshot.traces]  # each buffer's allocating line
            held.append([f for f in frames
                         if f.filename == features.__file__ and f.lineno in featurize_lines])
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "train", traced)
        config = replace(
            tiny_sweep_config(tmp_path, depths=(1, 2), repeats=2, epochs=1),
            source=SyntheticSource(n=80, vocab_size=50, dim=25, max_words=200, noise=0.15,
                                   train_count=60, test_count=20),
        )
        tracemalloc.start()
        try:
            run_depth_sweep(config)
        finally:
            tracemalloc.stop()
        assert held == [[], [], [], []]

    def test_stubbed_profiler_layers_reach_grad_flow_csv(self, tmp_path):
        run_depth_sweep(
            tiny_sweep_config(tmp_path, depths=(2,), repeats=1),
            runner=lambda depth, widths, i: cell_result(
                make_report(1.0, 80.0, 70.0), 60.0, [0.5, 0.25, 0.125]
            ),
        )
        lines = (tmp_path / "grad_flow.csv").read_text().splitlines()
        assert lines == ["depth,layer_index,mean_norm", "2,0,0.5", "2,1,0.25", "2,2,0.125"]

    def test_grad_flow_holds_each_depth_mean_over_its_cells(self, tmp_path):
        rows = run_depth_sweep(
            tiny_sweep_config(tmp_path, depths=(1,), repeats=2),
            runner=lambda depth, widths, i: cell_result(
                make_report(1.0, 80.0, 70.0), 60.0, [[0.5, 3.0], [1.0, 1.0]][i]
            ),
        )
        lines = (tmp_path / "grad_flow.csv").read_text().splitlines()
        assert lines == ["depth,layer_index,mean_norm", "1,0,0.75", "1,1,2.0"]
        assert rows[0].first_layer_grad_norm_init == 0.75


@pytest.fixture
def file_source(tmp_path):
    """A FileSource over train/test JSONL and embedding files on disk."""
    from qdelnet.data import gen_synthetic, save_dataset, split_train_test
    from qdelnet.features import save_embeddings

    corpus, table = gen_synthetic(80, 20, 4, 5, 0.15, seed=9)
    train_set, test_set = split_train_test(corpus, 60, 20, seed=9)
    data = tmp_path / "data"
    data.mkdir()
    save_dataset(train_set, data / "train.jsonl")
    save_dataset(test_set, data / "test.jsonl")
    save_embeddings(table, data / "embeddings.txt")
    return FileSource(
        train_path=str(data / "train.jsonl"),
        embeddings_path=str(data / "embeddings.txt"),
        test_path=str(data / "test.jsonl"),
        embedding_dim=4,
        max_words=5,
    )


def file_sweep_config(source, out_dir):
    return SweepConfig(
        depths=(1, 2),
        repeats=1,
        train_config=TrainConfig(epochs=1, seed=9),
        source=source,
        output_dir=str(out_dir),
    )


class TestGradFlowReportOnFiles:
    def test_reads_only_the_training_file(self, tmp_path, file_source, monkeypatch):
        import qdelnet.experiment as experiment

        loaded = []
        real = experiment.load_dataset

        def counted(path):
            loaded.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(experiment, "load_dataset", counted)
        grad_flow_report(file_sweep_config(file_source, tmp_path / "report"))
        assert loaded == ["train.jsonl"]

    def test_needs_no_test_file_and_matches_the_sweep(self, tmp_path, file_source):
        run_depth_sweep(file_sweep_config(file_source, tmp_path / "sweep"))
        no_test = replace(file_source, test_path=None)
        grad_flow_report(file_sweep_config(no_test, tmp_path / "report"))
        flow = (tmp_path / "sweep" / "grad_flow.csv").read_bytes()
        assert flow == (tmp_path / "report" / "grad_flow.csv").read_bytes()

    def test_sweep_still_requires_the_test_file(self, tmp_path, file_source):
        no_test = replace(file_source, test_path=None)
        with pytest.raises(ConfigError, match="test file"):
            run_depth_sweep(file_sweep_config(no_test, tmp_path / "sweep"))
