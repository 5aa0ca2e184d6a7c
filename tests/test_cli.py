"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import read_ppm, write_ppm


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_kernel_backend_choices(self, capsys):
        args = build_parser().parse_args(
            ["segment", "--kernel-backend", "reference"]
        )
        assert args.kernel_backend == "reference"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["segment", "--kernel-backend", "vectorized"]
            )
        assert exc.value.code == 2


class TestSegmentCommand:
    def test_synthetic_segmentation(self, capsys, tmp_path):
        out = tmp_path / "seg.ppm"
        code = main(
            [
                "segment", "--synthetic", "--seed", "1",
                "--width", "96", "--height", "64",
                "--superpixels", "24", "--iterations", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "sslic" in captured
        assert "USE" in captured  # synthetic scenes carry ground truth
        assert out.exists()
        assert read_ppm(out).shape == (64, 96, 3)

    def test_slic_algorithm_choice(self, capsys):
        code = main(
            ["segment", "--synthetic", "--width", "64", "--height", "48",
             "--algorithm", "slic", "--superpixels", "12", "--iterations", "2"]
        )
        assert code == 0
        assert "slic:" in capsys.readouterr().out

    def test_input_file(self, capsys, tmp_path, rgb_image):
        path = tmp_path / "in.ppm"
        write_ppm(path, rgb_image)
        code = main(
            ["segment", "--input", str(path), "--superpixels", "16",
             "--iterations", "2"]
        )
        assert code == 0

    def test_missing_input_errors(self, capsys):
        assert main(["segment"]) == 2


class TestExperimentCommand:
    def test_analytic_experiment(self, capsys):
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "9-9-6" in out

    def test_unknown_experiment(self, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["experiment", "table42"])


class TestReportCommand:
    def test_default_report_is_paper_hd(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "real-time: yes" in out
        assert "mm^2" in out

    def test_custom_configuration(self, capsys):
        assert main(
            ["report", "--width", "640", "--height", "480",
             "--buffer-kb", "1", "--ways", "1-1-1"]
        ) == 0
        out = capsys.readouterr().out
        assert "1-1-1 way" in out
        assert "real-time: no" in out  # iterative unit cannot hit 30 fps


class TestServeCommand:
    def test_unknown_backend_exits_2_before_bind(self, capsys, monkeypatch):
        from repro.serve import SuperpixelServer

        async def no_bind(self):
            raise AssertionError("the server bound a port")

        monkeypatch.setattr(SuperpixelServer, "start", no_bind)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
        assert main(["serve", "--port", "0"]) == 2
        assert "unknown kernel backend 'bogus'" in capsys.readouterr().err
